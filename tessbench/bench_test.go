package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/dist"
	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// The timing wrappers must not change which kernel tier an executor
// resolves, nor a single bit of the result.
func TestTimedSpecKeepsPathAndBits(t *testing.T) {
	defer stencil.SetActivePath(stencil.ActivePath())
	pool := par.NewPool(2)
	defer pool.Close()
	for _, path := range []stencil.Path{stencil.PathRow, stencil.PathBlock, stencil.PathSIMD} {
		stencil.SetActivePath(path)
		m := &kernelMeter{}
		w3 := timedSpec(stencil.Heat3D, m)
		if _, want := stencil.Heat3D.Resolve3D(path); func() stencil.Path { _, p := w3.Resolve3D(path); return p }() != want {
			t.Fatalf("%v: timed heat-3d resolves another tier", path)
		}
		w2 := timedSpec(stencil.Heat2D, m)
		if _, want := stencil.Heat2D.Resolve2D(path); func() stencil.Path { _, p := w2.Resolve2D(path); return p }() != want {
			t.Fatalf("%v: timed heat-2d resolves another tier", path)
		}

		n, steps := 40, 9
		cfg := core.DefaultConfig([]int{n, n, n}, stencil.Heat3D.Slopes)
		a := grid.NewGrid3D(n, n, n, 1, 1, 1)
		b := grid.NewGrid3D(n, n, n, 1, 1, 1)
		seed3D(a, 5, serialFor)
		seed3D(b, 5, serialFor)
		if err := core.Run3D(a, stencil.Heat3D, steps, &cfg, pool); err != nil {
			t.Fatal(err)
		}
		if err := core.Run3D(b, w3, steps, &cfg, pool); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Buf, b.Buf) {
			t.Fatalf("%v: timed spec changed the 3D result", path)
		}
		if got := m.totals().points; got != int64(n*n*n*steps) {
			t.Fatalf("%v: kernel points %d, want %d", path, got, n*n*n*steps)
		}

		// The masked RK2 pipeline, through timedPipeline.
		p := rk2Pipeline()
		sl := p.Slopes()
		pc := core.DefaultConfig([]int{64, 64}, sl)
		mask, err := grid.NamedMask("lshape", []int{64, 64})
		if err != nil {
			t.Fatal(err)
		}
		c := grid.NewGrid2D(64, 64, sl[0], sl[1])
		d := grid.NewGrid2D(64, 64, sl[0], sl[1])
		seed2D(c, 3, serialFor)
		seed2D(d, 3, serialFor)
		if err := core.RunPipeline2D(c, p, 7, &pc, pool, mask); err != nil {
			t.Fatal(err)
		}
		if err := core.RunPipeline2D(d, timedPipeline(p, &kernelMeter{}), 7, &pc, pool, mask); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Buf, d.Buf) {
			t.Fatalf("%v: timed pipeline changed the result", path)
		}
	}
}

// The timing transport passes every message through unchanged and
// counts what the ranks themselves count.
func TestTimedTransportBitwise(t *testing.T) {
	const nx, ny, steps = 96, 40, 12
	cfg := core.Config{N: []int{nx, ny}, Slopes: []int{1, 1}, BT: 2, Big: []int{8, 8}, Merge: true}
	g := grid.NewGrid2D(nx, ny, 1, 1)
	seed2D(g, 9, serialFor)
	run := func(wrap bool) (uint64, []*timedTransport, []*dist.Rank) {
		local := dist.LocalCluster(2)
		var tts []*timedTransport
		trs := local
		if wrap {
			tts = []*timedTransport{{inner: local[0]}, {inner: local[1]}}
			trs = []dist.Transport{tts[0], tts[1]}
		}
		ranks, err := newRanks(&cfg, trs, stencil.Heat2D)
		if err != nil {
			t.Fatal(err)
		}
		if err := scatter(ranks, g); err != nil {
			t.Fatal(err)
		}
		if err := runRanks(ranks, steps); err != nil {
			t.Fatal(err)
		}
		out := grid.NewGrid2D(nx, ny, 1, 1)
		seed2D(out, 9, serialFor)
		out.Step = steps
		for _, r := range ranks {
			r.Territory(out)
			r.Close()
		}
		return digest(out.Buf[out.Step&1], serialFor), tts, ranks
	}
	plain, _, _ := run(false)
	timed, tts, ranks := run(true)
	if plain != timed {
		t.Fatal("timed transport changed the gathered result")
	}
	for i, r := range ranks {
		if got := tts[i].messages.Load(); got != int64(r.MessagesSent) {
			t.Fatalf("rank %d: wrapper counted %d messages, rank %d", i, got, r.MessagesSent)
		}
		if got := tts[i].bytes.Load(); got != 8*r.FloatsSent {
			t.Fatalf("rank %d: wrapper counted %d bytes, rank sent %d floats", i, got, r.FloatsSent)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // reverse order: the helper sorts
	}
	v, ok := percentile(xs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v ok=%v, want 990 true", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond and must not be reported")
	}
	if _, ok := percentile(xs[:20], 0.5); !ok {
		t.Fatal("p50 of 20 samples has 10 beyond")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

// fakeWindow returns a window of 1100 served jobs, one every 2 ms,
// each taking lat.
func fakeWindow(lat time.Duration) []outcome {
	out := make([]outcome, serveWindow)
	t0 := time.Unix(0, 0)
	for i := range out {
		due := t0.Add(time.Duration(i) * 2 * time.Millisecond)
		out[i] = outcome{due: due, sent: due, done: due.Add(lat), status: http.StatusOK}
	}
	return out
}

func TestRungPassesOnMostWindows(t *testing.T) {
	fast, slow := fakeWindow(time.Millisecond), fakeWindow(2*serveLimit)
	s := summarise(100, [][]outcome{fast, slow, fast})
	if !s.pass || s.passed != 2 {
		t.Fatalf("2 of 3 windows within the limit: pass=%v passed=%d, want true 2", s.pass, s.passed)
	}
	if s.p99 != time.Millisecond.Seconds() {
		t.Fatalf("median window p99 = %v, want 1ms", s.p99)
	}
	if s := summarise(100, [][]outcome{slow, fast, slow}); s.pass {
		t.Fatal("1 of 3 windows within the limit must not pass")
	}
}

func TestGenRungDeterministic(t *testing.T) {
	a := genWindow(42, 1, 440, 3000)
	b := genWindow(42, 1, 440, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different requests")
	}
	if reflect.DeepEqual(a, genWindow(43, 1, 440, 3000)) {
		t.Fatal("another seed generated the same requests")
	}
	count := make([]int, len(serveShapes))
	repeats := 0
	bodies := map[string]bool{}
	for i, j := range a {
		if i > 0 && j.at < a[i-1].at {
			t.Fatal("arrivals out of order")
		}
		if j.repeat {
			repeats++
			if !bodies[string(j.body)] {
				t.Fatalf("job %d repeats no earlier job", i)
			}
			continue
		}
		if bodies[string(j.body)] {
			t.Fatalf("job %d is a fresh job with a duplicate body", i)
		}
		bodies[string(j.body)] = true
		count[j.shape]++
	}
	n := float64(len(a))
	for i, want := range []float64{0.6, 0.15, 0.15} {
		if got := float64(count[i]) / n; math.Abs(got-want) > 0.03 {
			t.Fatalf("shape %d share %.3f, want about %.2f", i, got, want)
		}
	}
	if got := float64(repeats) / n; math.Abs(got-0.1) > 0.03 {
		t.Fatalf("repeat share %.3f, want about 0.10", got)
	}
	rate := n / a[len(a)-1].at.Seconds()
	if math.Abs(rate-440)/440 > 0.1 {
		t.Fatalf("offered rate %.1f, want about 440", rate)
	}
}

// On a small instance the traced ledger's parts add up: the executor
// updated every point exactly once per step, and the solve's time
// splits into build, regions and a small remainder.
func TestLayerSumsReconcile(t *testing.T) {
	helper := par.NewPool(2)
	defer helper.Close()
	pfor := poolFor(helper)
	const n, steps = 48, 8
	c, err := heat3DCase(2, n, steps, 1, pfor)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.reseed()
	if err := c.naive(false, steps); err != nil {
		t.Fatal(err)
	}
	oracle := digest(c.buf(), pfor)
	rep := newReport()
	cfg := runConfig{seed: 1, seconds: 0.4, trace: true, threads: 2, rec: newRecorder()}
	if err := tracedLedger(cfg, c, pfor, 100, oracle, rep); err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("traced ops: %d attempted, %d failed (%v)", rep.attempted, rep.failed, rep.notes)
	}
	L := rep.layers
	want := float64(n * n * n * steps)
	if L["core.points_updated"] != want || L["stencil.kernel_points"] != want || L["core.useful_ratio"] != 1 {
		t.Fatalf("points: core %v kernel %v useful %v, want %v and 1",
			L["core.points_updated"], L["stencil.kernel_points"], L["core.useful_ratio"], want)
	}
	if u := L["core.unattributed_share"]; u < -0.01 || u > 0.25 {
		t.Fatalf("solve wall is not build + regions: unattributed share %v", u)
	}
	parts := L["core.block_overhead_share"] + L["par.worker_idle_share"]
	if math.Abs(parts-L["core.nonkernel_share"]) > 1e-9 {
		t.Fatalf("non-kernel share %v != block overhead + idle %v", L["core.nonkernel_share"], parts)
	}
	if L["stencil.kernel_s"] <= 0 || L["stencil.kernel_s"] > L["core.exec_s"]*2*1.01 {
		t.Fatalf("kernel time %v outside (0, exec x threads = %v]", L["stencil.kernel_s"], 2*L["core.exec_s"])
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := cfg.rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	ids := map[int64]int64{} // span -> op
	for _, e := range tr.TraceEvents {
		ids[e.Args["span"]] = e.Args["op"]
	}
	for _, e := range tr.TraceEvents {
		if p := e.Args["parent"]; p != 0 && ids[p] != e.Args["op"] {
			t.Fatalf("span %q has a parent outside its op", e.Name)
		}
	}
	if len(tr.TraceEvents) < 3 {
		t.Fatalf("only %d spans recorded", len(tr.TraceEvents))
	}
}

func TestMeasureCountsPanics(t *testing.T) {
	calls := 0
	st := measure(0, 3, func() {}, func() error {
		calls++
		if calls == 2 {
			panic("boom")
		}
		return nil
	}, func() uint64 { return 1 })
	if st.attempted != 3 || st.failed != 1 || len(st.walls) != 2 {
		t.Fatalf("attempted %d failed %d ok %d, want 3 1 2", st.attempted, st.failed, len(st.walls))
	}
}

// BENCHMARK.json at the repository root must name exactly the
// workloads and metrics this program prints, with the same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		E2E       []metric                `json:"end_to_end"`
		Layers    []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Fatalf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.E2E, e2eMetrics)
	check("per_layer", doc.Layers, layerMetrics)
}
