package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
	"tessellate/internal/verify"
)

// Block windows persist in the pool across runs, so a run starts on
// whatever the previous ones left: stale stage values where the new
// mask is inactive, another TmpHalo, another row stride. These tests
// pin the one hazard of that design — a stale window cell read as if
// it were the oracle's — and bound the memory the windows hold.

// withHalo returns a copy of p with another TmpHalo.
func withHalo(p *stencil.Pipeline, v float64) *stencil.Pipeline {
	q := *p
	q.TmpHalo = v
	return &q
}

// absolute returns a copy of p whose stencil stages are not
// Relocatable, so the executor keeps its intermediates in grid-sized
// scratch and calls the kernels with absolute flat indices.
func absolute(p *stencil.Pipeline) *stencil.Pipeline {
	q := *p
	q.Name += "-abs"
	q.Stages = append([]stencil.Stage(nil), p.Stages...)
	for i := range q.Stages {
		if sp := q.Stages[i].Spec; sp != nil {
			c := *sp
			c.Relocatable = false
			q.Stages[i].Spec = &c
		}
	}
	return &q
}

// randomMask carves random boxes out of an all-active mask.
func randomMask(n []int, rng *rand.Rand) *grid.Mask {
	m := grid.NewMask(n)
	lo, hi, p := make([]int, len(n)), make([]int, len(n)), make([]int, len(n))
	for holes := 2 + rng.Intn(6); holes > 0; holes-- {
		for k, nk := range n {
			lo[k] = rng.Intn(nk)
			hi[k] = min(nk, lo[k]+1+rng.Intn(4))
		}
		forBox(lo, hi, p, func() error { m.Set(false, p...); return nil })
	}
	m.Finalize()
	return m
}

// reuseRun is one step of a window-reuse sequence.
type reuseRun struct {
	p    *stencil.Pipeline
	n    []int
	mask string // "lshape", "obstacle", "random" or "" (unmasked)
}

// runAgainstNaive runs one reuseRun on pool and on the naive oracle
// and fails unless the two agree bitwise.
func runAgainstNaive(t *testing.T, pool *par.Pool, rr reuseRun, seed int64) {
	t.Helper()
	sl := rr.p.Slopes()
	var m *grid.Mask
	switch rr.mask {
	case "":
	case "random":
		m = randomMask(rr.n, rand.New(rand.NewSource(seed)))
	default:
		var err error
		if m, err = grid.NamedMask(rr.mask, rr.n); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]int, len(sl))
	for k, s := range sl {
		big[k] = 2*2*s + 3 + k
	}
	cfg := Config{N: rr.n, Slopes: sl, BT: 2, Big: big, Merge: seed%2 == 0}
	const steps = 5
	name := fmt.Sprintf("%s n=%v mask=%q halo=%v", rr.p.Name, rr.n, rr.mask, rr.p.TmpHalo)
	var r verify.Result
	switch len(rr.n) {
	case 1:
		g := grid.NewGrid1D(rr.n[0], sl[0])
		fill1D(g, seed)
		ref := g.Clone()
		if err := RunPipeline1D(g, rr.p, steps, &cfg, pool, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := naive.RunPipeline1D(ref, rr.p, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		r = verify.Grids1D(g, ref)
	case 2:
		g := grid.NewGrid2D(rr.n[0], rr.n[1], sl[0], sl[1])
		fill2D(g, seed)
		ref := g.Clone()
		if err := RunPipeline2D(g, rr.p, steps, &cfg, pool, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := naive.RunPipeline2D(ref, rr.p, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		r = verify.Grids2D(g, ref)
	case 3:
		g := grid.NewGrid3D(rr.n[0], rr.n[1], rr.n[2], sl[0], sl[1], sl[2])
		fill3D(g, seed)
		ref := g.Clone()
		if err := RunPipeline3D(g, rr.p, steps, &cfg, pool, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := naive.RunPipeline3D(ref, rr.p, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		r = verify.Grids3D(g, ref)
	}
	if !r.Equal {
		t.Fatalf("%s: %v", name, r.Error("window-reuse"))
	}
}

// One pool runs mask A, no mask, mask B with another TmpHalo, then a
// larger grid (and a shorter chain, so the pool holds more windows than
// the run uses), in 1D, 2D and 3D, at the default tile budget and at a
// forced tile width of 2 (1D never tiles): every run must match the
// oracle bitwise.
func TestPipelineScratchReuseAcrossRuns(t *testing.T) {
	p1 := &stencil.Pipeline{Name: "p5-heat", Stages: []stencil.Stage{
		{Spec: stencil.P1D5, In: 0},
		{Spec: stencil.Heat1D, In: 1},
		{A: 0.75, In: 2, B: 0.25, InB: 0},
	}, TmpHalo: 0.3}
	heatBox := pipelines2D()[2]
	reactHeat := &stencil.Pipeline{Name: "react-heat", Stages: []stencil.Stage{
		{Spec: react2D, In: 0},
		{Spec: stencil.Heat2D, In: 1},
	}, TmpHalo: rk2ish(stencil.Heat2D).TmpHalo}
	seqs := map[string][]reuseRun{
		"1d": {
			{rk2ish(stencil.Heat1D), []int{61}, "lshape"},
			{rk2ish(stencil.Heat1D), []int{61}, ""},
			{withHalo(rk2ish(stencil.Heat1D), 0.9), []int{61}, "obstacle"},
			{p1, []int{97}, "random"},
			{absolute(p1), []int{97}, "lshape"},
			{leapfrogish(stencil.Heat1D), []int{150}, "lshape"},
		},
		"2d": {
			{rk2ish(stencil.Heat2D), []int{33, 38}, "lshape"},
			{rk2ish(stencil.Heat2D), []int{33, 38}, ""},
			{withHalo(rk2ish(stencil.Heat2D), 0.9), []int{33, 38}, "obstacle"},
			{heatBox, []int{41, 45}, "random"},
			{withHalo(heatBox, -2), []int{41, 45}, "lshape"},
			{leapfrogish(stencil.Box2D9), []int{70, 52}, "random"},
			// The same row stride with a wider halo: columns the first
			// run wrote as interior are halo columns of the second.
			{reactHeat, []int{33, 40}, ""},
			{rk2ish(stencil.Heat2D), []int{33, 38}, ""},
			// Grid-sized scratch after windows and back.
			{absolute(heatBox), []int{41, 45}, "random"},
			{heatBox, []int{41, 45}, "obstacle"},
		},
		"3d": {
			{rk2ish(stencil.Heat3D), []int{14, 13, 16}, "lshape"},
			{rk2ish(stencil.Heat3D), []int{14, 13, 16}, ""},
			{withHalo(rk2ish(stencil.Heat3D), 0.6), []int{14, 13, 16}, "obstacle"},
			{leapfrogish(stencil.Box3D27), []int{19, 17, 21}, "random"},
			{absolute(rk2ish(stencil.Heat3D)), []int{19, 17, 21}, "lshape"},
		},
	}
	defer func(old int) { tileOverride = old }(tileOverride)
	for name, seq := range seqs {
		t.Run(name, func(t *testing.T) {
			for _, width := range []int{0, 2} {
				tileOverride = width
				pool := par.NewPool(2)
				for i, rr := range seq {
					runAgainstNaive(t, pool, rr, int64(10*i+width))
				}
				pool.Close()
			}
		})
	}
}

// Kernels that read data of their own by the flat index — here a
// conductivity field laid out like the grid — must see the grid's
// absolute indices, so such pipelines may not run rebased.
func TestRunPipelineIndexedKernelMatchesNaive(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	defer func(old int) { tileOverride = old }(tileOverride)
	kappa := func(length int) []float64 {
		k := make([]float64, length)
		for i := range k {
			k[i] = float64(i%7) / 6
		}
		return k
	}
	n2, n3 := []int{33, 38}, []int{14, 13, 16}
	vc2 := stencil.NewVarCoef2D(kappa((n2[0] + 4) * (n2[1] + 4)))
	vc3 := stencil.NewVarCoef3D(kappa((n3[0] + 4) * (n3[1] + 4) * (n3[2] + 4)))
	for _, width := range []int{0, 2} {
		tileOverride = width
		for i, rr := range []reuseRun{
			{rk2ish(vc2), n2, ""},
			{rk2ish(vc2), n2, "lshape"},
			{&stencil.Pipeline{Name: "varcoef-heat", Stages: []stencil.Stage{
				{Spec: vc2, In: 0}, {Spec: stencil.Heat2D, In: 1},
			}, TmpHalo: 0.4}, n2, "random"},
			{rk2ish(vc3), n3, "obstacle"},
		} {
			runAgainstNaive(t, pool, rr, int64(i+width))
		}
	}
}

// The windows a pool holds are bounded by workers × intermediates ×
// the tallest tile window × the plane stride: a tile's step box spans
// at most W rows of dimension 0, stage 0's box W + 2·grow[0], and the
// window adds the halo on each side. For a 2048² RK2 run (W = 32) on
// two workers that is under a tenth of one grid buffer (38 of 2052
// rows per window, four windows); Close gives every byte back.
func TestPipelineScratchBytesBounded(t *testing.T) {
	const n, steps, workers = 2048, 2, 2
	p := rk2ish(stencil.Heat2D)
	sl := p.Slopes()
	cfg := DefaultConfig([]int{n, n}, sl)
	w, tiled := cfg.tileWidth(pipeTileBytes)
	if !tiled {
		t.Fatalf("Big %v: pipeline blocks not tiled", cfg.Big)
	}
	g := grid.NewGrid2D(n, n, sl[0], sl[1])
	fill2D(g, 4)
	before := telemetry.PipelineScratchBytes.Value()
	pool := par.NewPool(workers)
	if err := RunPipeline2D(g, p, steps, &cfg, pool, nil); err != nil {
		t.Fatal(err)
	}
	held := telemetry.PipelineScratchBytes.Value() - before
	rows := w + 2*p.SuffixSlopes()[0][0] + 2*g.HX
	bound := float64(workers * p.NumTmp() * rows * g.SY * 8)
	grid := float64(8 * len(g.Buf[0]))
	if held <= 0 || held > bound {
		t.Fatalf("scratch gauge grew by %v B; want in (0, %v] (%d-row windows)", held, bound, rows)
	}
	if held > 0.1*grid {
		t.Fatalf("windows hold %v B, %.3f of one %v B grid buffer", held, held/grid, grid)
	}
	pool.Close()
	if after := telemetry.PipelineScratchBytes.Value(); after != before {
		t.Fatalf("scratch gauge %v after Close, want %v", after, before)
	}
}

// A warm run allocates nothing that scales with the grid: the same
// schedule shape at 256² and 1024² (Big scaled with N, so block counts
// match) allocates the same bytes per run.
func TestPipelineWarmRunAllocsGridIndependent(t *testing.T) {
	p := rk2ish(stencil.Heat2D)
	sl := p.Slopes()
	pool := par.NewPool(1)
	defer pool.Close()
	perRun := func(n int) uint64 {
		cfg := Config{N: []int{n, n}, Slopes: sl, BT: 4, Big: []int{n / 4, n / 2}, Merge: true}
		m, err := grid.NamedMask("lshape", []int{n, n})
		if err != nil {
			t.Fatal(err)
		}
		g := grid.NewGrid2D(n, n, sl[0], sl[1])
		fill2D(g, 5)
		if err := RunPipeline2D(g, p, 8, &cfg, pool, m); err != nil {
			t.Fatal(err)
		}
		// The least of a few single runs, so a runtime-internal
		// allocation landing inside one window is not counted.
		best := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			if err := RunPipeline2D(g, p, 8, &cfg, pool, m); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&b)
			best = min(best, b.TotalAlloc-a.TotalAlloc)
		}
		return best
	}
	small, large := perRun(256), perRun(1024)
	if small != large {
		t.Fatalf("warm run allocates %d B at 256² but %d B at 1024²", small, large)
	}
	if large > 64<<10 {
		t.Fatalf("warm run allocates %d B", large)
	}
}

// Blend calls land in tess_kernel_calls_total under the tier that ran
// them, one per blended row. The stencil stages here have row kernels
// only, so on the block and simd ceilings every call counted under the
// blend's tier is a blend row: exactly one per row of every final box.
func TestPipelineBlendCallsCounted(t *testing.T) {
	old := KernelPath()
	defer SetKernelPath(old)
	telemetry.Enable()
	defer telemetry.Disable()
	heat := *stencil.Heat2D
	heat.B2, heat.S2 = nil, nil
	p := &stencil.Pipeline{Name: "heat-react-blend", Stages: []stencil.Stage{
		{Spec: &heat, In: 0},
		{Spec: react2D, In: 1},
		{A: 0.5, In: 0, B: 0.5, InB: 2},
	}, TmpHalo: 0.1}
	sl := p.Slopes()
	pool := par.NewPool(2)
	defer pool.Close()
	const steps = 3
	cfg := Config{N: []int{30, 34}, Slopes: sl, BT: 2, Big: []int{8, 10}, Merge: true}
	rows := uint64(0)
	lo, hi := make([]int, 2), make([]int, 2)
	for _, r := range cfg.Regions(steps) {
		for bi := range r.Blocks {
			for tt := r.T0; tt < r.T1; tt++ {
				if cfg.ClippedBounds(&r, &r.Blocks[bi], tt, lo, hi) {
					rows += uint64(hi[0] - lo[0])
				}
			}
		}
	}
	counters := map[stencil.Path]*telemetry.ShardedCounter{
		stencil.PathRow: telemetry.KernelCallsRow, stencil.PathBlock: telemetry.KernelCallsBlock, stencil.PathSIMD: telemetry.KernelCallsSIMD,
	}
	for _, path := range []string{"block", "simd"} {
		if err := SetKernelPath(path); err != nil {
			t.Fatal(err)
		}
		_, tier := stencil.ResolveBlend(RunPath())
		before := counters[tier].Value()
		g := grid.NewGrid2D(30, 34, sl[0], sl[1])
		fill2D(g, 6)
		if err := RunPipeline2D(g, p, steps, &cfg, pool, nil); err != nil {
			t.Fatal(err)
		}
		if got := counters[tier].Value() - before; got != rows {
			t.Fatalf("path %s: %d %v calls, want %d blend rows", path, got, tier, rows)
		}
	}
}

// countedRows2D returns a copy of s on the row tier alone whose row
// kernel adds every point it updates to *pts.
func countedRows2D(s *stencil.Spec, pts *atomic.Int64) *stencil.Spec {
	c := *s
	k := s.K2
	c.B2, c.S2 = nil, nil
	c.K2 = func(dst, src []float64, base, n, sy int) {
		pts.Add(int64(n))
		k(dst, src, base, n, sy)
	}
	return &c
}

// Every intermediate-stage point a fused run computes beyond active ×
// steps per stage lands in tess_pipeline_recomputed_points_total. For
// RK2 (two intermediate stencil stages, a final blend) the counter is
// exactly the stencil points a kernel meter sees minus 2 × active ×
// steps, and it is the ring grow[0] = 1 adds to stage 0's box around
// every tile-step box that holds an active point, counted on the
// active set.
func TestPipelineRecomputedPointsCounted(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	defer func(old int) { tileOverride = old }(tileOverride)
	pool := par.NewPool(2)
	defer pool.Close()
	var pts atomic.Int64
	p := rk2ish(countedRows2D(stencil.Heat2D, &pts))
	sl := p.Slopes()
	n := []int{29, 23}
	const steps = 7
	cfg := Config{N: n, Slopes: sl, BT: 2, Big: []int{18, 16}, Merge: true}
	for _, width := range []int{3, 0} {
		tileOverride = width
		for _, name := range []string{"", "lshape"} {
			active := int64(n[0] * n[1])
			count := func(lo, hi []int) int64 { return boxVolume(lo, hi) }
			var m *grid.Mask
			if name != "" {
				m, _ = grid.NamedMask(name, n)
				active = int64(m.ActiveCount())
				count = func(lo, hi []int) int64 { return int64(m.CountBox(lo, hi)) }
			}
			want := int64(0)
			for _, r := range cfg.Regions(steps) {
				for gi := 0; gi < r.Tasks(); gi++ {
					b0, b1 := r.Span(gi)
					var box Box
					cfg.VisitBlocks(&r, b0, b1, pipeTileBytes, &box, func(int) {
						final := count(box.Lo[:2], box.Hi[:2])
						if final == 0 {
							return // a box with no active point runs no stage
						}
						lo, hi := box.Lo, box.Hi
						for k := range n {
							lo[k], hi[k] = max(lo[k]-1, 0), min(hi[k]+1, n[k])
						}
						want += count(lo[:2], hi[:2]) - final
					})
				}
			}
			g := grid.NewGrid2D(n[0], n[1], sl[0], sl[1])
			fill2D(g, 8)
			before := telemetry.PipelineRecomputedPoints.Value()
			pts.Store(0)
			if err := RunPipeline2D(g, p, steps, &cfg, pool, m); err != nil {
				t.Fatal(err)
			}
			got := int64(telemetry.PipelineRecomputedPoints.Value() - before)
			if got != want || want == 0 {
				t.Fatalf("width %d mask %q: %d recomputed points, want %d (> 0)", width, name, got, want)
			}
			if useful := 2 * active * steps; pts.Load()-useful != got {
				t.Fatalf("width %d mask %q: kernels computed %d points, %d useful, counter %d",
					width, name, pts.Load(), useful, got)
			}
		}
	}
}
