package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/dist"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
	"tessellate/internal/verify"
)

// tiledRunner advances one grid through a plain or masked executor:
// once by a step count, or by replaying a schedule with a stop flag.
type tiledRunner struct {
	oneShot func(steps int, cfg *core.Config) error
	replay  func(s *core.Schedule, stop *atomic.Bool) error
}

// driveTiled advances a grid by steps[0]+steps[1] in one of three
// modes: one shot, one scheduled replay, or a replay of steps[0]
// followed by a pre-stopped replay of steps[1] (which must abort
// without advancing) and its resumption.
func driveTiled(t *testing.T, r tiledRunner, cfg *core.Config, steps [2]int, mode string, step *int) {
	t.Helper()
	total := steps[0] + steps[1]
	switch mode {
	case "one-shot":
		if err := r.oneShot(total, cfg); err != nil {
			t.Fatal(err)
		}
	case "scheduled":
		s, err := core.NewSchedule(cfg, total)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.replay(s, nil); err != nil {
			t.Fatal(err)
		}
	case "stop-resume":
		var stop atomic.Bool
		for i, n := range steps {
			s, err := core.NewSchedule(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				stop.Store(true)
				before := *step
				if err := r.replay(s, &stop); !errors.Is(err, core.ErrStopped) || *step != before {
					t.Fatalf("pre-stopped replay: err=%v, Step %d -> %d", err, before, *step)
				}
				stop.Store(false)
			}
			if err := r.replay(s, &stop); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTiledVisitMatchesNaive forces time-skewed tiles onto small grids
// and checks the plain, masked and pipeline 2D/3D executors and a 3D
// distributed run bitwise against the naive oracle on every kernel
// tier, with the exact Theorem-3.5 point count read from telemetry.
// The stencils include the box ones (diagonal dependences); the step
// counts are not multiples of BT, so diamond windows are clamped.
func TestTiledVisitMatchesNaive(t *testing.T) {
	defer core.SetTileWidth(core.SetTileWidth(0))
	defer core.SetKernelPath(core.KernelPath())
	telemetry.Enable()
	defer telemetry.Disable()
	pool := par.NewPool(2)
	defer pool.Close()
	cases := []struct {
		bt    int
		merge bool
		steps [2]int
	}{{2, true, [2]int{3, 4}}, {3, false, [2]int{5, 2}}}
	modes := []string{"one-shot", "scheduled", "stop-resume"}
	for _, tier := range []string{"row", "block", "simd"} {
		if err := core.SetKernelPath(tier); err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 3} {
			core.SetTileWidth(width)
			for _, tc := range cases {
				for _, masked := range []bool{false, true} {
					for _, mode := range modes {
						for _, s := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9} {
							tiled2D(t, pool, s, tc.bt, tc.merge, masked, tc.steps, mode)
						}
						for _, s := range []*stencil.Spec{stencil.Heat3D, stencil.Box3D27} {
							tiled3D(t, pool, s, tc.bt, tc.merge, masked, tc.steps, mode)
						}
					}
				}
				for _, s := range []*stencil.Spec{stencil.Heat3D, stencil.Box3D27} {
					tiledDist3D(t, s, tc.bt, tc.steps[0]+tc.steps[1])
				}
			}
			if t.Failed() {
				t.Fatalf("tier %s width %d", tier, width)
			}
		}
		for _, width := range []int{1, 2, 3, 0} {
			core.SetTileWidth(width)
			for d, kernels := range tiledPipelineKernels() {
				for _, ks := range kernels {
					for _, p := range pipelineShapes(ks[0], ks[1]) {
						for _, mask := range []string{"", "lshape", "obstacle", "random"} {
							tiledPipeline(t, pool, d, p, mask, width)
						}
					}
				}
			}
		}
	}
}

// tiledPipelineKernels returns, per dimension, the (first, second)
// spec pairs of the pipeline rows: Relocatable stencils, whose windows
// follow the box, and a variable-coefficient stencil that reads its
// coefficient field by the absolute flat index, so its pipelines run
// in grid-sized windows. The coefficient fields match tiledPipeline's
// grids (halo 2).
func tiledPipelineKernels() [4][][2]*stencil.Spec {
	kappa := func(length int) []float64 {
		k := make([]float64, length)
		for i := range k {
			k[i] = float64(i%5) / 4
		}
		return k
	}
	n2, n3 := tiledPipelineN[2], tiledPipelineN[3]
	vc2 := stencil.NewVarCoef2D(kappa((n2[0] + 4) * (n2[1] + 4)))
	vc3 := stencil.NewVarCoef3D(kappa((n3[0] + 4) * (n3[1] + 4) * (n3[2] + 4)))
	return [4][][2]*stencil.Spec{
		2: {{stencil.Heat2D, stencil.Box2D9}, {vc2, stencil.Heat2D}},
		3: {{stencil.Heat3D, stencil.Box3D27}, {vc3, stencil.Heat3D}},
	}
}

// tiledPipelineN are the grid extents of the pipeline rows.
var tiledPipelineN = [4][]int{2: {29, 23}, 3: {15, 13, 11}}

// pipelineShapes are the pipeline rows on specs s and s2: an SSP-RK2
// stepper, an operator split through s2 and a leapfrog stepper whose
// final blend reads the previous state.
func pipelineShapes(s, s2 *stencil.Spec) []*stencil.Pipeline {
	return []*stencil.Pipeline{
		{Name: "rk2-" + s.Name, TmpHalo: 0.25, Stages: []stencil.Stage{
			{Spec: s, In: 0}, {Spec: s, In: 1}, {A: 0.5, In: 0, B: 0.5, InB: 2},
		}},
		{Name: "split-" + s.Name + "-" + s2.Name, TmpHalo: 0.75, Stages: []stencil.Stage{
			{Spec: s, In: 0}, {Spec: s2, In: 1},
		}},
		{Name: "leapfrog-" + s.Name, TmpHalo: 0.5, Stages: []stencil.Stage{
			{Spec: s, In: 0}, {A: 2, In: 1, B: -1, InB: stencil.PrevState},
		}},
	}
}

// tiledMask returns the named mask of extents n, random holes for
// "random", or nil for "".
func tiledMask(name string, n []int, seed int64) *grid.Mask {
	switch name {
	case "":
		return nil
	case "random":
		rng := rand.New(rand.NewSource(seed))
		m := grid.NewMask(n)
		p := make([]int, len(n))
		for holes := 3 + rng.Intn(5); holes > 0; holes-- {
			for k := range p {
				p[k] = rng.Intn(n[k])
			}
			last := len(n) - 1
			for end := min(p[last]+1+rng.Intn(4), n[last]); p[last] < end; p[last]++ {
				m.Set(false, p...)
			}
		}
		m.Finalize()
		return m
	}
	m, _ := grid.NamedMask(name, n)
	return m
}

// tiledPipeline runs pipeline p on a d-dimensional grid under the
// named mask and checks it bitwise against the naive oracle, with the
// exact active × steps point count.
func tiledPipeline(t *testing.T, pool *par.Pool, d int, p *stencil.Pipeline, mask string, width int) {
	t.Helper()
	const steps = 7
	n, sl := tiledPipelineN[d], p.Slopes()
	cfg := &core.Config{N: n, Slopes: sl, BT: 2, Big: make([]int, d), Merge: width%2 == 0}
	for k := range sl {
		cfg.Big[k] = 4*sl[k] + 2 + k
	}
	m := tiledMask(mask, n, int64(width))
	active := 1
	for _, nk := range n {
		active *= nk
	}
	if m != nil {
		active = m.ActiveCount()
	}
	label := fmt.Sprintf("%s %dD mask=%q width=%d tier=%s", p.Name, d, mask, width, core.KernelPath())
	rng := rand.New(rand.NewSource(int64(d)))
	before := telemetry.PointsUpdated.Value()
	var res verify.Result
	switch d {
	case 2:
		g := grid.NewGrid2D(n[0], n[1], 2, 2)
		g.Fill(func(x, y int) float64 { return rng.Float64() })
		g.SetBoundary(0.25)
		ref := g.Clone()
		if err := core.RunPipeline2D(g, p, steps, cfg, pool, m); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := naive.RunPipeline2D(ref, p, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		res = verify.Grids2D(g, ref)
	case 3:
		g := grid.NewGrid3D(n[0], n[1], n[2], 2, 2, 2)
		g.Fill(func(x, y, z int) float64 { return rng.Float64() })
		g.SetBoundary(0.125)
		ref := g.Clone()
		if err := core.RunPipeline3D(g, p, steps, cfg, pool, m); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := naive.RunPipeline3D(ref, p, steps, nil, m); err != nil {
			t.Fatal(err)
		}
		res = verify.Grids3D(g, ref)
	}
	checkPoints(t, label, before, active, steps)
	if !res.Equal {
		t.Fatalf("%s: %v", label, res.Error("tiled-pipeline"))
	}
}

// checkPoints fails unless the run updated exactly active*steps points.
func checkPoints(t *testing.T, label string, before uint64, active, steps int) {
	t.Helper()
	if got, want := telemetry.PointsUpdated.Value()-before, uint64(active*steps); got != want {
		t.Fatalf("%s: %d points updated, want exactly %d", label, got, want)
	}
}

func tiledLabel(s *stencil.Spec, bt int, merge, masked bool, mode string) string {
	return fmt.Sprintf("%s bt=%d merge=%v masked=%v %s tier=%s", s.Name, bt, merge, masked, mode, core.KernelPath())
}

func tiled2D(t *testing.T, pool *par.Pool, s *stencil.Spec, bt int, merge, masked bool, steps [2]int, mode string) {
	t.Helper()
	n := []int{29, 23}
	cfg := &core.Config{N: n, Slopes: s.Slopes, BT: bt, Big: []int{4*bt + 2, 4 * bt}, Merge: merge}
	g := grid.NewGrid2D(n[0], n[1], 1, 1)
	rng := rand.New(rand.NewSource(int64(bt)))
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	g.SetBoundary(0.25)
	ref := g.Clone()
	var m *grid.Mask
	active := n[0] * n[1]
	r := tiledRunner{
		oneShot: func(k int, c *core.Config) error { return core.Run2D(g, s, k, c, pool) },
		replay:  func(sc *core.Schedule, stop *atomic.Bool) error { return core.RunScheduled2DStop(g, s, sc, pool, stop) },
	}
	if masked {
		m, _ = grid.NamedMask("lshape", n)
		active = m.ActiveCount()
		r = tiledRunner{
			oneShot: func(k int, c *core.Config) error { return core.RunMasked2D(g, s, k, c, pool, m) },
			replay: func(sc *core.Schedule, stop *atomic.Bool) error {
				return core.RunScheduledMasked2DStop(g, s, sc, pool, stop, m)
			},
		}
	}
	label := tiledLabel(s, bt, merge, masked, mode)
	before := telemetry.PointsUpdated.Value()
	driveTiled(t, r, cfg, steps, mode, &g.Step)
	checkPoints(t, label, before, active, steps[0]+steps[1])
	if masked {
		if err := naive.RunMasked2D(ref, s, steps[0]+steps[1], nil, m); err != nil {
			t.Fatal(err)
		}
	} else {
		naive.Run2D(ref, s, steps[0]+steps[1], nil)
	}
	if res := verify.Grids2D(g, ref); !res.Equal {
		t.Fatalf("%s: %v", label, res.Error("tiled-2d"))
	}
}

func tiled3D(t *testing.T, pool *par.Pool, s *stencil.Spec, bt int, merge, masked bool, steps [2]int, mode string) {
	t.Helper()
	n := []int{15, 13, 11}
	cfg := &core.Config{N: n, Slopes: s.Slopes, BT: bt, Big: []int{2*bt + 2, 2*bt + 2, 2*bt + 4}, Merge: merge}
	g := grid.NewGrid3D(n[0], n[1], n[2], 1, 1, 1)
	rng := rand.New(rand.NewSource(int64(bt)))
	g.Fill(func(x, y, z int) float64 { return rng.Float64() })
	g.SetBoundary(0.125)
	ref := g.Clone()
	var m *grid.Mask
	active := n[0] * n[1] * n[2]
	r := tiledRunner{
		oneShot: func(k int, c *core.Config) error { return core.Run3D(g, s, k, c, pool) },
		replay:  func(sc *core.Schedule, stop *atomic.Bool) error { return core.RunScheduled3DStop(g, s, sc, pool, stop) },
	}
	if masked {
		m, _ = grid.NamedMask("obstacle", n)
		active = m.ActiveCount()
		r = tiledRunner{
			oneShot: func(k int, c *core.Config) error { return core.RunMasked3D(g, s, k, c, pool, m) },
			replay: func(sc *core.Schedule, stop *atomic.Bool) error {
				return core.RunScheduledMasked3DStop(g, s, sc, pool, stop, m)
			},
		}
	}
	label := tiledLabel(s, bt, merge, masked, mode)
	before := telemetry.PointsUpdated.Value()
	driveTiled(t, r, cfg, steps, mode, &g.Step)
	checkPoints(t, label, before, active, steps[0]+steps[1])
	if masked {
		if err := naive.RunMasked3D(ref, s, steps[0]+steps[1], nil, m); err != nil {
			t.Fatal(err)
		}
	} else {
		naive.Run3D(ref, s, steps[0]+steps[1], nil)
	}
	if res := verify.Grids3D(g, ref); !res.Equal {
		t.Fatalf("%s: %v", label, res.Error("tiled-3d"))
	}
}

// tiledDist3D runs two dist.Rank3D over a LocalCluster and compares the
// gathered result with the naive oracle.
func tiledDist3D(t *testing.T, s *stencil.Spec, bt, steps int) {
	t.Helper()
	n := []int{28, 13, 11}
	cfg := &core.Config{N: n, Slopes: s.Slopes, BT: bt, Big: []int{2*bt + 2, 2*bt + 2, 2*bt + 4}, Merge: true}
	initial := grid.NewGrid3D(n[0], n[1], n[2], 1, 1, 1)
	rng := rand.New(rand.NewSource(int64(steps)))
	initial.Fill(func(x, y, z int) float64 { return rng.Float64() })
	initial.SetBoundary(0.5)
	ts := dist.LocalCluster(2)
	ranks := make([]*dist.Rank3D, len(ts))
	for i := range ts {
		r, err := dist.NewRank3D(i, len(ts), ts[i], cfg, s, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Scatter(initial); err != nil {
			t.Fatal(err)
		}
		ranks[i] = r
	}
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, r := range ranks {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = r.Run(steps) }()
	}
	wg.Wait()
	out := grid.NewGrid3D(n[0], n[1], n[2], 1, 1, 1)
	out.Step = steps
	for i, r := range ranks {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		r.Territory(out)
	}
	ref := initial.Clone()
	naive.Run3D(ref, s, steps, nil)
	if res := verify.Grids3D(out, ref); !res.Equal {
		t.Fatalf("%s dist bt=%d tier=%s: %v", s.Name, bt, core.KernelPath(), res.Error("tiled-dist-3d"))
	}
}
