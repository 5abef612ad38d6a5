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
// and checks the plain and masked 2D/3D executors and a 3D distributed
// run bitwise against the naive oracle on every kernel tier, with the
// exact Theorem-3.5 point count read from telemetry. The stencils
// include the box ones (diagonal dependences); the step counts are not
// multiples of BT, so diamond windows are clamped.
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
