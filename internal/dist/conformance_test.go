package dist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
	"tessellate/internal/verify"
)

// runRanksTwice runs every rank's Run(steps) concurrently, twice in a
// row, so the second round replays each rank's cached plan.
func runRanksTwice(t *testing.T, runs []func(int) error, steps int) {
	t.Helper()
	for round := 0; round < 2; round++ {
		errs := make([]error, len(runs))
		var wg sync.WaitGroup
		for i, run := range runs {
			wg.Add(1)
			go func(i int, run func(int) error) {
				defer wg.Done()
				errs[i] = run(steps)
			}(i, run)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d rank %d: %v", round, i, err)
			}
		}
	}
}

// confCell runs one (ranks, mode, transport) cell of the conformance
// matrix on the current kernel tier and returns the comparison of the
// gathered output with the single-rank reference and every rank's
// (messages, floats) counters.
type confCell func(t *testing.T, ts []Transport, overlap bool) (verify.Result, [][2]int64)

// conformance crosses the kernel tiers with {sync, overlap} ×
// {LocalCluster, TCP loopback} × {2, 3} ranks: every cell must equal
// the reference bitwise, and the exchange counters must not depend on
// the tier.
func conformance(t *testing.T, cell confCell) {
	defer core.SetKernelPath(core.KernelPath())
	for _, n := range []int{2, 3} {
		for _, overlap := range []bool{false, true} {
			for _, tcp := range []bool{false, true} {
				var stats0 [][2]int64
				for _, tier := range []string{"row", "block", "simd"} {
					if err := core.SetKernelPath(tier); err != nil {
						t.Fatal(err)
					}
					ts := LocalCluster(n)
					if tcp {
						ts = newTCPCluster(t, n, TCPOptions{})
					}
					res, stats := cell(t, ts, overlap)
					if !res.Equal {
						t.Fatalf("n=%d overlap=%v tcp=%v tier=%s: %v", n, overlap, tcp, tier, res.Error("distributed"))
					}
					if stats0 == nil {
						stats0 = stats
					}
					for i := range stats {
						if stats[i] != stats0[i] {
							t.Fatalf("n=%d overlap=%v tcp=%v tier=%s: rank %d sent %v (messages, floats), row tier sent %v",
								n, overlap, tcp, tier, i, stats[i], stats0[i])
						}
					}
				}
			}
		}
	}
}

func TestTierTransportConformance2D(t *testing.T) {
	const nx, ny, steps = 96, 40, 7 // steps not a multiple of BT=3
	cfg := testConfig(nx, ny)
	pool := par.NewPool(2)
	defer pool.Close()
	for _, spec := range []*stencil.Spec{stencil.Heat2D, stencil.Box2D9} {
		t.Run(spec.Name, func(t *testing.T) {
			initial := grid.NewGrid2D(nx, ny, 1, 1)
			rng := rand.New(rand.NewSource(11))
			initial.Fill(func(x, y int) float64 { return rng.Float64() })
			initial.SetBoundary(0.5)
			ref := initial.Clone()
			if err := core.Run2D(ref, spec, 2*steps, cfg, pool); err != nil {
				t.Fatal(err)
			}
			conformance(t, func(t *testing.T, ts []Transport, overlap bool) (verify.Result, [][2]int64) {
				ranks := make([]*Rank, len(ts))
				runs := make([]func(int) error, len(ts))
				for i := range ts {
					r, err := NewRank(i, len(ts), ts[i], cfg, spec, 2)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					r.SetOverlap(overlap)
					if err := r.Scatter(initial); err != nil {
						t.Fatal(err)
					}
					ranks[i], runs[i] = r, r.Run
				}
				runRanksTwice(t, runs, steps)
				out := grid.NewGrid2D(nx, ny, 1, 1)
				out.Step = 2 * steps
				stats := make([][2]int64, len(ranks))
				for i, r := range ranks {
					r.Territory(out)
					stats[i] = [2]int64{int64(r.MessagesSent), r.FloatsSent}
				}
				return verify.Grids2D(out, ref), stats
			})
		})
	}
}

// varKappa is a non-constant conductivity as a function of global
// coordinates, laid out over g's full padded extent with g's interior
// column 0 at global x = xbase.
func varKappa(g *grid.Grid3D, xbase int) []float64 {
	kap := make([]float64, len(g.Buf[0]))
	for x := -g.HX; x < g.NX+g.HX; x++ {
		for y := -g.HY; y < g.NY+g.HY; y++ {
			for z := -g.HZ; z < g.NZ+g.HZ; z++ {
				kap[g.Idx(x, y, z)] = 0.5 + float64(((xbase+x+1)*7+(y+1)*3+(z+1)*5)%11)/20
			}
		}
	}
	return kap
}

func TestTierTransportConformance3D(t *testing.T) {
	const nx, ny, nz, steps = 48, 14, 16, 5 // steps not a multiple of BT=2
	cfg := &core.Config{N: []int{nx, ny, nz}, Slopes: []int{1, 1, 1}, BT: 2, Big: []int{6, 6, 8}, Merge: true}
	pool := par.NewPool(2)
	defer pool.Close()
	specs := map[string]func(g *grid.Grid3D, xbase int) *stencil.Spec{
		"heat-3d": func(*grid.Grid3D, int) *stencil.Spec { return stencil.Heat3D },
		"varcoef-3d": func(g *grid.Grid3D, xbase int) *stencil.Spec {
			return stencil.NewVarCoef3D(varKappa(g, xbase))
		},
	}
	for name, specFor := range specs {
		t.Run(name, func(t *testing.T) {
			initial := grid.NewGrid3D(nx, ny, nz, 1, 1, 1)
			rng := rand.New(rand.NewSource(13))
			initial.Fill(func(x, y, z int) float64 { return rng.Float64() })
			initial.SetBoundary(0.25)
			ref := initial.Clone()
			if err := core.Run3D(ref, specFor(ref, 0), 2*steps, cfg, pool); err != nil {
				t.Fatal(err)
			}
			conformance(t, func(t *testing.T, ts []Transport, overlap bool) (verify.Result, [][2]int64) {
				ranks := make([]*Rank3D, len(ts))
				runs := make([]func(int) error, len(ts))
				for i := range ts {
					r, err := NewRank3D(i, len(ts), ts[i], cfg, stencil.Heat3D, 2)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					r.spec = specFor(r.local, r.xbase)
					r.SetOverlap(overlap)
					if err := r.Scatter(initial); err != nil {
						t.Fatal(err)
					}
					ranks[i], runs[i] = r, r.Run
				}
				runRanksTwice(t, runs, steps)
				out := grid.NewGrid3D(nx, ny, nz, 1, 1, 1)
				out.Step = 2 * steps
				stats := make([][2]int64, len(ranks))
				for i, r := range ranks {
					r.Territory(out)
					stats[i] = [2]int64{int64(r.MessagesSent), r.FloatsSent}
				}
				return verify.Grids3D(out, ref), stats
			})
		})
	}
}

// TestOnePathPerRunUnderConcurrentSwitch is core's pathrace test for
// distributed ranks: a goroutine flips the kernel selector while ranks
// run, and each rank's run must still use exactly one tier (its probe
// spec counts calls per tier) with output bitwise equal to the
// single-rank reference. On one rank the tess_kernel_calls_total
// children alone must name that tier, with the probe's call count.
func TestOnePathPerRunUnderConcurrentSwitch(t *testing.T) {
	defer core.SetKernelPath(core.KernelPath())
	const nx, ny, steps = 64, 32, 4
	cfg := testConfig(nx, ny)
	initial := grid.NewGrid2D(nx, ny, 1, 1)
	rng := rand.New(rand.NewSource(3))
	initial.Fill(func(x, y int) float64 { return rng.Float64() })
	pool := par.NewPool(1)
	defer pool.Close()
	ref := initial.Clone()
	if err := core.Run2D(ref, stencil.Heat2D, steps, cfg, pool); err != nil {
		t.Fatal(err)
	}

	type probe struct{ row, block, simd atomic.Int64 }
	probeSpec := func(p *probe) *stencil.Spec {
		h2 := stencil.Heat2D
		s2 := h2.S2
		if s2 == nil {
			s2 = h2.B2
		}
		return &stencil.Spec{
			Name: "path-probe", Dims: 2, Shape: stencil.Star,
			Slopes: []int{1, 1}, Points: 5, Flops: 9,
			K2: func(dst, src []float64, base, n, sy int) {
				p.row.Add(1)
				h2.K2(dst, src, base, n, sy)
			},
			B2: func(dst, src []float64, base, nx, ny, sy int) {
				p.block.Add(1)
				h2.B2(dst, src, base, nx, ny, sy)
			},
			S2: func(dst, src []float64, base, nx, ny, sy int) {
				p.simd.Add(1)
				s2(dst, src, base, nx, ny, sy)
			},
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		paths := []string{"row", "block", "simd"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := core.SetKernelPath(paths[i%len(paths)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()

	telemetry.Enable()
	defer telemetry.Disable()
	tiers := []*telemetry.ShardedCounter{telemetry.KernelCallsRow, telemetry.KernelCallsBlock, telemetry.KernelCallsSIMD}
	for run := 0; run < 30; run++ {
		n := 1 + run%2
		ts := LocalCluster(n)
		probes := make([]*probe, n)
		ranks := make([]*Rank, n)
		runs := make([]func(int) error, n)
		for i := range ranks {
			probes[i] = &probe{}
			r, err := NewRank(i, n, ts[i], cfg, probeSpec(probes[i]), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			r.SetOverlap(run%4 >= 2)
			if err := r.Scatter(initial); err != nil {
				t.Fatal(err)
			}
			ranks[i], runs[i] = r, r.Run
		}
		var before [3]uint64
		for k, c := range tiers {
			before[k] = c.Value()
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func(i int) { defer wg.Done(); errs[i] = runs[i](steps) }(i)
		}
		wg.Wait()
		out := grid.NewGrid2D(nx, ny, 1, 1)
		out.Step = steps
		for i, r := range ranks {
			if errs[i] != nil {
				t.Fatalf("run %d rank %d: %v", run, i, errs[i])
			}
			r.Territory(out)
			p := probes[i]
			counts := []int64{p.row.Load(), p.block.Load(), p.simd.Load()}
			used := 0
			for _, c := range counts {
				if c > 0 {
					used++
				}
			}
			if used != 1 {
				t.Fatalf("run %d rank %d used %d tiers (row, block, simd calls %v)", run, i, used, counts)
			}
			if n == 1 {
				for k, c := range tiers {
					if got := c.Value() - before[k]; got != uint64(counts[k]) {
						t.Fatalf("run %d: tess_kernel_calls_total{path=%q} moved by %d, probe counted %d",
							run, stencil.Path(k), got, counts[k])
					}
				}
			}
		}
		if r := verify.Grids2D(out, ref); !r.Equal {
			t.Fatalf("run %d: %v", run, r.Error("path-race"))
		}
	}
}
