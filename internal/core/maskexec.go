package core

import (
	"fmt"
	"sync/atomic"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Masked execution. The tessellation schedule is a statement about
// which (point, time) pairs may update concurrently; it does not care
// whether a point actually updates. Freezing an arbitrary subset of
// points (grid.Mask) therefore composes with any correct schedule: the
// masked run performs exactly the active subset of the unmasked run's
// updates, in a dependency-respecting order, and inactive points keep
// their initial value in both parity buffers (grid.Set writes both),
// acting as interior Dirichlet cells for their neighbours.
//
// Each clipped block box is classified by the mask's O(1) summed-area
// count: fully active boxes take the unchanged full-box dispatch of
// the unmasked executors, fully inactive boxes are skipped, and only
// mixed boxes pay for bitmap-guarded dispatch — one kernel call per
// maximal active run of the unit-stride dimension, which evaluates
// each active point with bitwise the arithmetic of the unmasked path.

// checkMask validates that m matches the grid extents n and finalizes
// it (idempotent) so the parallel region bodies only ever read it.
func checkMask(m *grid.Mask, n []int) error {
	if m == nil {
		return fmt.Errorf("core: nil mask (use the unmasked Run entry points)")
	}
	if len(m.Dims) != len(n) {
		return fmt.Errorf("core: mask rank %d != grid rank %d", len(m.Dims), len(n))
	}
	for k := range n {
		if m.Dims[k] != n[k] {
			return fmt.Errorf("core: mask extents %v != grid extents %v", m.Dims, n)
		}
	}
	m.Finalize()
	return nil
}

// RunMasked1D advances the active points of a masked 1D grid by steps
// time steps using the tessellation schedule. Inactive points are
// never written.
func RunMasked1D(g *grid.Grid1D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	if s.Dims != 1 || s.K1 == nil {
		return fmt.Errorf("core: %s is not a 1D kernel", s.Name)
	}
	if g.H < s.Slopes[0] {
		return fmt.Errorf("core: grid halo %d < slope %d", g.H, s.Slopes[0])
	}
	if err := checkConfig(cfg, []int{g.N}, s.Slopes); err != nil {
		return err
	}
	if err := checkMask(m, []int{g.N}); err != nil {
		return err
	}
	return runMasked1D(g, s, steps, cfg, cfg.Regions(steps), pool, nil, m)
}

// RunScheduledMasked1DStop is RunMasked1D replaying a precomputed
// Schedule with a cooperative stop flag (see RunScheduled1DStop).
func RunScheduledMasked1DStop(g *grid.Grid1D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	if s.Dims != 1 || s.K1 == nil {
		return fmt.Errorf("core: %s is not a 1D kernel", s.Name)
	}
	if g.H < s.Slopes[0] {
		return fmt.Errorf("core: grid halo %d < slope %d", g.H, s.Slopes[0])
	}
	if err := checkSchedule(sched, []int{g.N}, s.Slopes); err != nil {
		return err
	}
	if err := checkMask(m, []int{g.N}); err != nil {
		return err
	}
	return runMasked1D(g, s, sched.steps, &sched.cfg, sched.regions, pool, stop, m)
}

func runMasked1D(g *grid.Grid1D, s *stencil.Spec, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	h := g.H
	p := RunPath()
	useSIMD := p == stencil.PathSIMD && s.S1 != nil
	useBlock := !useSIMD && p >= stencil.PathBlock && s.B1 != nil
	pb := g.Step & 1
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			var lo, hi [1]int
			var pts, rows, blocks, simds int64
			dispatch := func(dst, src []float64, x0, x1 int) {
				if sp != nil {
					pts += int64(x1 - x0)
				}
				if useSIMD {
					s.S1(dst, src, x0+h, x1+h)
					simds++
				} else if useBlock {
					s.B1(dst, src, x0+h, x1+h)
					blocks++
				} else {
					s.K1(dst, src, x0+h, x1+h)
					rows++
				}
			}
			for t := r.T0; t < r.T1; t++ {
				dst, src := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				for bi := b0; bi < b1; bi++ {
					if !cfg.ClippedBounds(&r, &r.Blocks[bi], t, lo[:], hi[:]) {
						continue
					}
					cnt := m.CountBox(lo[:], hi[:])
					if cnt == 0 {
						continue
					}
					if cnt == hi[0]-lo[0] {
						dispatch(dst, src, lo[0], hi[0])
						continue
					}
					for a := lo[0]; ; {
						ra, rb := m.NextRun(0, a, hi[0])
						if ra >= hi[0] {
							break
						}
						dispatch(dst, src, ra, rb)
						a = rb
					}
				}
			}
			sp.addPoints(wkr, pts)
			sp.addKernelCalls(wkr, rows, blocks, simds)
		})
		sp.end(cfg, &r, ri)
	}
	g.Step += steps
	return nil
}

// RunMasked2D advances the active points of a masked 2D grid by steps
// time steps using the tessellation schedule (see RunMasked1D).
func RunMasked2D(g *grid.Grid2D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	if s.Dims != 2 || s.K2 == nil {
		return fmt.Errorf("core: %s is not a 2D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] {
		return fmt.Errorf("core: grid halo (%d,%d) < slopes %v", g.HX, g.HY, s.Slopes)
	}
	if err := checkConfig(cfg, []int{g.NX, g.NY}, s.Slopes); err != nil {
		return err
	}
	if err := checkMask(m, []int{g.NX, g.NY}); err != nil {
		return err
	}
	return runMasked2D(g, s, steps, cfg, cfg.Regions(steps), pool, nil, m)
}

// RunScheduledMasked2DStop is RunMasked2D replaying a precomputed
// Schedule with a cooperative stop flag (see RunScheduled1DStop).
func RunScheduledMasked2DStop(g *grid.Grid2D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	if s.Dims != 2 || s.K2 == nil {
		return fmt.Errorf("core: %s is not a 2D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] {
		return fmt.Errorf("core: grid halo (%d,%d) < slopes %v", g.HX, g.HY, s.Slopes)
	}
	if err := checkSchedule(sched, []int{g.NX, g.NY}, s.Slopes); err != nil {
		return err
	}
	if err := checkMask(m, []int{g.NX, g.NY}); err != nil {
		return err
	}
	return runMasked2D(g, s, sched.steps, &sched.cfg, sched.regions, pool, stop, m)
}

func runMasked2D(g *grid.Grid2D, s *stencil.Spec, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	p := RunPath()
	useSIMD := p == stencil.PathSIMD && s.S2 != nil
	useBlock := !useSIMD && p >= stencil.PathBlock && s.B2 != nil
	pb := g.Step & 1
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			var lo, hi [2]int
			var pts, rows, blocks, simds int64
			// dispatch updates the nx x ny sub-box at (x0, y0) with the
			// run's resolved kernel path; mixed boxes call it once per
			// active run (nx == 1).
			dispatch := func(dst, src []float64, x0, y0, nx, ny int) {
				if sp != nil {
					pts += int64(nx) * int64(ny)
				}
				base := g.Idx(x0, y0)
				if useSIMD {
					s.S2(dst, src, base, nx, ny, g.SY)
					simds++
					return
				}
				if useBlock {
					s.B2(dst, src, base, nx, ny, g.SY)
					blocks++
					return
				}
				for x := 0; x < nx; x++ {
					s.K2(dst, src, base, ny, g.SY)
					base += g.SY
				}
				rows += int64(nx)
			}
			for t := r.T0; t < r.T1; t++ {
				dst, src := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				for bi := b0; bi < b1; bi++ {
					if !cfg.ClippedBounds(&r, &r.Blocks[bi], t, lo[:], hi[:]) {
						continue
					}
					cnt := m.CountBox(lo[:], hi[:])
					if cnt == 0 {
						continue
					}
					w0, w1 := hi[0]-lo[0], hi[1]-lo[1]
					if cnt == w0*w1 {
						dispatch(dst, src, lo[0], lo[1], w0, w1)
						continue
					}
					for x := lo[0]; x < hi[0]; x++ {
						for a := lo[1]; ; {
							ra, rb := m.NextRun(x, a, hi[1])
							if ra >= hi[1] {
								break
							}
							dispatch(dst, src, x, ra, 1, rb-ra)
							a = rb
						}
					}
				}
			}
			sp.addPoints(wkr, pts)
			sp.addKernelCalls(wkr, rows, blocks, simds)
		})
		sp.end(cfg, &r, ri)
	}
	g.Step += steps
	return nil
}

// RunMasked3D advances the active points of a masked 3D grid by steps
// time steps using the tessellation schedule (see RunMasked1D).
func RunMasked3D(g *grid.Grid3D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	if s.Dims != 3 || s.K3 == nil {
		return fmt.Errorf("core: %s is not a 3D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] || g.HZ < s.Slopes[2] {
		return fmt.Errorf("core: grid halo (%d,%d,%d) < slopes %v", g.HX, g.HY, g.HZ, s.Slopes)
	}
	if err := checkConfig(cfg, []int{g.NX, g.NY, g.NZ}, s.Slopes); err != nil {
		return err
	}
	if err := checkMask(m, []int{g.NX, g.NY, g.NZ}); err != nil {
		return err
	}
	return runMasked3D(g, s, steps, cfg, cfg.Regions(steps), pool, nil, m)
}

// RunScheduledMasked3DStop is RunMasked3D replaying a precomputed
// Schedule with a cooperative stop flag (see RunScheduled1DStop).
func RunScheduledMasked3DStop(g *grid.Grid3D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	if s.Dims != 3 || s.K3 == nil {
		return fmt.Errorf("core: %s is not a 3D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] || g.HZ < s.Slopes[2] {
		return fmt.Errorf("core: grid halo (%d,%d,%d) < slopes %v", g.HX, g.HY, g.HZ, s.Slopes)
	}
	if err := checkSchedule(sched, []int{g.NX, g.NY, g.NZ}, s.Slopes); err != nil {
		return err
	}
	if err := checkMask(m, []int{g.NX, g.NY, g.NZ}); err != nil {
		return err
	}
	return runMasked3D(g, s, sched.steps, &sched.cfg, sched.regions, pool, stop, m)
}

func runMasked3D(g *grid.Grid3D, s *stencil.Spec, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	p := RunPath()
	useSIMD := p == stencil.PathSIMD && s.S3 != nil
	useBlock := !useSIMD && p >= stencil.PathBlock && s.B3 != nil
	pb := g.Step & 1
	ny := g.NY
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			var lo, hi [3]int
			var pts, rows, blocks, simds int64
			dispatch := func(dst, src []float64, x0, y0, z0, nx, nyy, nz int) {
				if sp != nil {
					pts += int64(nx) * int64(nyy) * int64(nz)
				}
				xBase := g.Idx(x0, y0, z0)
				if useSIMD {
					s.S3(dst, src, xBase, nx, nyy, nz, g.SY, g.SX)
					simds++
					return
				}
				if useBlock {
					s.B3(dst, src, xBase, nx, nyy, nz, g.SY, g.SX)
					blocks++
					return
				}
				for x := 0; x < nx; x++ {
					base := xBase
					for y := 0; y < nyy; y++ {
						s.K3(dst, src, base, nz, g.SY, g.SX)
						base += g.SY
					}
					xBase += g.SX
				}
				rows += int64(nx) * int64(nyy)
			}
			for t := r.T0; t < r.T1; t++ {
				dst, src := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				for bi := b0; bi < b1; bi++ {
					if !cfg.ClippedBounds(&r, &r.Blocks[bi], t, lo[:], hi[:]) {
						continue
					}
					cnt := m.CountBox(lo[:], hi[:])
					if cnt == 0 {
						continue
					}
					w0, w1, w2 := hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2]
					if cnt == w0*w1*w2 {
						dispatch(dst, src, lo[0], lo[1], lo[2], w0, w1, w2)
						continue
					}
					for x := lo[0]; x < hi[0]; x++ {
						for y := lo[1]; y < hi[1]; y++ {
							row := x*ny + y
							for a := lo[2]; ; {
								ra, rb := m.NextRun(row, a, hi[2])
								if ra >= hi[2] {
									break
								}
								dispatch(dst, src, x, y, ra, 1, 1, rb-ra)
								a = rb
							}
						}
					}
				}
			}
			sp.addPoints(wkr, pts)
			sp.addKernelCalls(wkr, rows, blocks, simds)
		})
		sp.end(cfg, &r, ri)
	}
	g.Step += steps
	return nil
}
