package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// ErrStopped is returned by the RunScheduled*Stop variants when the
// cooperative stop flag is observed set at a region boundary. The grid
// is left mid-run (Step is NOT advanced) and must be re-seeded before
// reuse; a server releasing the buffer back to an arena does exactly
// that.
var ErrStopped = errors.New("core: run stopped at a region boundary")

// stopped reports whether a cooperative stop has been requested.
// Region boundaries are the natural check points: they are full
// synchronisation points of the schedule (every worker has drained),
// so aborting there never leaves a parallel region half-dispatched.
func stopped(stop *atomic.Bool) bool {
	return stop != nil && stop.Load()
}

// Run1D advances a 1D grid by steps time steps using the tessellation
// schedule. The grid's halo must be at least the stencil slope.
func Run1D(g *grid.Grid1D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool) error {
	if s.Dims != 1 || s.K1 == nil {
		return fmt.Errorf("core: %s is not a 1D kernel", s.Name)
	}
	if g.H < s.Slopes[0] {
		return fmt.Errorf("core: grid halo %d < slope %d", g.H, s.Slopes[0])
	}
	if err := checkConfig(cfg, []int{g.N}, s.Slopes); err != nil {
		return err
	}
	return run1D(g, s, steps, cfg, cfg.Regions(steps), pool, nil)
}

// RunScheduled1D is Run1D replaying a precomputed Schedule: no region
// list is rebuilt, so a steady-state caller re-running one shape does
// no schedule work at all. Results are bitwise identical to Run1D with
// the schedule's config and step count.
func RunScheduled1D(g *grid.Grid1D, s *stencil.Spec, sched *Schedule, pool *par.Pool) error {
	if s.Dims != 1 || s.K1 == nil {
		return fmt.Errorf("core: %s is not a 1D kernel", s.Name)
	}
	if g.H < s.Slopes[0] {
		return fmt.Errorf("core: grid halo %d < slope %d", g.H, s.Slopes[0])
	}
	if err := checkSchedule(sched, []int{g.N}, s.Slopes); err != nil {
		return err
	}
	return run1D(g, s, sched.steps, &sched.cfg, sched.regions, pool, nil)
}

// RunScheduled1DStop is RunScheduled1D with a cooperative stop flag
// checked between schedule replay regions: when stop is set, the run
// aborts with ErrStopped at the next region boundary (see ErrStopped
// for the grid contract). A nil stop behaves like RunScheduled1D.
func RunScheduled1DStop(g *grid.Grid1D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool) error {
	if s.Dims != 1 || s.K1 == nil {
		return fmt.Errorf("core: %s is not a 1D kernel", s.Name)
	}
	if g.H < s.Slopes[0] {
		return fmt.Errorf("core: grid halo %d < slope %d", g.H, s.Slopes[0])
	}
	if err := checkSchedule(sched, []int{g.N}, s.Slopes); err != nil {
		return err
	}
	return run1D(g, s, sched.steps, &sched.cfg, sched.regions, pool, stop)
}

func run1D(g *grid.Grid1D, s *stencil.Spec, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool) error {
	h := g.H
	// One path per run: sampled here, never re-read, so a concurrent
	// SetKernelPath cannot mix dispatch shapes within a run.
	p := RunPath()
	useSIMD := p == stencil.PathSIMD && s.S1 != nil
	useBlock := !useSIMD && p >= stencil.PathBlock && s.B1 != nil
	pb := g.Step & 1 // buffer parity: current values live in Buf[pb]
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			var lo, hi [1]int
			uniform, interior := cfg.groupPlan(&r, b0, b1, lo[:], hi[:])
			var pts, rows, blocks, simds int64
			for t := r.T0; t < r.T1; t++ {
				dst, src := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				var rel0, n0 int
				if uniform {
					// One bounds computation covers the whole group:
					// every block's box is the same origin offset.
					rep := &r.Blocks[b0]
					cfg.Bounds(&r, rep, t, lo[:], hi[:])
					n0 = hi[0] - lo[0]
					if n0 <= 0 {
						continue
					}
					rel0 = lo[0] - rep.Origin[0]
				}
				for bi := b0; bi < b1; bi++ {
					b := &r.Blocks[bi]
					var x0, w0 int
					if uniform && interior&(1<<uint(bi-b0)) != 0 {
						x0, w0 = b.Origin[0]+rel0, n0
					} else {
						if !cfg.ClippedBounds(&r, b, t, lo[:], hi[:]) {
							continue
						}
						x0, w0 = lo[0], hi[0]-lo[0]
					}
					if sp != nil {
						pts += int64(w0)
					}
					if useSIMD {
						s.S1(dst, src, x0+h, x0+w0+h)
						simds++
					} else if useBlock {
						s.B1(dst, src, x0+h, x0+w0+h)
						blocks++
					} else {
						s.K1(dst, src, x0+h, x0+w0+h)
						rows++
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

// Run2D advances a 2D grid by steps time steps using the tessellation
// schedule.
func Run2D(g *grid.Grid2D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool) error {
	if s.Dims != 2 || s.K2 == nil {
		return fmt.Errorf("core: %s is not a 2D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] {
		return fmt.Errorf("core: grid halo (%d,%d) < slopes %v", g.HX, g.HY, s.Slopes)
	}
	if err := checkConfig(cfg, []int{g.NX, g.NY}, s.Slopes); err != nil {
		return err
	}
	return run2D(g, s, steps, cfg, cfg.Regions(steps), pool, nil)
}

// RunScheduled2D is Run2D replaying a precomputed Schedule (see
// RunScheduled1D).
func RunScheduled2D(g *grid.Grid2D, s *stencil.Spec, sched *Schedule, pool *par.Pool) error {
	if s.Dims != 2 || s.K2 == nil {
		return fmt.Errorf("core: %s is not a 2D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] {
		return fmt.Errorf("core: grid halo (%d,%d) < slopes %v", g.HX, g.HY, s.Slopes)
	}
	if err := checkSchedule(sched, []int{g.NX, g.NY}, s.Slopes); err != nil {
		return err
	}
	return run2D(g, s, sched.steps, &sched.cfg, sched.regions, pool, nil)
}

// RunScheduled2DStop is RunScheduled2D with a cooperative stop flag
// (see RunScheduled1DStop).
func RunScheduled2DStop(g *grid.Grid2D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool) error {
	if s.Dims != 2 || s.K2 == nil {
		return fmt.Errorf("core: %s is not a 2D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] {
		return fmt.Errorf("core: grid halo (%d,%d) < slopes %v", g.HX, g.HY, s.Slopes)
	}
	if err := checkSchedule(sched, []int{g.NX, g.NY}, s.Slopes); err != nil {
		return err
	}
	return run2D(g, s, sched.steps, &sched.cfg, sched.regions, pool, stop)
}

func run2D(g *grid.Grid2D, s *stencil.Spec, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool) error {
	// One path per run: sampled here, never re-read, so a concurrent
	// SetKernelPath cannot mix dispatch shapes within a run.
	p := RunPath()
	useSIMD := p == stencil.PathSIMD && s.S2 != nil
	useBlock := !useSIMD && p >= stencil.PathBlock && s.B2 != nil
	pb := g.Step & 1 // buffer parity: current values live in Buf[pb]
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			var lo, hi [2]int
			uniform, interior := cfg.groupPlan(&r, b0, b1, lo[:], hi[:])
			var pts, rows, blocks, simds int64
			for t := r.T0; t < r.T1; t++ {
				dst, src := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				var rel0, rel1, n0, n1 int
				if uniform {
					// One bounds computation covers the whole group:
					// every block's box is the same origin offset.
					rep := &r.Blocks[b0]
					cfg.Bounds(&r, rep, t, lo[:], hi[:])
					n0, n1 = hi[0]-lo[0], hi[1]-lo[1]
					if n0 <= 0 || n1 <= 0 {
						continue
					}
					rel0, rel1 = lo[0]-rep.Origin[0], lo[1]-rep.Origin[1]
				}
				for bi := b0; bi < b1; bi++ {
					b := &r.Blocks[bi]
					var x0, y0, w0, w1 int
					if uniform && interior&(1<<uint(bi-b0)) != 0 {
						x0, y0 = b.Origin[0]+rel0, b.Origin[1]+rel1
						w0, w1 = n0, n1
					} else {
						if !cfg.ClippedBounds(&r, b, t, lo[:], hi[:]) {
							continue
						}
						x0, y0 = lo[0], lo[1]
						w0, w1 = hi[0]-lo[0], hi[1]-lo[1]
					}
					if sp != nil {
						pts += int64(w0) * int64(w1)
					}
					base := g.Idx(x0, y0)
					if useSIMD {
						s.S2(dst, src, base, w0, w1, g.SY)
						simds++
						continue
					}
					if useBlock {
						s.B2(dst, src, base, w0, w1, g.SY)
						blocks++
						continue
					}
					for x := 0; x < w0; x++ {
						s.K2(dst, src, base, w1, g.SY)
						base += g.SY
					}
					rows += int64(w0)
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

// Run3D advances a 3D grid by steps time steps using the tessellation
// schedule.
func Run3D(g *grid.Grid3D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool) error {
	if s.Dims != 3 || s.K3 == nil {
		return fmt.Errorf("core: %s is not a 3D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] || g.HZ < s.Slopes[2] {
		return fmt.Errorf("core: grid halo (%d,%d,%d) < slopes %v", g.HX, g.HY, g.HZ, s.Slopes)
	}
	if err := checkConfig(cfg, []int{g.NX, g.NY, g.NZ}, s.Slopes); err != nil {
		return err
	}
	return run3D(g, s, steps, cfg, cfg.Regions(steps), pool, nil)
}

// RunScheduled3D is Run3D replaying a precomputed Schedule (see
// RunScheduled1D).
func RunScheduled3D(g *grid.Grid3D, s *stencil.Spec, sched *Schedule, pool *par.Pool) error {
	if s.Dims != 3 || s.K3 == nil {
		return fmt.Errorf("core: %s is not a 3D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] || g.HZ < s.Slopes[2] {
		return fmt.Errorf("core: grid halo (%d,%d,%d) < slopes %v", g.HX, g.HY, g.HZ, s.Slopes)
	}
	if err := checkSchedule(sched, []int{g.NX, g.NY, g.NZ}, s.Slopes); err != nil {
		return err
	}
	return run3D(g, s, sched.steps, &sched.cfg, sched.regions, pool, nil)
}

// RunScheduled3DStop is RunScheduled3D with a cooperative stop flag
// (see RunScheduled1DStop).
func RunScheduled3DStop(g *grid.Grid3D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool) error {
	if s.Dims != 3 || s.K3 == nil {
		return fmt.Errorf("core: %s is not a 3D kernel", s.Name)
	}
	if g.HX < s.Slopes[0] || g.HY < s.Slopes[1] || g.HZ < s.Slopes[2] {
		return fmt.Errorf("core: grid halo (%d,%d,%d) < slopes %v", g.HX, g.HY, g.HZ, s.Slopes)
	}
	if err := checkSchedule(sched, []int{g.NX, g.NY, g.NZ}, s.Slopes); err != nil {
		return err
	}
	return run3D(g, s, sched.steps, &sched.cfg, sched.regions, pool, stop)
}

func run3D(g *grid.Grid3D, s *stencil.Spec, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool) error {
	// One path per run: sampled here, never re-read, so a concurrent
	// SetKernelPath cannot mix dispatch shapes within a run.
	p := RunPath()
	useSIMD := p == stencil.PathSIMD && s.S3 != nil
	useBlock := !useSIMD && p >= stencil.PathBlock && s.B3 != nil
	pb := g.Step & 1 // buffer parity: current values live in Buf[pb]
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			var lo, hi [3]int
			uniform, interior := cfg.groupPlan(&r, b0, b1, lo[:], hi[:])
			var pts, rows, blocks, simds int64
			for t := r.T0; t < r.T1; t++ {
				dst, src := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				var rel0, rel1, rel2, n0, n1, n2 int
				if uniform {
					// One bounds computation covers the whole group:
					// every block's box is the same origin offset.
					rep := &r.Blocks[b0]
					cfg.Bounds(&r, rep, t, lo[:], hi[:])
					n0, n1, n2 = hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2]
					if n0 <= 0 || n1 <= 0 || n2 <= 0 {
						continue
					}
					rel0, rel1, rel2 = lo[0]-rep.Origin[0], lo[1]-rep.Origin[1], lo[2]-rep.Origin[2]
				}
				for bi := b0; bi < b1; bi++ {
					b := &r.Blocks[bi]
					var x0, y0, z0, w0, w1, w2 int
					if uniform && interior&(1<<uint(bi-b0)) != 0 {
						x0, y0, z0 = b.Origin[0]+rel0, b.Origin[1]+rel1, b.Origin[2]+rel2
						w0, w1, w2 = n0, n1, n2
					} else {
						if !cfg.ClippedBounds(&r, b, t, lo[:], hi[:]) {
							continue
						}
						x0, y0, z0 = lo[0], lo[1], lo[2]
						w0, w1, w2 = hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2]
					}
					if sp != nil {
						pts += int64(w0) * int64(w1) * int64(w2)
					}
					xBase := g.Idx(x0, y0, z0)
					if useSIMD {
						s.S3(dst, src, xBase, w0, w1, w2, g.SY, g.SX)
						simds++
						continue
					}
					if useBlock {
						s.B3(dst, src, xBase, w0, w1, w2, g.SY, g.SX)
						blocks++
						continue
					}
					for x := 0; x < w0; x++ {
						base := xBase
						for y := 0; y < w1; y++ {
							s.K3(dst, src, base, w2, g.SY, g.SX)
							base += g.SY
						}
						xBase += g.SX
					}
					rows += int64(w0) * int64(w1)
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

// RunND advances an n-dimensional grid by steps time steps using the
// tessellation schedule with the generic stencil gs. It is the
// formula-driven executor covering any dimension (paper §3 in full
// generality); slower than the specialised ones but exercises the
// identical geometry.
func RunND(g *grid.NDGrid, gs *stencil.Generic, steps int, cfg *Config, pool *par.Pool) error {
	if gs.Dims != g.D() {
		return fmt.Errorf("core: stencil dims %d != grid dims %d", gs.Dims, g.D())
	}
	for k := 0; k < g.D(); k++ {
		if g.Halo[k] < gs.Slopes[k] {
			return fmt.Errorf("core: grid halo %v < slopes %v", g.Halo, gs.Slopes)
		}
	}
	if err := checkConfig(cfg, g.Dims, gs.Slopes); err != nil {
		return err
	}
	return runND(g, gs, steps, cfg, cfg.Regions(steps), pool, nil)
}

// RunScheduledND is RunND replaying a precomputed Schedule (see
// RunScheduled1D).
func RunScheduledND(g *grid.NDGrid, gs *stencil.Generic, sched *Schedule, pool *par.Pool) error {
	if gs.Dims != g.D() {
		return fmt.Errorf("core: stencil dims %d != grid dims %d", gs.Dims, g.D())
	}
	for k := 0; k < g.D(); k++ {
		if g.Halo[k] < gs.Slopes[k] {
			return fmt.Errorf("core: grid halo %v < slopes %v", g.Halo, gs.Slopes)
		}
	}
	if err := checkSchedule(sched, g.Dims, gs.Slopes); err != nil {
		return err
	}
	return runND(g, gs, sched.steps, &sched.cfg, sched.regions, pool, nil)
}

// RunScheduledNDStop is RunScheduledND with a cooperative stop flag
// (see RunScheduled1DStop).
func RunScheduledNDStop(g *grid.NDGrid, gs *stencil.Generic, sched *Schedule, pool *par.Pool, stop *atomic.Bool) error {
	if gs.Dims != g.D() {
		return fmt.Errorf("core: stencil dims %d != grid dims %d", gs.Dims, g.D())
	}
	for k := 0; k < g.D(); k++ {
		if g.Halo[k] < gs.Slopes[k] {
			return fmt.Errorf("core: grid halo %v < slopes %v", g.Halo, gs.Slopes)
		}
	}
	if err := checkSchedule(sched, g.Dims, gs.Slopes); err != nil {
		return err
	}
	return runND(g, gs, sched.steps, &sched.cfg, sched.regions, pool, stop)
}

func runND(g *grid.NDGrid, gs *stencil.Generic, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool) error {
	flat := gs.FlatOffsets(g.Strides)
	d := g.D()
	pb := g.Step & 1 // buffer parity: current values live in Buf[pb]
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		// Grouped dispatch only (no bounds hoisting): the generic
		// executor stays the straightforward oracle the fast paths are
		// tested against.
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			lo := make([]int, d)
			hi := make([]int, d)
			p := make([]int, d)
			var pts, rows int64
			for bi := b0; bi < b1; bi++ {
				b := &r.Blocks[bi]
				for t := r.T0; t < r.T1; t++ {
					if !cfg.ClippedBounds(&r, b, t, lo, hi) {
						continue
					}
					if sp != nil {
						pts += boxVolume(lo, hi)
					}
					dst, src := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
					// The last dimension has unit stride, so hoist it out
					// of the odometer: one ApplyRow per contiguous row
					// instead of one Apply (and one g.Idx) per point.
					n := hi[d-1] - lo[d-1]
					copy(p, lo)
					for {
						gs.ApplyRow(dst, src, g.Idx(p), n, flat)
						rows++
						k := d - 2
						for ; k >= 0; k-- {
							p[k]++
							if p[k] < hi[k] {
								break
							}
							p[k] = lo[k]
						}
						if k < 0 {
							break
						}
					}
				}
			}
			sp.addPoints(wkr, pts)
			sp.addKernelCalls(wkr, rows, 0, 0)
		})
		sp.end(cfg, &r, ri)
	}
	g.Step += steps
	return nil
}

// checkSchedule verifies that a precomputed schedule exists and was
// built for the given grid shape and stencil slopes. The schedule's
// config was validated at construction, so only the match checks run.
func checkSchedule(sched *Schedule, n, slopes []int) error {
	if sched == nil {
		return fmt.Errorf("core: nil schedule")
	}
	if len(sched.cfg.N) != len(n) {
		return fmt.Errorf("core: schedule rank %d != grid rank %d", len(sched.cfg.N), len(n))
	}
	for k := range n {
		if sched.cfg.N[k] != n[k] {
			return fmt.Errorf("core: schedule N %v != grid extents %v", sched.cfg.N, n)
		}
		if sched.cfg.Slopes[k] != slopes[k] {
			return fmt.Errorf("core: schedule slopes %v != stencil slopes %v", sched.cfg.Slopes, slopes)
		}
	}
	return nil
}

// checkConfig verifies that cfg matches the grid shape and stencil
// slopes and is internally consistent.
func checkConfig(cfg *Config, n, slopes []int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(cfg.N) != len(n) {
		return fmt.Errorf("core: config rank %d != grid rank %d", len(cfg.N), len(n))
	}
	for k := range n {
		if cfg.N[k] != n[k] {
			return fmt.Errorf("core: config N %v != grid extents %v", cfg.N, n)
		}
		if cfg.Slopes[k] != slopes[k] {
			return fmt.Errorf("core: config slopes %v != stencil slopes %v", cfg.Slopes, slopes)
		}
	}
	return nil
}
