package core

import (
	"errors"
	"fmt"
	"strings"
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

// runArgs carries what tells the entry points of one dimension apart:
// a one-shot config and step count or (cfg == nil) a precomputed
// schedule, the stop flag, and the mask of a masked run.
type runArgs struct {
	cfg    *Config
	steps  int
	sched  *Schedule
	stop   *atomic.Bool
	m      *grid.Mask
	masked bool
}

// schedule validates the run's config or schedule against the grid
// extents n and the stencil slopes, and resolves what to replay.
func (a *runArgs) schedule(n, slopes []int) (*Config, []Region, int, error) {
	if a.cfg == nil {
		if err := checkSchedule(a.sched, n, slopes); err != nil {
			return nil, nil, 0, err
		}
		return &a.sched.cfg, a.sched.regions, a.sched.steps, nil
	}
	if err := checkConfig(a.cfg, n, slopes); err != nil {
		return nil, nil, 0, err
	}
	return a.cfg, a.cfg.Regions(a.steps), a.steps, nil
}

// stencilRun is one run of a single-stage spec or a fused pipeline,
// plain or masked: the validated schedule, the grid layout, the
// optional mask, the tile budget and the box op's resolved kernels.
type stencilRun struct {
	cfg       *Config
	regions   []Region
	steps     int
	stop      *atomic.Bool
	m         *grid.Mask
	d         int
	h, stride [3]int // zero past d
	path      stencil.Path
	budget    int // per-array tile budget of VisitBlocks
	bufs      *[2][]float64
	pb        int // buffer parity: current values live in bufs[pb]
	pool      *par.Pool
	// The kernel of the run's dimension, resolved on its tier.
	k1 stencil.Kernel1DBlock
	k2 stencil.Kernel2DBlock
	k3 stencil.Kernel3DBlock
	// pipe, when set, makes the box op a fused pipeline visit.
	pipe *pipeRun
}

// newStencilRun validates a run of spec s, which has a kernel of its
// dimension when hasKernel is set, on a grid of extents n and halos h
// whose buffer strides are stride.
func newStencilRun(a runArgs, s *stencil.Spec, hasKernel bool, n, h []int, stride [3]int) (*stencilRun, error) {
	d := len(n)
	if s.Dims != d || !hasKernel {
		return nil, fmt.Errorf("core: %s is not a %dD kernel", s.Name, d)
	}
	for k := range h {
		if h[k] >= s.Slopes[k] {
			continue
		}
		if d == 1 {
			return nil, fmt.Errorf("core: grid halo %d < slope %d", h[0], s.Slopes[0])
		}
		return nil, fmt.Errorf("core: grid halo (%s) < slopes %v", strings.Trim(strings.ReplaceAll(fmt.Sprint(h), " ", ","), "[]"), s.Slopes)
	}
	return a.newRun(n, h, s.Slopes, stride, TileBytes)
}

// newRun validates the run's schedule against the grid extents n and
// the slopes, and its mask, and samples the run's kernel path: once
// per run, so a concurrent SetKernelPath cannot mix dispatch shapes
// within a run.
func (a *runArgs) newRun(n, h, slopes []int, stride [3]int, budget int) (*stencilRun, error) {
	cfg, regions, steps, err := a.schedule(n, slopes)
	if err != nil {
		return nil, err
	}
	if a.masked {
		if err := checkMask(a.m, n); err != nil {
			return nil, err
		}
	}
	sr := &stencilRun{cfg: cfg, regions: regions, steps: steps, stop: a.stop, m: a.m, d: len(n), stride: stride, path: RunPath(), budget: budget}
	copy(sr.h[:], h)
	return sr, nil
}

// Run1D advances a 1D grid by steps time steps using the tessellation
// schedule. The grid's halo must be at least the stencil slope.
func Run1D(g *grid.Grid1D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool) error {
	return run1D(g, s, pool, runArgs{cfg: cfg, steps: steps})
}

// RunScheduled1D is Run1D replaying a precomputed Schedule: no region
// list is rebuilt, so a steady-state caller re-running one shape does
// no schedule work at all. Results are bitwise identical to Run1D with
// the schedule's config and step count.
func RunScheduled1D(g *grid.Grid1D, s *stencil.Spec, sched *Schedule, pool *par.Pool) error {
	return run1D(g, s, pool, runArgs{sched: sched})
}

// RunScheduled1DStop is RunScheduled1D with a cooperative stop flag
// checked between schedule replay regions: when stop is set, the run
// aborts with ErrStopped at the next region boundary (see ErrStopped
// for the grid contract). A nil stop behaves like RunScheduled1D.
func RunScheduled1DStop(g *grid.Grid1D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool) error {
	return run1D(g, s, pool, runArgs{sched: sched, stop: stop})
}

func run1D(g *grid.Grid1D, s *stencil.Spec, pool *par.Pool, a runArgs) error {
	sr, err := newStencilRun(a, s, s.K1 != nil, []int{g.N}, []int{g.H}, [3]int{1})
	if err != nil {
		return err
	}
	sr.k1, sr.path = s.Resolve1D(sr.path)
	return sr.run(&g.Buf, &g.Step, pool)
}

// Run2D advances a 2D grid by steps time steps using the tessellation
// schedule.
func Run2D(g *grid.Grid2D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool) error {
	return run2D(g, s, pool, runArgs{cfg: cfg, steps: steps})
}

// RunScheduled2D is Run2D replaying a precomputed Schedule (see
// RunScheduled1D).
func RunScheduled2D(g *grid.Grid2D, s *stencil.Spec, sched *Schedule, pool *par.Pool) error {
	return run2D(g, s, pool, runArgs{sched: sched})
}

// RunScheduled2DStop is RunScheduled2D with a cooperative stop flag
// (see RunScheduled1DStop).
func RunScheduled2DStop(g *grid.Grid2D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool) error {
	return run2D(g, s, pool, runArgs{sched: sched, stop: stop})
}

func run2D(g *grid.Grid2D, s *stencil.Spec, pool *par.Pool, a runArgs) error {
	sr, err := newStencilRun(a, s, s.K2 != nil, []int{g.NX, g.NY}, []int{g.HX, g.HY}, [3]int{g.SY, 1})
	if err != nil {
		return err
	}
	sr.k2, sr.path = s.Resolve2D(sr.path)
	return sr.run(&g.Buf, &g.Step, pool)
}

// Run3D advances a 3D grid by steps time steps using the tessellation
// schedule.
func Run3D(g *grid.Grid3D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool) error {
	return run3D(g, s, pool, runArgs{cfg: cfg, steps: steps})
}

// RunScheduled3D is Run3D replaying a precomputed Schedule (see
// RunScheduled1D).
func RunScheduled3D(g *grid.Grid3D, s *stencil.Spec, sched *Schedule, pool *par.Pool) error {
	return run3D(g, s, pool, runArgs{sched: sched})
}

// RunScheduled3DStop is RunScheduled3D with a cooperative stop flag
// (see RunScheduled1DStop).
func RunScheduled3DStop(g *grid.Grid3D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool) error {
	return run3D(g, s, pool, runArgs{sched: sched, stop: stop})
}

func run3D(g *grid.Grid3D, s *stencil.Spec, pool *par.Pool, a runArgs) error {
	sr, err := newStencilRun(a, s, s.K3 != nil, []int{g.NX, g.NY, g.NZ}, []int{g.HX, g.HY, g.HZ}, [3]int{g.SX, g.SY, 1})
	if err != nil {
		return err
	}
	sr.k3, sr.path = s.Resolve3D(sr.path)
	return sr.run(&g.Buf, &g.Step, pool)
}

// run replays the schedule on the grid buffers from time level *step,
// checking the stop flag at every region boundary, and advances *step
// when the run completes. Each dispatch group's boxes come from the
// shared block visit (VisitBlocks).
func (sr *stencilRun) run(bufs *[2][]float64, step *int, pool *par.Pool) error {
	sr.bufs, sr.pb, sr.pool = bufs, *step&1, pool
	for ri := range sr.regions {
		if stopped(sr.stop) {
			return ErrStopped
		}
		r := &sr.regions[ri]
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			var c visitCounts
			b0, b1 := r.Span(gi)
			var box Box
			sr.cfg.VisitBlocks(r, b0, b1, sr.budget, &box, func(t int) {
				switch {
				case sr.pipe != nil:
					sr.pipe.visit(wkr, t, &box.Lo, &box.Hi, &c)
				case sr.m != nil:
					sr.masked(t, &box.Lo, &box.Hi, &c)
				default:
					sr.kernel(t, &box.Lo, &box.Hi, &c)
				}
			})
			sp.add(wkr, &c)
		})
		sp.end(sr.cfg, r, ri)
	}
	*step += sr.steps
	return nil
}

// masked updates the active points of the non-empty box [lo, hi) at
// step t: the whole box when every point is active, nothing when none
// is, else one kernel call per maximal active run of the unit-stride
// dimension, which evaluates each active point with bitwise the
// arithmetic of the whole-box call.
func (sr *stencilRun) masked(t int, lo, hi *[3]int, c *visitCounts) {
	d, last := sr.d, sr.d-1
	switch act := sr.m.CountBox(lo[:d], hi[:d]); {
	case act == 0:
		return
	case int64(act) == boxVolume(lo[:d], hi[:d]):
		sr.kernel(t, lo, hi, c)
		return
	}
	eachRow(sr.cfg.N, d, lo, hi, func(row int, p [3]int) {
		q := p
		for k := 0; k < last; k++ {
			q[k]++
		}
		for a := lo[last]; ; {
			ra, rb := sr.m.NextRun(row, a, hi[last])
			if ra >= hi[last] {
				return
			}
			p[last], q[last] = ra, rb
			sr.kernel(t, &p, &q, c)
			a = rb
		}
	})
}

// kernel runs the resolved kernel on every point of the non-empty box
// [lo, hi) at step t, counting its points and its calls on the run's
// tier (per row or pencil on the row tier). Entries of lo and hi past
// d are zero, as are those of h and stride.
func (sr *stencilRun) kernel(t int, lo, hi *[3]int, c *visitCounts) {
	dst, src := sr.bufs[(t+sr.pb+1)&1], sr.bufs[(t+sr.pb)&1]
	h, st := &sr.h, &sr.stride
	base := (lo[0]+h[0])*st[0] + (lo[1]+h[1])*st[1] + (lo[2]+h[2])*st[2]
	n0, n1, n2 := hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2]
	var rows, pts int
	switch sr.d {
	case 1:
		sr.k1(dst, src, base, base+n0)
		rows, pts = 1, n0
	case 2:
		sr.k2(dst, src, base, n0, n1, st[0])
		rows, pts = n0, n0*n1
	default:
		sr.k3(dst, src, base, n0, n1, n2, st[1], st[0])
		rows, pts = n0*n1, n0*n1*n2
	}
	c.pts += int64(pts)
	if sr.path == stencil.PathRow {
		c.calls[stencil.PathRow] += int64(rows)
	} else {
		c.calls[sr.path]++
	}
}

// RunND advances an n-dimensional grid by steps time steps using the
// tessellation schedule with the generic stencil gs. It is the
// formula-driven executor covering any dimension (paper §3 in full
// generality); slower than the specialised ones but exercises the
// identical geometry.
func RunND(g *grid.NDGrid, gs *stencil.Generic, steps int, cfg *Config, pool *par.Pool) error {
	return runNDArgs(g, gs, pool, runArgs{cfg: cfg, steps: steps})
}

// RunScheduledND is RunND replaying a precomputed Schedule (see
// RunScheduled1D).
func RunScheduledND(g *grid.NDGrid, gs *stencil.Generic, sched *Schedule, pool *par.Pool) error {
	return runNDArgs(g, gs, pool, runArgs{sched: sched})
}

// RunScheduledNDStop is RunScheduledND with a cooperative stop flag
// (see RunScheduled1DStop).
func RunScheduledNDStop(g *grid.NDGrid, gs *stencil.Generic, sched *Schedule, pool *par.Pool, stop *atomic.Bool) error {
	return runNDArgs(g, gs, pool, runArgs{sched: sched, stop: stop})
}

// runNDArgs validates an ND run and runs it.
func runNDArgs(g *grid.NDGrid, gs *stencil.Generic, pool *par.Pool, a runArgs) error {
	if gs.Dims != g.D() {
		return fmt.Errorf("core: stencil dims %d != grid dims %d", gs.Dims, g.D())
	}
	for k := 0; k < g.D(); k++ {
		if g.Halo[k] < gs.Slopes[k] {
			return fmt.Errorf("core: grid halo %v < slopes %v", g.Halo, gs.Slopes)
		}
	}
	cfg, regions, steps, err := a.schedule(g.Dims, gs.Slopes)
	if err != nil {
		return err
	}
	return runND(g, gs, steps, cfg, regions, pool, a.stop)
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
			var c visitCounts
			for bi := b0; bi < b1; bi++ {
				b := &r.Blocks[bi]
				for t := r.T0; t < r.T1; t++ {
					if !cfg.ClippedBounds(&r, b, t, lo, hi) {
						continue
					}
					c.pts += boxVolume(lo, hi)
					dst, src := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
					// The last dimension has unit stride, so hoist it out
					// of the odometer: one ApplyRow per contiguous row
					// instead of one Apply (and one g.Idx) per point.
					n := hi[d-1] - lo[d-1]
					copy(p, lo)
					for {
						gs.ApplyRow(dst, src, g.Idx(p), n, flat)
						c.calls[stencil.PathRow]++
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
			sp.add(wkr, &c)
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
