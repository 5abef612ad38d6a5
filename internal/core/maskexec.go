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
// The masked entry points run the plain executors' block visits with
// the mask as the box op's classifier (stencilRun.masked): each visited
// box is classified by the mask's O(1) summed-area count; fully active
// boxes take the unchanged full-box dispatch, fully inactive boxes are
// skipped, and only mixed boxes pay for bitmap-guarded dispatch — one
// kernel call per maximal active run of the unit-stride dimension,
// which evaluates each active point with bitwise the arithmetic of the
// unmasked path.

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
	return run1D(g, s, pool, runArgs{cfg: cfg, steps: steps, m: m, masked: true})
}

// RunScheduledMasked1DStop is RunMasked1D replaying a precomputed
// Schedule with a cooperative stop flag (see RunScheduled1DStop).
func RunScheduledMasked1DStop(g *grid.Grid1D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	return run1D(g, s, pool, runArgs{sched: sched, stop: stop, m: m, masked: true})
}

// RunMasked2D advances the active points of a masked 2D grid by steps
// time steps using the tessellation schedule (see RunMasked1D).
func RunMasked2D(g *grid.Grid2D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	return run2D(g, s, pool, runArgs{cfg: cfg, steps: steps, m: m, masked: true})
}

// RunScheduledMasked2DStop is RunMasked2D replaying a precomputed
// Schedule with a cooperative stop flag (see RunScheduled1DStop).
func RunScheduledMasked2DStop(g *grid.Grid2D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	return run2D(g, s, pool, runArgs{sched: sched, stop: stop, m: m, masked: true})
}

// RunMasked3D advances the active points of a masked 3D grid by steps
// time steps using the tessellation schedule (see RunMasked1D).
func RunMasked3D(g *grid.Grid3D, s *stencil.Spec, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	return run3D(g, s, pool, runArgs{cfg: cfg, steps: steps, m: m, masked: true})
}

// RunScheduledMasked3DStop is RunMasked3D replaying a precomputed
// Schedule with a cooperative stop flag (see RunScheduled1DStop).
func RunScheduledMasked3DStop(g *grid.Grid3D, s *stencil.Spec, sched *Schedule, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	return run3D(g, s, pool, runArgs{sched: sched, stop: stop, m: m, masked: true})
}
