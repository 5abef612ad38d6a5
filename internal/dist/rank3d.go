package dist

import (
	"fmt"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/stencil"
)

// Rank3D executes one share of a distributed 3D tessellation run,
// slab-decomposed along x exactly like Rank; strips are y-z planes.
type Rank3D struct {
	slab
	spec  *stencil.Spec
	local *grid.Grid3D
	kern  stencil.Kernel3DBlock // the running tier, resolved per Run
}

// NewRank3D prepares rank id of nranks for the global 3D configuration.
func NewRank3D(id, nranks int, tr Transport, cfg *core.Config, spec *stencil.Spec, workers int) (*Rank3D, error) {
	if spec.Dims != 3 || spec.K3 == nil {
		return nil, fmt.Errorf("dist: %s is not a 3D kernel", spec.Name)
	}
	r := &Rank3D{spec: spec}
	if err := r.slab.init(id, nranks, tr, cfg, workers); err != nil {
		return nil, err
	}
	p := r.part
	r.local = grid.NewGrid3D(p.ExtLo+p.Width()+p.ExtHi, cfg.N[1], cfg.N[2], spec.Slopes[0], spec.Slopes[1], spec.Slopes[2])
	// One plane = the full padded y-z slab footprint, so copyStrip can
	// copy whole plane rows including stencil halos.
	r.ex = newExchanger(tr, id, nranks, p, r.h, 2*r.h*r.local.SX, r.copyStrip)
	r.box = r.runBox
	return r, nil
}

// Scatter loads the rank's slab from a full copy of the initial grid.
func (r *Rank3D) Scatter(global *grid.Grid3D) error {
	if global.NX != r.cfg.N[0] || global.NY != r.cfg.N[1] || global.NZ != r.cfg.N[2] {
		return fmt.Errorf("dist: global grid %dx%dx%d != config %v", global.NX, global.NY, global.NZ, r.cfg.N)
	}
	lg := r.local
	for xl := -lg.HX; xl < lg.NX+lg.HX; xl++ {
		gx := r.xbase + xl
		if gx < -global.HX {
			gx = -global.HX
		}
		if gx >= global.NX+global.HX {
			gx = global.NX + global.HX - 1
		}
		for y := -lg.HY; y < lg.NY+lg.HY; y++ {
			for z := -lg.HZ; z < lg.NZ+lg.HZ; z++ {
				i := lg.Idx(xl, y, z)
				j := global.Idx(gx, y, z)
				lg.Buf[0][i] = global.Buf[0][j]
				lg.Buf[1][i] = global.Buf[1][j]
			}
		}
	}
	lg.Step = global.Step
	return nil
}

// Territory copies the rank's owned values into a full-size grid.
func (r *Rank3D) Territory(dst *grid.Grid3D) {
	for x := r.part.X0; x < r.part.X1; x++ {
		for y := 0; y < r.cfg.N[1]; y++ {
			src := r.local.Idx(x-r.xbase, y, 0)
			d := dst.Idx(x, y, 0)
			copy(dst.Buf[dst.Step&1][d:d+r.cfg.N[2]], r.local.Buf[r.local.Step&1][src:src+r.cfg.N[2]])
		}
	}
}

// Run advances the rank's slab by steps time steps (see Rank.Run).
func (r *Rank3D) Run(steps int) error {
	var path stencil.Path
	r.kern, path = r.spec.Resolve3D(core.RunPath())
	return r.run(steps, path, &r.local.Step)
}

// runBox executes one clipped block box at parity-adjusted step t.
func (r *Rank3D) runBox(t int, lo, hi [3]int) {
	lg := r.local
	r.kern(lg.Buf[(t+1)&1], lg.Buf[t&1], lg.Idx(lo[0]-r.xbase, lo[1], lo[2]),
		hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2], lg.SY, lg.SX)
}

// copyStrip copies h whole x-planes (both parity buffers) starting at
// global column gx0 into buf when pack is set, else back out of it.
func (r *Rank3D) copyStrip(gx0 int, buf []float64, pack bool) {
	lg := r.local
	planeLen := lg.SX
	k := 0
	for p := 0; p < 2; p++ {
		for x := gx0; x < gx0+r.h; x++ {
			// Plane base including y/z halos.
			base := lg.Idx(x-r.xbase, -lg.HY, -lg.HZ)
			if pack {
				copy(buf[k:k+planeLen], lg.Buf[p][base:base+planeLen])
			} else {
				copy(lg.Buf[p][base:base+planeLen], buf[k:k+planeLen])
			}
			k += planeLen
		}
	}
}
