package core

import (
	"fmt"
	"math"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Pipeline execution. A stencil.Pipeline's logical time step is a
// chain of atomic stages; the executors fuse the whole chain into
// each box of the shared block visit (VisitBlocks), whose schedule and
// tiles are built for the pipeline's COMPOUND slope (the
// per-dimension sum of stage slopes): a pipeline run is a stencilRun
// whose box op runs every stage of one tile-step box.
//
// Geometry: let F be the clipped box the visit hands the op — the box
// a single-stage schedule of the compound slope writes at that step,
// cut to its tile — and grow[i] the sum of the slopes of every stage
// after i (Pipeline.SuffixSlopes). Stage i's box is F inflated by
// grow[i] per side, clipped to the domain:
//
//   - the final stage (grow = 0) writes exactly F — the schedule's
//     proven exactly-once write set (Theorem 3.5);
//   - stage i's reads of stage j's output (j < i) fall inside stage
//     j's box or the halo beyond the domain, so intermediates never
//     cross boxes;
//   - stage reads of the state land on F+grow[0] ⊆ the single-stage
//     read footprint of the compound slope, and PrevState is read
//     pointwise by the final blend only (Validate), so on the state
//     buffers the op is one stage of the compound slope and the
//     visit's dependence argument holds unchanged.
//
// Tiles: a block whose step box outgrows pipeTileBytes per array runs
// as the visit's time-skewed tiles, so a tile's state, intermediates
// and output stay in a private cache across the block's steps. Each
// tile-step box recomputes its own overlap rings (stage i's box
// exceeds F by grow[i]); tess_pipeline_recomputed_points_total counts
// them.
//
// Windows: intermediates live in block windows — one per worker and
// intermediate, owned by the par.Pool and reused across runs. A window
// spans stage 0's box in dimension 0 (at most the tile width plus
// 2*grow[0]) plus the grid halo on each side, times the plane stride.
// Every stage slot is rebased by the same offset (buf[off:], base-off),
// so the stencil kernels run unmodified with grid strides. That needs
// every stencil stage Relocatable: a kernel that reads data of its own
// by the flat index (a coefficient field laid out like the grid) must
// see absolute indices, so for such pipelines each window spans the
// whole grid buffer at offset 0, still allocated once per pool.
//
// Invariant: on every cell a later stage may read, the window holds
// what the naive oracle's full-grid intermediate holds there — the
// stage's value on active cells, TmpHalo elsewhere.
// A box therefore writes TmpHalo into the inactive runs and empty
// sub-boxes of an intermediate stage's box that a later stencil stage
// can reach (see rad) and into the out-of-domain dimension-0 rows a
// boundary box exposes; the halo columns of the other dimensions
// are never written and are filled once, when the window is allocated
// or the TmpHalo or grid layout changes.
//
// Windows are private to a worker, so concurrent blocks share no
// intermediate state and the fused run is race-free by construction:
// the overlap rings are recomputed instead of communicated, the
// standard trade of overlapped temporal blocking.

// pipeTileBytes is the per-array tile budget of a pipeline run: with
// the state, the intermediates and the output each holding a tile step
// box plus its rings, a tile's live data stays in a private L2.
const pipeTileBytes = 128 << 10

// pipeRun is what a fused pipeline run adds to its stencilRun: the
// resolved stages, shared by every box.
type pipeRun struct {
	*stencilRun
	p    *stencil.Pipeline
	nst  int
	grow [][]int
	// reloc: every stencil stage is Relocatable, so the windows follow
	// stage 0's box; otherwise they span the whole grid buffer and the
	// kernels see the absolute flat indices.
	reloc bool
	// rad[j] is the read radius of intermediate j: the largest slope
	// of a later stencil stage reading it. Only its inactive cells
	// within rad of an active cell can be read, so an intermediate read
	// pointwise alone (rad 0) needs no TmpHalo writes at all.
	rad [][3]int
	// box runs stencil stage i's kernel on the box of extent ext whose
	// first point is buffer index base (the per-dimension box op).
	box   func(i int, out, in []float64, base int, ext [3]int)
	kpath []stencil.Path
	blend stencil.BlendKernel
	bpath stencil.Path
	tag   windowTag
}

// windowTag is what a worker's windows hold on cells no visit writes:
// TmpHalo, in the buffer layout of given halos and strides.
type windowTag struct {
	halo      uint64
	h, stride [3]int
}

// pipeSlots are a visit's stage buffers, rebased by off.
type pipeSlots struct {
	src, dst []float64
	win      [][]float64
	off      int
}

// pick resolves a stage input slot to its buffer.
func (s *pipeSlots) pick(slot int) []float64 {
	switch slot {
	case stencil.PrevState:
		return s.dst
	case 0:
		return s.src
	}
	return s.win[slot-1]
}

// newPipeRun validates a run of steps logical steps against the grid
// extents n and halos h and prepares everything but the per-dimension
// box op.
func newPipeRun(p *stencil.Pipeline, steps int, cfg *Config, m *grid.Mask, n []int, h, stride [3]int) (*pipeRun, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := len(n)
	if p.Dims() != d {
		return nil, fmt.Errorf("core: pipeline %s is %dD, not %dD", p.Name, p.Dims(), d)
	}
	slopes := p.Slopes()
	for k, s := range slopes {
		if h[k] < s {
			return nil, fmt.Errorf("core: grid halo %v < compound slopes %v", append([]int(nil), h[:d]...), slopes)
		}
	}
	a := runArgs{cfg: cfg, steps: steps, m: m, masked: m != nil}
	sr, err := a.newRun(n, h[:d], slopes, stride, pipeTileBytes)
	if err != nil {
		return nil, err
	}
	pr := &pipeRun{stencilRun: sr, p: p, nst: len(p.Stages), grow: p.SuffixSlopes(),
		kpath: make([]stencil.Path, len(p.Stages)),
		tag:   windowTag{halo: math.Float64bits(p.TmpHalo), h: h, stride: stride}}
	sr.pipe = pr
	pr.blend, pr.bpath = stencil.ResolveBlend(pr.path)
	pr.rad, pr.reloc = make([][3]int, pr.nst), true
	for _, st := range p.Stages {
		if st.Spec != nil {
			pr.reloc = pr.reloc && st.Spec.Relocatable
		}
		if st.Spec != nil && st.In > 0 {
			for k, s := range st.Spec.Slopes {
				pr.rad[st.In-1][k] = max(pr.rad[st.In-1][k], s)
			}
		}
	}
	return pr, nil
}

// RunPipeline1D advances a 1D grid by steps logical time steps of the
// pipeline, fusing all stages inside each box of the block visit. The
// grid halo and cfg.Slopes must match the pipeline's compound slope. A
// non-nil mask restricts every stage to its active points (see
// RunMasked1D).
func RunPipeline1D(g *grid.Grid1D, p *stencil.Pipeline, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	pr, err := newPipeRun(p, steps, cfg, m, []int{g.N}, [3]int{g.H}, [3]int{1})
	if err != nil {
		return err
	}
	kern := make([]stencil.Kernel1DBlock, pr.nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			kern[i], pr.kpath[i] = st.Spec.Resolve1D(pr.path)
		}
	}
	pr.box = func(i int, out, in []float64, base int, e [3]int) { kern[i](out, in, base, base+e[0]) }
	return pr.run(&g.Buf, &g.Step, pool)
}

// RunPipeline2D advances a 2D grid by steps logical time steps of the
// pipeline (see RunPipeline1D).
func RunPipeline2D(g *grid.Grid2D, p *stencil.Pipeline, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	pr, err := newPipeRun(p, steps, cfg, m, []int{g.NX, g.NY}, [3]int{g.HX, g.HY}, [3]int{g.SY, 1})
	if err != nil {
		return err
	}
	kern := make([]stencil.Kernel2DBlock, pr.nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			kern[i], pr.kpath[i] = st.Spec.Resolve2D(pr.path)
		}
	}
	sy := g.SY
	pr.box = func(i int, out, in []float64, base int, e [3]int) { kern[i](out, in, base, e[0], e[1], sy) }
	return pr.run(&g.Buf, &g.Step, pool)
}

// RunPipeline3D advances a 3D grid by steps logical time steps of the
// pipeline (see RunPipeline1D).
func RunPipeline3D(g *grid.Grid3D, p *stencil.Pipeline, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	pr, err := newPipeRun(p, steps, cfg, m, []int{g.NX, g.NY, g.NZ}, [3]int{g.HX, g.HY, g.HZ}, [3]int{g.SX, g.SY, 1})
	if err != nil {
		return err
	}
	kern := make([]stencil.Kernel3DBlock, pr.nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			kern[i], pr.kpath[i] = st.Spec.Resolve3D(pr.path)
		}
	}
	sy, sx := g.SY, g.SX
	pr.box = func(i int, out, in []float64, base int, e [3]int) { kern[i](out, in, base, e[0], e[1], e[2], sy, sx) }
	return pr.run(&g.Buf, &g.Step, pool)
}

// stageBox sets [lo, hi) to stage i's box for the final box
// [flo, fhi): F grown by grow[i], clipped to the domain.
func (pr *pipeRun) stageBox(i int, flo, fhi, lo, hi *[3]int) {
	for k := 0; k < pr.d; k++ {
		lo[k] = max(flo[k]-pr.grow[i][k], 0)
		hi[k] = min(fhi[k]+pr.grow[i][k], pr.cfg.N[k])
	}
}

// visit runs every stage of one tile-step box — the non-empty final
// box [lo, hi) at step t — in worker wkr's windows.
func (pr *pipeRun) visit(wkr, t int, lo, hi *[3]int, c *visitCounts) {
	d, n := pr.d, pr.cfg.N
	final := boxVolume(lo[:d], hi[:d])
	if pr.m != nil {
		if final = int64(pr.m.CountBox(lo[:d], hi[:d])); final == 0 {
			return
		}
	}
	c.pts += final
	c.recomp -= int64(pr.nst-1) * final // apply adds every intermediate point
	src, dst := pr.bufs[(t+pr.pb)&1], pr.bufs[(t+pr.pb+1)&1]
	var l, u [3]int
	pr.stageBox(0, lo, hi, &l, &u)
	h0, plane := pr.h[0], pr.stride[0]
	base, size := -h0, len(src) // domain row of window row 0; length
	if pr.reloc {
		base, size = l[0]-h0, (u[0]-l[0]+2*h0)*plane
	}
	sl := pipeSlots{off: (base + h0) * plane}
	sl.src, sl.dst = src[sl.off:], dst[sl.off:]
	if pr.nst > 1 {
		s := pr.pool.Scratch(wkr, pr.nst-1, size)
		if s.Tag != pr.tag {
			for _, b := range s.Bufs {
				fill(b, pr.p.TmpHalo)
			}
			s.Tag = pr.tag
		}
		sl.win = s.Bufs[:pr.nst-1]
		// Window row r is domain row base+r. Rows below h0 lie under
		// every box's stages and keep their TmpHalo; the rows past the
		// domain's end may hold another box's values.
		top := (n[0] - base) * plane
		for j := range sl.win {
			if pr.rad[j][0] > 0 && u[0] == n[0] {
				fill(sl.win[j][top:top+h0*plane], pr.p.TmpHalo)
			}
		}
	}
	for i := 0; i < pr.nst; i++ {
		pr.stageBox(i, lo, hi, &l, &u)
		pr.stage(i, &sl, &l, &u, c)
	}
}

// stage runs stage i on the non-empty box [lo, hi). Under a mask only
// active cells get the stage's value; an intermediate's inactive cells
// get TmpHalo, which is what the naive oracle holds there.
func (pr *pipeRun) stage(i int, sl *pipeSlots, lo, hi *[3]int, c *visitCounts) {
	if pr.m == nil {
		pr.apply(i, sl, lo, hi, c)
		return
	}
	d, last := pr.d, pr.d-1
	act := pr.m.CountBox(lo[:d], hi[:d])
	if int64(act) == boxVolume(lo[:d], hi[:d]) {
		pr.apply(i, sl, lo, hi, c)
		return
	}
	var out []float64 // the window that needs TmpHalo on inactive cells
	if i < pr.nst-1 && pr.rad[i] != [3]int{} {
		out = sl.win[i]
	}
	if act == 0 {
		il, iu := *lo, *hi
		for k := 0; k < d; k++ {
			il[k], iu[k] = max(lo[k]-pr.rad[i][k], 0), min(hi[k]+pr.rad[i][k], pr.cfg.N[k])
		}
		if out == nil || pr.m.CountBox(il[:d], iu[:d]) == 0 {
			return // no active cell reads this box
		}
	}
	eachRow(pr.cfg.N, pr.d, lo, hi, func(row int, p [3]int) {
		rl, ru := p, p
		for k := 0; k < last; k++ {
			ru[k]++
		}
		for a := lo[last]; a < hi[last]; {
			ra, rb := hi[last], hi[last]
			if act > 0 {
				ra, rb = pr.m.NextRun(row, a, hi[last])
			}
			if out != nil && ra > a {
				rl[last] = a
				b := pr.idx(&rl) - sl.off
				fill(out[b:b+ra-a], pr.p.TmpHalo)
			}
			if ra >= hi[last] {
				return
			}
			rl[last], ru[last] = ra, rb
			pr.apply(i, sl, &rl, &ru, c)
			a = rb
		}
	})
}

// apply runs stage i over every cell of the non-empty box [lo, hi).
func (pr *pipeRun) apply(i int, sl *pipeSlots, lo, hi *[3]int, c *visitCounts) {
	st := &pr.p.Stages[i]
	out := sl.dst
	if i < pr.nst-1 {
		out = sl.win[i]
	}
	var ext [3]int
	rows := int64(1)
	for k := 0; k < pr.d; k++ {
		ext[k] = hi[k] - lo[k]
		if k < pr.d-1 {
			rows *= int64(ext[k])
		}
	}
	if i < pr.nst-1 {
		c.recomp += rows * int64(ext[pr.d-1])
	}
	if st.Spec != nil {
		pr.box(i, out, sl.pick(st.In), pr.idx(lo)-sl.off, ext)
		if pr.kpath[i] == stencil.PathRow {
			c.calls[stencil.PathRow] += rows
		} else {
			c.calls[pr.kpath[i]]++
		}
		return
	}
	ia, ib, n := sl.pick(st.In), sl.pick(st.InB), ext[pr.d-1]
	eachRow(pr.cfg.N, pr.d, lo, hi, func(_ int, p [3]int) {
		b := pr.idx(&p) - sl.off
		pr.blend(out, ia, st.A, ib, st.B, b, b+n)
	})
	c.calls[pr.bpath] += rows
}

// eachRow calls fn for every unit-stride row of the d-dimensional box
// [lo, hi) in a domain of extents n, with the row's mask index and its
// start point p (p[d-1] == lo[d-1]).
func eachRow(n []int, d int, lo, hi *[3]int, fn func(row int, p [3]int)) {
	p := *lo
	for {
		row := 0
		for k := 0; k < d-1; k++ {
			row = row*n[k] + p[k]
		}
		fn(row, p)
		k := d - 2
		for ; k >= 0; k-- {
			if p[k]++; p[k] < hi[k] {
				break
			}
			p[k] = lo[k]
		}
		if k < 0 {
			return
		}
	}
}

// idx returns the buffer index of domain point p.
func (pr *pipeRun) idx(p *[3]int) int {
	i := 0
	for k := 0; k < pr.d; k++ {
		i += (p[k] + pr.h[k]) * pr.stride[k]
	}
	return i
}

// fill sets every element of s to v.
func fill(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}
