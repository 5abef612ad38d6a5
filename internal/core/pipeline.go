package core

import (
	"fmt"
	"sync/atomic"

	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
)

// Pipeline execution. A stencil.Pipeline's logical time step is a
// chain of atomic stages; the executors here fuse the whole chain into
// each block visit of the tessellation schedule, built for the
// pipeline's COMPOUND slope (the per-dimension sum of stage slopes).
//
// Geometry: let F be the box a single-stage schedule of the compound
// slope would write at this visit (Config.Bounds), and grow[i] the sum
// of the slopes of every stage after i (Pipeline.SuffixSlopes). Stage
// i executes on F inflated by grow[i] per side, clipped to the domain:
//
//   - the final stage (grow = 0) writes exactly F — the schedule's
//     proven exactly-once write set (Theorem 3.5);
//   - stage i's reads of stage j's output (j < i) are contained in
//     F+grow[j]: every intermediate read hits points THIS visit
//     already computed, so intermediates never cross visits;
//   - stage reads of the state land on F+grow[0] ⊆ the single-stage
//     read footprint of the compound slope, whose availability is the
//     schedule's proven correctness condition.
//
// Intermediates live in per-worker scratch buffers sharing the grid's
// exact layout (so stage kernels run unmodified with grid strides).
// Scratch is private to a worker and recomputed per visit: concurrent
// blocks share no intermediate state, so the fused run is race-free by
// construction — the overlap rings are recomputed instead of
// communicated, the standard trade of overlapped temporal blocking.
// Scratch halo cells (and, under a mask, inactive interior cells) are
// initialised to Pipeline.TmpHalo and never written, which is exactly
// the naive oracle's definition of an intermediate's out-of-domain
// value.

// checkPipeline validates p against the executor's dimensionality and
// returns the compound slopes.
func checkPipeline(p *stencil.Pipeline, dims int) ([]int, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Dims() != dims {
		return nil, fmt.Errorf("core: pipeline %s is %dD, not %dD", p.Name, p.Dims(), dims)
	}
	return p.Slopes(), nil
}

// newScratch allocates per-worker intermediate buffers in the grid's
// layout, pre-filled with the pipeline's TmpHalo value.
func newScratch(workers, nTmp, buflen int, halo float64) [][][]float64 {
	scratch := make([][][]float64, workers)
	for w := range scratch {
		scratch[w] = make([][]float64, nTmp)
		for j := range scratch[w] {
			s := make([]float64, buflen)
			if halo != 0 {
				for i := range s {
					s[i] = halo
				}
			}
			scratch[w][j] = s
		}
	}
	return scratch
}

// pickSlot resolves a stage input slot to its backing buffer.
func pickSlot(slot int, scr [][]float64, srcBuf, dstBuf []float64) []float64 {
	switch slot {
	case stencil.PrevState:
		return dstBuf
	case 0:
		return srcBuf
	default:
		return scr[slot-1]
	}
}

// RunPipeline1D advances a 1D grid by steps logical time steps of the
// pipeline, fusing all stages inside each block visit. The grid halo
// and cfg.Slopes must match the pipeline's compound slope. A non-nil
// mask restricts every stage to its active points (see RunMasked1D).
func RunPipeline1D(g *grid.Grid1D, p *stencil.Pipeline, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	slopes, err := checkPipeline(p, 1)
	if err != nil {
		return err
	}
	if g.H < slopes[0] {
		return fmt.Errorf("core: grid halo %d < compound slope %d", g.H, slopes[0])
	}
	if err := checkConfig(cfg, []int{g.N}, slopes); err != nil {
		return err
	}
	if m != nil {
		if err := checkMask(m, []int{g.N}); err != nil {
			return err
		}
	}
	return runPipeline1D(g, p, steps, cfg, cfg.Regions(steps), pool, nil, m)
}

func runPipeline1D(g *grid.Grid1D, p *stencil.Pipeline, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	h := g.H
	pth := RunPath()
	nst := len(p.Stages)
	kern := make([]stencil.Kernel1DBlock, nst)
	kpath := make([]stencil.Path, nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			kern[i], kpath[i] = st.Spec.Resolve1D(pth)
		}
	}
	grow := p.SuffixSlopes()
	scratch := newScratch(pool.Workers(), nst-1, len(g.Buf[0]), p.TmpHalo)
	pb := g.Step & 1
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			scr := scratch[wkr]
			var flo, fhi, clo, chi, slo, shi [1]int
			var pts, rows, blocks, simds int64
			for t := r.T0; t < r.T1; t++ {
				dstBuf, srcBuf := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				for bi := b0; bi < b1; bi++ {
					cfg.Bounds(&r, &r.Blocks[bi], t, flo[:], fhi[:])
					clo[0], chi[0] = flo[0], fhi[0]
					if !ClipBox(clo[:], chi[:], cfg.N) {
						continue
					}
					if m != nil {
						n := m.CountBox(clo[:], chi[:])
						if n == 0 {
							continue
						}
						if sp != nil {
							pts += int64(n)
						}
					} else if sp != nil {
						pts += int64(chi[0] - clo[0])
					}
					for i := 0; i < nst; i++ {
						st := &p.Stages[i]
						slo[0], shi[0] = flo[0]-grow[i][0], fhi[0]+grow[i][0]
						if !ClipBox(slo[:], shi[:], cfg.N) {
							continue
						}
						out := dstBuf
						if i < nst-1 {
							out = scr[i]
						}
						run := func(a, b int) {
							if st.Spec != nil {
								in := pickSlot(st.In, scr, srcBuf, dstBuf)
								kern[i](out, in, a+h, b+h)
								switch kpath[i] {
								case stencil.PathSIMD:
									simds++
								case stencil.PathBlock:
									blocks++
								default:
									rows++
								}
								return
							}
							ia := pickSlot(st.In, scr, srcBuf, dstBuf)
							ib := pickSlot(st.InB, scr, srcBuf, dstBuf)
							stencil.BlendRow(out, ia, st.A, ib, st.B, a+h, b+h)
						}
						if m == nil {
							run(slo[0], shi[0])
							continue
						}
						n := m.CountBox(slo[:], shi[:])
						if n == 0 {
							continue
						}
						if n == shi[0]-slo[0] {
							run(slo[0], shi[0])
							continue
						}
						for a := slo[0]; ; {
							ra, rb := m.NextRun(0, a, shi[0])
							if ra >= shi[0] {
								break
							}
							run(ra, rb)
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

// RunPipeline2D advances a 2D grid by steps logical time steps of the
// pipeline (see RunPipeline1D).
func RunPipeline2D(g *grid.Grid2D, p *stencil.Pipeline, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	slopes, err := checkPipeline(p, 2)
	if err != nil {
		return err
	}
	if g.HX < slopes[0] || g.HY < slopes[1] {
		return fmt.Errorf("core: grid halo (%d,%d) < compound slopes %v", g.HX, g.HY, slopes)
	}
	if err := checkConfig(cfg, []int{g.NX, g.NY}, slopes); err != nil {
		return err
	}
	if m != nil {
		if err := checkMask(m, []int{g.NX, g.NY}); err != nil {
			return err
		}
	}
	return runPipeline2D(g, p, steps, cfg, cfg.Regions(steps), pool, nil, m)
}

func runPipeline2D(g *grid.Grid2D, p *stencil.Pipeline, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	pth := RunPath()
	nst := len(p.Stages)
	kern := make([]stencil.Kernel2DBlock, nst)
	kpath := make([]stencil.Path, nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			kern[i], kpath[i] = st.Spec.Resolve2D(pth)
		}
	}
	grow := p.SuffixSlopes()
	scratch := newScratch(pool.Workers(), nst-1, len(g.Buf[0]), p.TmpHalo)
	pb := g.Step & 1
	for ri, r := range regions {
		if stopped(stop) {
			return ErrStopped
		}
		r := r
		sp := beginRegion()
		pool.ForSticky(r.Tasks(), func(gi, wkr int) {
			b0, b1 := r.Span(gi)
			scr := scratch[wkr]
			var flo, fhi, clo, chi, slo, shi [2]int
			var pts, rows, blocks, simds int64
			for t := r.T0; t < r.T1; t++ {
				dstBuf, srcBuf := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				for bi := b0; bi < b1; bi++ {
					cfg.Bounds(&r, &r.Blocks[bi], t, flo[:], fhi[:])
					copy(clo[:], flo[:])
					copy(chi[:], fhi[:])
					if !ClipBox(clo[:], chi[:], cfg.N) {
						continue
					}
					if m != nil {
						n := m.CountBox(clo[:], chi[:])
						if n == 0 {
							continue
						}
						if sp != nil {
							pts += int64(n)
						}
					} else if sp != nil {
						pts += int64(chi[0]-clo[0]) * int64(chi[1]-clo[1])
					}
					for i := 0; i < nst; i++ {
						st := &p.Stages[i]
						for k := 0; k < 2; k++ {
							slo[k], shi[k] = flo[k]-grow[i][k], fhi[k]+grow[i][k]
						}
						if !ClipBox(slo[:], shi[:], cfg.N) {
							continue
						}
						out := dstBuf
						if i < nst-1 {
							out = scr[i]
						}
						run := func(x0, y0, nx, ny int) {
							base := g.Idx(x0, y0)
							if st.Spec != nil {
								in := pickSlot(st.In, scr, srcBuf, dstBuf)
								kern[i](out, in, base, nx, ny, g.SY)
								switch kpath[i] {
								case stencil.PathSIMD:
									simds++
								case stencil.PathBlock:
									blocks++
								default:
									rows += int64(nx)
								}
								return
							}
							ia := pickSlot(st.In, scr, srcBuf, dstBuf)
							ib := pickSlot(st.InB, scr, srcBuf, dstBuf)
							for x := 0; x < nx; x++ {
								stencil.BlendRow(out, ia, st.A, ib, st.B, base, base+ny)
								base += g.SY
							}
						}
						if m == nil {
							run(slo[0], slo[1], shi[0]-slo[0], shi[1]-slo[1])
							continue
						}
						n := m.CountBox(slo[:], shi[:])
						if n == 0 {
							continue
						}
						if n == (shi[0]-slo[0])*(shi[1]-slo[1]) {
							run(slo[0], slo[1], shi[0]-slo[0], shi[1]-slo[1])
							continue
						}
						for x := slo[0]; x < shi[0]; x++ {
							for a := slo[1]; ; {
								ra, rb := m.NextRun(x, a, shi[1])
								if ra >= shi[1] {
									break
								}
								run(x, ra, 1, rb-ra)
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

// RunPipeline3D advances a 3D grid by steps logical time steps of the
// pipeline (see RunPipeline1D).
func RunPipeline3D(g *grid.Grid3D, p *stencil.Pipeline, steps int, cfg *Config, pool *par.Pool, m *grid.Mask) error {
	slopes, err := checkPipeline(p, 3)
	if err != nil {
		return err
	}
	if g.HX < slopes[0] || g.HY < slopes[1] || g.HZ < slopes[2] {
		return fmt.Errorf("core: grid halo (%d,%d,%d) < compound slopes %v", g.HX, g.HY, g.HZ, slopes)
	}
	if err := checkConfig(cfg, []int{g.NX, g.NY, g.NZ}, slopes); err != nil {
		return err
	}
	if m != nil {
		if err := checkMask(m, []int{g.NX, g.NY, g.NZ}); err != nil {
			return err
		}
	}
	return runPipeline3D(g, p, steps, cfg, cfg.Regions(steps), pool, nil, m)
}

func runPipeline3D(g *grid.Grid3D, p *stencil.Pipeline, steps int, cfg *Config, regions []Region, pool *par.Pool, stop *atomic.Bool, m *grid.Mask) error {
	pth := RunPath()
	nst := len(p.Stages)
	kern := make([]stencil.Kernel3DBlock, nst)
	kpath := make([]stencil.Path, nst)
	for i, st := range p.Stages {
		if st.Spec != nil {
			kern[i], kpath[i] = st.Spec.Resolve3D(pth)
		}
	}
	grow := p.SuffixSlopes()
	scratch := newScratch(pool.Workers(), nst-1, len(g.Buf[0]), p.TmpHalo)
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
			scr := scratch[wkr]
			var flo, fhi, clo, chi, slo, shi [3]int
			var pts, rows, blocks, simds int64
			for t := r.T0; t < r.T1; t++ {
				dstBuf, srcBuf := g.Buf[(t+pb+1)&1], g.Buf[(t+pb)&1]
				for bi := b0; bi < b1; bi++ {
					cfg.Bounds(&r, &r.Blocks[bi], t, flo[:], fhi[:])
					copy(clo[:], flo[:])
					copy(chi[:], fhi[:])
					if !ClipBox(clo[:], chi[:], cfg.N) {
						continue
					}
					if m != nil {
						n := m.CountBox(clo[:], chi[:])
						if n == 0 {
							continue
						}
						if sp != nil {
							pts += int64(n)
						}
					} else if sp != nil {
						pts += int64(chi[0]-clo[0]) * int64(chi[1]-clo[1]) * int64(chi[2]-clo[2])
					}
					for i := 0; i < nst; i++ {
						st := &p.Stages[i]
						for k := 0; k < 3; k++ {
							slo[k], shi[k] = flo[k]-grow[i][k], fhi[k]+grow[i][k]
						}
						if !ClipBox(slo[:], shi[:], cfg.N) {
							continue
						}
						out := dstBuf
						if i < nst-1 {
							out = scr[i]
						}
						run := func(x0, y0, z0, nx, nyy, nz int) {
							xBase := g.Idx(x0, y0, z0)
							if st.Spec != nil {
								in := pickSlot(st.In, scr, srcBuf, dstBuf)
								kern[i](out, in, xBase, nx, nyy, nz, g.SY, g.SX)
								switch kpath[i] {
								case stencil.PathSIMD:
									simds++
								case stencil.PathBlock:
									blocks++
								default:
									rows += int64(nx) * int64(nyy)
								}
								return
							}
							ia := pickSlot(st.In, scr, srcBuf, dstBuf)
							ib := pickSlot(st.InB, scr, srcBuf, dstBuf)
							for x := 0; x < nx; x++ {
								base := xBase
								for y := 0; y < nyy; y++ {
									stencil.BlendRow(out, ia, st.A, ib, st.B, base, base+nz)
									base += g.SY
								}
								xBase += g.SX
							}
						}
						if m == nil {
							run(slo[0], slo[1], slo[2], shi[0]-slo[0], shi[1]-slo[1], shi[2]-slo[2])
							continue
						}
						n := m.CountBox(slo[:], shi[:])
						if n == 0 {
							continue
						}
						if n == (shi[0]-slo[0])*(shi[1]-slo[1])*(shi[2]-slo[2]) {
							run(slo[0], slo[1], slo[2], shi[0]-slo[0], shi[1]-slo[1], shi[2]-slo[2])
							continue
						}
						for x := slo[0]; x < shi[0]; x++ {
							for y := slo[1]; y < shi[1]; y++ {
								row := x*ny + y
								for a := slo[2]; ; {
									ra, rb := m.NextRun(row, a, shi[2])
									if ra >= shi[2] {
										break
									}
									run(x, y, ra, 1, 1, rb-ra)
									a = rb
								}
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
