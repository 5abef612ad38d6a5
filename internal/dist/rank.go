package dist

import (
	"fmt"
	"strconv"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// Partition describes one rank's share of the global x range.
type Partition struct {
	X0, X1 int // territory [X0, X1)
	ExtLo  int // exchange-halo width below X0 (clipped at the domain)
	ExtHi  int // exchange-halo width above X1
}

// Width returns the territory width.
func (p Partition) Width() int { return p.X1 - p.X0 }

// Slabs partitions [0, nx) into nranks contiguous slabs and attaches
// exchange halos of width h. Every interior slab must be at least h
// wide (a rank only talks to its immediate neighbours).
func Slabs(nx, nranks, h int) ([]Partition, error) {
	if nranks < 1 {
		return nil, fmt.Errorf("dist: nranks=%d", nranks)
	}
	if nx/nranks < h && nranks > 1 {
		return nil, fmt.Errorf("dist: slab width %d < exchange halo %d; use fewer ranks or smaller blocks", nx/nranks, h)
	}
	parts := make([]Partition, nranks)
	for r := 0; r < nranks; r++ {
		x0 := r * nx / nranks
		x1 := (r + 1) * nx / nranks
		parts[r] = Partition{
			X0:    x0,
			X1:    x1,
			ExtLo: min(h, x0),
			ExtHi: min(h, nx-x1),
		}
	}
	return parts, nil
}

// slab is the dimension-agnostic half of a rank, shared by Rank and
// Rank3D: the territory, the worker pool, the exchanger, the cached
// plan and the region loop. The embedding rank supplies box, which runs
// one clipped block box on its local grid with the kernel it resolved
// for the run.
type slab struct {
	ID, NRanks int
	tr         Transport
	part       Partition
	cfg        *core.Config // global configuration
	pool       *par.Pool
	h          int // exchange-halo width
	xbase      int // global x of local interior column 0
	ex         *exchanger
	overlap    bool
	plan       plan
	box        func(t int, lo, hi [3]int) // t is parity-adjusted
	body       func(i, worker int)        // runBlock, bound once

	// Dispatch state of the running region, written before each pool
	// dispatch and read by body.
	reg   *core.Region
	idxs  []int
	pb    int                       // parity of the local grid's Step at run start
	rows  bool                      // row tier: one kernel call per row or pencil
	calls *telemetry.ShardedCounter // tess_kernel_calls_total child of the tier

	// Stats, mirrored from the exchanger after each Run.
	MessagesSent int
	FloatsSent   int64
}

// plan is a rank's schedule for one step count: the region list and,
// per region, the rank's block indices with the interior blocks first.
// A rank keeps only the plan of its last Run, so the cache costs one
// schedule plus one int per selected block, and a repeated Run(steps)
// rebuilds nothing.
type plan struct {
	sched *core.Schedule
	regs  []regionPlan
}

type regionPlan struct {
	blocks []int // blocks[:split] are interior, the rest halo-dependent
	split  int
}

// init validates cfg, places the rank's partition and starts its pool.
func (s *slab) init(id, nranks int, tr Transport, cfg *core.Config, workers int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	h := ExchangeHalo(cfg)
	parts, err := Slabs(cfg.N[0], nranks, h)
	if err != nil {
		return err
	}
	p := parts[id]
	*s = slab{ID: id, NRanks: nranks, tr: tr, part: p, cfg: cfg, h: h, xbase: p.X0 - p.ExtLo}
	s.pool = par.NewPool(workers)
	s.body = s.runBlock
	return nil
}

// Rank executes one share of a distributed 2D tessellation run.
type Rank struct {
	slab
	spec  *stencil.Spec
	local *grid.Grid2D          // interior = [X0-ExtLo, X1+ExtHi) x NY
	kern  stencil.Kernel2DBlock // the running tier, resolved per Run
}

// ExchangeHalo returns the strip width the scheme needs: a block
// intersecting the territory extends at most Big-1 columns beyond it
// and reads slope further.
func ExchangeHalo(cfg *core.Config) int { return cfg.Big[0] + cfg.Slopes[0] }

// NewRank prepares rank id of nranks for the global configuration and
// stencil. workers sets the per-rank pool size.
func NewRank(id, nranks int, tr Transport, cfg *core.Config, spec *stencil.Spec, workers int) (*Rank, error) {
	if spec.Dims != 2 || spec.K2 == nil {
		return nil, fmt.Errorf("dist: %s is not a 2D kernel (distributed execution is implemented for 2D)", spec.Name)
	}
	r := &Rank{spec: spec}
	if err := r.slab.init(id, nranks, tr, cfg, workers); err != nil {
		return nil, err
	}
	p, ny := r.part, cfg.N[1]
	r.local = grid.NewGrid2D(p.ExtLo+p.Width()+p.ExtHi, ny, spec.Slopes[0], spec.Slopes[1])
	r.ex = newExchanger(tr, id, nranks, p, r.h, 2*r.h*ny, r.copyStrip)
	r.box = r.runBox
	return r, nil
}

// SetOverlap selects the overlapped exchange: halo swaps run
// concurrently with the region's interior blocks, and only the
// halo-dependent blocks wait for them. Output is bitwise identical to
// the synchronous default. Requires a full-duplex Transport (both
// built-in transports are).
func (s *slab) SetOverlap(on bool) { s.overlap = on }

// Close releases the rank's worker pool.
func (s *slab) Close() { s.pool.Close() }

// Partition returns the rank's share.
func (s *slab) Partition() Partition { return s.part }

// Scatter loads this rank's slab (territory + exchange halos + the
// global constant boundary) from a full copy of the initial grid. In a
// real deployment each rank would construct its slab directly; Scatter
// exists for tests and examples that hold the global state anyway.
func (r *Rank) Scatter(global *grid.Grid2D) error {
	if global.NX != r.cfg.N[0] || global.NY != r.cfg.N[1] {
		return fmt.Errorf("dist: global grid %dx%d != config %v", global.NX, global.NY, r.cfg.N)
	}
	lg := r.local
	for xl := -lg.HX; xl < lg.NX+lg.HX; xl++ {
		for y := -lg.HY; y < lg.NY+lg.HY; y++ {
			gx := r.xbase + xl
			// Outside the global grid (possible only at domain ends,
			// where ext is clipped): copy the global halo value.
			if gx < -global.HX {
				gx = -global.HX
			}
			if gx >= global.NX+global.HX {
				gx = global.NX + global.HX - 1
			}
			i := lg.Idx(xl, y)
			j := global.Idx(gx, y)
			lg.Buf[0][i] = global.Buf[0][j]
			lg.Buf[1][i] = global.Buf[1][j]
		}
	}
	lg.Step = global.Step
	return nil
}

// Territory copies the rank's owned values (current buffer) into dst,
// a full-size global grid; used to gather results.
func (r *Rank) Territory(dst *grid.Grid2D) {
	for x := r.part.X0; x < r.part.X1; x++ {
		for y := 0; y < r.cfg.N[1]; y++ {
			dst.Buf[dst.Step&1][dst.Idx(x, y)] = r.local.Buf[r.local.Step&1][r.local.Idx(x-r.xbase, y)]
		}
	}
}

// Run advances the rank's slab by steps time steps. All ranks must call
// Run with the same arguments; the call blocks on neighbour exchanges.
func (r *Rank) Run(steps int) error {
	var path stencil.Path
	r.kern, path = r.spec.Resolve2D(core.RunPath())
	return r.run(steps, path, &r.local.Step)
}

// runBox executes one clipped block box at parity-adjusted step t.
func (r *Rank) runBox(t int, lo, hi [3]int) {
	lg := r.local
	r.kern(lg.Buf[(t+1)&1], lg.Buf[t&1], lg.Idx(lo[0]-r.xbase, lo[1]), hi[0]-lo[0], hi[1]-lo[1], lg.SY)
}

// run is the region loop of both rank kinds: per region, exchange (or
// start the overlapped exchange and run the interior blocks), then run
// the rank's blocks. path is the kernel tier the caller resolved for
// this run — sampled once, so a concurrent core.SetKernelPath never
// mixes tiers within a run — and step is the local grid's step count.
func (s *slab) run(steps int, path stencil.Path, step *int) error {
	p, err := s.planFor(steps)
	if err != nil {
		return err
	}
	s.pb, s.rows = *step&1, path == stencil.PathRow
	s.calls = [...]*telemetry.ShardedCounter{telemetry.KernelCallsRow, telemetry.KernelCallsBlock, telemetry.KernelCallsSIMD}[path]
	regs := p.sched.Regions()
	for i, rp := range p.regs {
		s.reg = &regs[i]
		if !s.overlap || s.NRanks == 1 {
			if err := s.exchange(); err != nil {
				return err
			}
			s.runBlocks(rp.blocks, "")
			continue
		}
		s.ex.start()
		s.runBlocks(rp.blocks[:rp.split], "interior")
		if err := s.waitExchange(); err != nil {
			return err
		}
		s.runBlocks(rp.blocks[rp.split:], "halo")
	}
	*step += steps
	s.MessagesSent, s.FloatsSent = s.ex.messages, s.ex.floats
	return nil
}

// planFor returns the plan for steps, rebuilding it only when steps
// differs from the previous Run's.
func (s *slab) planFor(steps int) (*plan, error) {
	if s.plan.sched != nil && s.plan.sched.Steps() == steps {
		return &s.plan, nil
	}
	sched, err := core.NewSchedule(s.cfg, steps)
	if err != nil {
		return nil, err
	}
	regs := sched.Regions()
	rps := make([]regionPlan, len(regs))
	for i := range regs {
		reg := &regs[i]
		halo, interior := splitByHalo(s.cfg, reg, selectBlocks(s.cfg, reg, s.part), s.part, s.ID, s.NRanks)
		rps[i] = regionPlan{blocks: append(interior, halo...), split: len(interior)}
	}
	s.plan = plan{sched: sched, regs: rps}
	return &s.plan, nil
}

// selectBlocks returns the indices of the region's blocks whose
// maximal x extent intersects the territory. The glued-in-x blocks sit
// half a lattice period to the right of their tile origin.
func selectBlocks(c *core.Config, reg *core.Region, part Partition) []int {
	var mine []int
	for bi := range reg.Blocks {
		b := &reg.Blocks[bi]
		xlo := b.Origin[0]
		if !reg.Diamond && b.Glued&1 != 0 {
			xlo += c.Spacing(0) / 2
		}
		if xlo < part.X1 && xlo+c.Big[0] > part.X0 {
			mine = append(mine, bi)
		}
	}
	return mine
}

// splitByHalo partitions a rank's block list into halo-dependent and
// interior sets. A block is interior iff its dimension-0 read
// footprint over the whole region window — the exact update extent
// from core.WindowExtent0 padded by the stencil slope, clipped to the
// domain — avoids both exchange strips [X0-h, X0) and [X1, X1+h).
// Interior blocks therefore read nothing an in-flight exchange will
// overwrite and write nothing the strips snapshot, so they can run
// while the exchange is airborne without perturbing a single bit
// (region independence covers the reordering against halo blocks).
func splitByHalo(c *core.Config, reg *core.Region, mine []int, part Partition, id, nranks int) (halo, interior []int) {
	s := c.Slopes[0]
	for _, bi := range mine {
		b := &reg.Blocks[bi]
		lo, hi, ok := c.WindowExtent0(reg, b)
		if !ok { // updates nothing in this window
			interior = append(interior, bi)
			continue
		}
		rlo, rhi := lo-s, hi+s
		if rlo < 0 {
			rlo = 0
		}
		if rhi > c.N[0] {
			rhi = c.N[0]
		}
		if (id > 0 && rlo < part.X0) || (id < nranks-1 && rhi > part.X1) {
			halo = append(halo, bi)
		} else {
			interior = append(interior, bi)
		}
	}
	return halo, interior
}

// runBlocks executes the listed blocks of the running region on the
// pool. A non-empty span name records the batch on the rank's compute
// lane, so traces of overlapped runs show "interior" under the
// in-flight exchange and "halo" after it.
func (s *slab) runBlocks(idxs []int, span string) {
	if len(idxs) == 0 {
		return
	}
	start := time.Now()
	s.idxs = idxs
	s.pool.ForSticky(len(idxs), s.body)
	if span != "" && telemetry.Enabled() {
		telemetry.DefaultTracer.RecordSpan(telemetry.Event{
			Name: span, Cat: "dist", TID: s.ID, Phase: -1, Stage: -1,
			Blocks: int64(len(idxs)),
		}, start)
	}
}

// runBlock executes one block through the shared block visit with one
// box-kernel call per box, counting the calls on the run's tier (per
// row or pencil on the row tier, as core does).
func (s *slab) runBlock(i, worker int) {
	d, bi := len(s.cfg.N), s.idxs[i]
	var calls uint64
	var box core.Box
	s.cfg.VisitBlocks(s.reg, bi, bi+1, core.TileBytes, &box, func(t int) {
		s.box(t+s.pb, box.Lo, box.Hi)
		n := uint64(1)
		for k := 0; s.rows && k < d-1; k++ {
			n *= uint64(box.Hi[k] - box.Lo[k])
		}
		calls += n
	})
	s.calls.Add(worker, calls)
}

// exchange runs the synchronous strip swap with both neighbours,
// recording the blocked time.
func (s *slab) exchange() error {
	if s.NRanks == 1 {
		return nil
	}
	if telemetry.Enabled() {
		start := time.Now()
		err := s.ex.exchangeSync()
		telemetry.DistExchangeSeconds.Observe(time.Since(start).Seconds())
		telemetry.DefaultTracer.RecordSpan(telemetry.Event{
			Name: "exchange", Cat: "dist", TID: s.ID, Phase: -1, Stage: -1,
		}, start)
		return err
	}
	return s.ex.exchangeSync()
}

// waitExchange blocks on the overlapped exchange; only the un-hidden
// remainder counts as exchange time.
func (s *slab) waitExchange() error {
	if telemetry.Enabled() {
		start := time.Now()
		err := s.ex.wait()
		telemetry.DistExchangeSeconds.Observe(time.Since(start).Seconds())
		return err
	}
	return s.ex.wait()
}

// countTransfer records one strip transfer (floats floats of payload)
// in the per-peer byte and message counters. Exchanges are per-region,
// so the label lookup is far off the point-update hot path.
func countTransfer(dir string, peer, floats int) {
	if !telemetry.Enabled() {
		return
	}
	p := strconv.Itoa(peer)
	telemetry.DistBytes.Counter(dir, p).Add(uint64(8 * floats))
	telemetry.DistMessages.Counter(dir, p).Inc()
}

// copyStrip copies the h-wide strip starting at global column gx0
// (both parity buffers) into buf when pack is set, else back out of it.
func (r *Rank) copyStrip(gx0 int, buf []float64, pack bool) {
	lg := r.local
	ny := lg.NY
	k := 0
	for p := 0; p < 2; p++ {
		for x := gx0; x < gx0+r.h; x++ {
			row := lg.Buf[p][lg.Idx(x-r.xbase, 0):]
			if pack {
				copy(buf[k:k+ny], row[:ny])
			} else {
				copy(row[:ny], buf[k:k+ny])
			}
			k += ny
		}
	}
}
