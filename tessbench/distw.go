package main

import (
	"fmt"
	"sync"
	"time"

	"tessellate/internal/core"
	"tessellate/internal/dist"
	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// dist-tcp2 runs heat-2d on two ranks of one worker each, connected by
// dist.TCPTransport over loopback, with the overlapped exchange. The
// default tiling of the global domain is used, as NewRank takes it.
const (
	distNX, distNY = 2048, 2048
	distSteps      = 64
	distRanks      = 2
)

// distSet is a set-up cluster: transports, ranks and the global input.
type distSet struct {
	trs     []*dist.TCPTransport
	ranks   []*dist.Rank
	initial *grid.Grid2D
}

func (d *distSet) close() {
	for _, r := range d.ranks {
		if r != nil {
			r.Close()
		}
	}
	for _, t := range d.trs {
		if t != nil {
			t.Close()
		}
	}
}

// newRanks builds one rank per transport, optionally over timed
// transports and with a timed spec.
func newRanks(cfg *core.Config, trs []dist.Transport, spec *stencil.Spec) ([]*dist.Rank, error) {
	ranks := make([]*dist.Rank, len(trs))
	for i, tr := range trs {
		r, err := dist.NewRank(i, len(trs), tr, cfg, spec, 1)
		if err != nil {
			for _, q := range ranks[:i] {
				q.Close()
			}
			return nil, err
		}
		r.SetOverlap(true)
		ranks[i] = r
	}
	return ranks, nil
}

// setupDist listens, dials and handshakes every link (by passing one
// word each way), then builds and loads the ranks.
func setupDist(cfg *core.Config, seed int64, pfor grid.ParallelFor) (*distSet, error) {
	d := &distSet{}
	d.initial = grid.NewGrid2D(distNX, distNY, 1, 1)
	seed2D(d.initial, seed, pfor)
	addrs := make([]string, distRanks)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	for i := range addrs {
		tr, err := dist.NewTCPTransport(i, addrs)
		if err != nil {
			d.close()
			return nil, err
		}
		d.trs = append(d.trs, tr)
		addrs[i] = tr.Addr()
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := []float64{0}
		if errs[0] = d.trs[0].Send(1, buf); errs[0] == nil {
			errs[0] = d.trs[0].Recv(1, buf)
		}
	}()
	go func() {
		defer wg.Done()
		buf := []float64{0}
		if errs[1] = d.trs[1].Recv(0, buf); errs[1] == nil {
			errs[1] = d.trs[1].Send(0, buf)
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.close()
			return nil, fmt.Errorf("handshake: %w", err)
		}
	}
	var err error
	if d.ranks, err = newRanks(cfg, []dist.Transport{d.trs[0], d.trs[1]}, stencil.Heat2D); err != nil {
		d.close()
		return nil, err
	}
	if err := scatter(d.ranks, d.initial); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func scatter(ranks []*dist.Rank, g *grid.Grid2D) error {
	for _, r := range ranks {
		if err := r.Scatter(g); err != nil {
			return err
		}
	}
	return nil
}

// runRanks runs every rank concurrently for steps and waits for all.
func runRanks(ranks []*dist.Rank, steps int) error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i := range ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ranks[i].Run(steps)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return nil
}

func runDist(cfg runConfig) (*report, error) {
	helper := par.NewPool(cfg.threads)
	defer helper.Close()
	pfor := poolFor(helper)
	spec := stencil.Heat2D
	tcfg := core.DefaultConfig([]int{distNX, distNY}, spec.Slopes)
	var d *distSet
	var setupS []float64
	for i := 0; i < 9; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, err = setupDist(&tcfg, cfg.seed, pfor); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer d.close()

	out := grid.NewGrid2D(distNX, distNY, 1, 1)
	gather := func(ranks []*dist.Rank) uint64 {
		seed2D(out, cfg.seed, pfor) // halo and stale interior
		out.Step = distSteps
		for _, r := range ranks {
			r.Territory(out)
		}
		return digest(out.Buf[out.Step&1], pfor)
	}
	prepare := func(ranks []*dist.Rank) func() {
		return func() {
			if err := scatter(ranks, d.initial); err != nil {
				panic(err)
			}
		}
	}

	run := func() error { return runRanks(d.ranks, distSteps) }
	check := func() uint64 { return gather(d.ranks) }
	// The warm op is untimed but checked and counted like any other.
	warm := measure(0, 1, prepare(d.ranks), run, check)
	budget, minOps := cfg.budget(), 3
	if cfg.trace {
		budget, minOps = budget/2, 1
	}
	st := measure(budget, minOps, prepare(d.ranks), run, check)

	ref := grid.NewGrid2D(distNX, distNY, 1, 1)
	seed2D(ref, cfg.seed, pfor)
	t0 := time.Now()
	naive.Run2D(ref, spec, distSteps, helper)
	naiveS := time.Since(t0).Seconds()
	oracle := digest(ref.Buf[ref.Step&1], pfor)

	rep := newReport()
	rep.count(warm, oracle)
	rep.count(st, oracle)
	if len(st.walls) == 0 {
		return nil, fmt.Errorf("no op succeeded")
	}
	updates := float64(distNX) * float64(distNY) * distSteps
	wall := median(st.walls)
	mlups := rep.opMetrics(st, updates, setupS)
	rep.notef("input: heat-2d %dx%d, %d steps, %d ranks x 1 worker over loopback TCP, overlap on; default BT=%d Big=%v; exchange halo %d columns",
		distNX, distNY, distSteps, distRanks, tcfg.BT, tcfg.Big, dist.ExchangeHalo(&tcfg))
	rep.notef("ops: %d timed, op wall median %.4gs, quartiles %s; set-up runs %v s",
		len(st.walls), wall, quartiles(st.walls), fmtList(setupS))
	rep.notef("oracle: naive on %d threads %.4g MLUP/s; %d of %d gathered outputs matched bitwise",
		cfg.threads, updates/naiveS/1e6, len(st.digests)+len(warm.digests)-rep.mismatches, len(st.digests)+len(warm.digests))
	if !cfg.trace {
		return rep, nil
	}

	L := rep.layers
	L["naive.mlups"] = updates / naiveS / 1e6
	L["naive.speedup"] = mlups / L["naive.mlups"]
	seed2D(ref, cfg.seed, pfor)
	t0 = time.Now()
	naive.Run2D(ref, spec, 4, nil)
	L["naive.mlups_1t"] = float64(distNX) * distNY * 4 / time.Since(t0).Seconds() / 1e6
	L["grid.active_share"] = 1

	// Traced ranks: the same transports behind timing decorators, and a
	// timed copy of the spec.
	meter := &kernelMeter{}
	tts := []*timedTransport{{inner: d.trs[0]}, {inner: d.trs[1]}}
	ranks, err := newRanks(&tcfg, []dist.Transport{tts[0], tts[1]}, timedSpec(spec, meter))
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, r := range ranks {
			r.Close()
		}
	}()
	var opN int64
	var walls []float64
	rec := cfg.rec
	telemetry.Enable()
	defer telemetry.Disable()
	s0, k0 := takeSnap(), meter.totals()
	ts := measure(cfg.budget()/2, 1, prepare(ranks), func() error {
		opN++
		root := rec.newID()
		telemetry.DefaultTracer.Reset()
		epoch := time.Now()
		t0 := time.Now()
		if err := runRanks(ranks, distSteps); err != nil {
			return err
		}
		t1 := time.Now()
		rec.addID(root, opN, 0, "op", "bench", 0, t0, t1)
		rec.importTelemetry(opN, root, epoch)
		walls = append(walls, t1.Sub(t0).Seconds())
		return nil
	}, func() uint64 { return gather(ranks) })
	tel := takeSnap().sub(s0)
	k := meter.totals().sub(k0)
	telemetry.Disable()
	rep.count(ts, oracle)
	if len(walls) == 0 {
		return nil, fmt.Errorf("no traced op succeeded")
	}
	ops := float64(len(walls))
	var sendS, recvS float64
	var msgs, bytes int64
	for _, t := range tts {
		sendS += float64(t.sendNS.Load()) / 1e9
		recvS += float64(t.recvNS.Load()) / 1e9
		msgs += t.messages.Load()
		bytes += t.bytes.Load()
	}
	rankS := sum(walls) / ops * distRanks
	L["dist.send_s"] = sendS / ops
	L["dist.recv_s"] = recvS / ops
	L["dist.messages"] = float64(msgs) / ops
	L["dist.bytes"] = float64(bytes) / ops
	L["dist.exchange_blocked_s"] = tel.exchange.Sum / ops
	L["dist.exchange_share"] = tel.exchange.Sum / ops / rankS
	L["dist.unattributed_share"] = 1 - (k.seconds/ops+tel.exchange.Sum/ops)/rankS
	L["stencil.kernel_s"] = k.seconds / ops
	L["stencil.kernel_calls"] = float64(k.calls) / ops
	L["stencil.kernel_points"] = float64(k.points) / ops
	L["stencil.kernel_mlups"] = float64(k.points) / k.seconds / 1e6
	L["core.useful_ratio"] = updates / L["stencil.kernel_points"]
	L["core.regions"] = float64(len(tcfg.Regions(distSteps)))
	L["core.exec_s"] = sum(walls) / ops
	L["core.nonkernel_share"] = 1 - k.seconds/ops/rankS
	L["par.dispatch_s"] = tel.dispatch.Sum / ops
	L["telemetry.overhead_share"] = 1 - updates/median(walls)/1e6/mlups
	rep.notef("rank time per op (wall x ranks) %.4gs = kernel %.4gs + blocked on exchange %.4gs + unattributed %.4gs",
		rankS, k.seconds/ops, tel.exchange.Sum/ops, rankS-k.seconds/ops-tel.exchange.Sum/ops)
	return rep, nil
}
