package main

import (
	"fmt"
	"time"

	"tessellate"
	"tessellate/internal/cachesim"
	"tessellate/internal/core"
	"tessellate/internal/grid"
	"tessellate/internal/model"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// libCase is a library workload: one grid that the public Engine
// advances in place, plus the hooks the measured, oracle and traced
// phases need.
type libCase struct {
	size     string
	active   int64 // points updated per logical step
	steps    int
	kernels  int   // stencil applications per active point per step
	bufBytes int64 // bytes per grid buffer
	cfg      core.Config
	path     stencil.Path // kernel tier the executors resolve
	maskS    float64      // mask build time, 0 when unmasked
	allocS   float64      // grid allocation, seeding and first touch
	buf      func() []float64
	bufs     func() [2][]float64
	reseed   func()
	solve    func() error // the user-facing Engine call
	// naive runs the oracle on the re-seeded grid: on the engine's
	// threads, or on one thread when serial is set.
	naive func(serial bool, steps int) error
	// traced runs one op through core directly with timed kernels and
	// returns the schedule-build time and the executor call's interval.
	// With sepBuild the executor rebuilds the schedule itself and the
	// returned build time is a separate NewSchedule call's.
	traced   func(pool *par.Pool, m *kernelMeter) (build time.Duration, t0, t1 time.Time, err error)
	sepBuild bool
	ceiling  func(d time.Duration) float64 // one-thread in-cache MLUP/s of the resolved kernel
	close    func()
}

// runLibrary measures a library workload: repeated set-up (median
// reported), one untimed warm op, the measured ops, then the oracle.
// In a traced run the measured phase is halved and followed by the
// traced ops and the layer probes.
func runLibrary(cfg runConfig, setups int, setup func(seed int64, pfor grid.ParallelFor) (*libCase, error)) (*report, error) {
	helper := par.NewPool(cfg.threads)
	defer helper.Close()
	pfor := poolFor(helper)
	var c *libCase
	var setupS, allocS []float64
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
			c = nil
			freeMemory()
		}
		t0 := time.Now()
		var err error
		if c, err = setup(cfg.seed, pfor); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		allocS = append(allocS, c.allocS)
	}
	defer c.close()
	check := func() uint64 { return digest(c.buf(), pfor) }

	// The warm op is untimed but checked and counted like any other.
	warm := measure(0, 1, c.reseed, c.solve, check)
	budget, minOps := cfg.budget(), 3
	if cfg.trace {
		budget, minOps = budget/2, 1
	}
	st := measure(budget, minOps, c.reseed, c.solve, check)

	c.reseed()
	t0 := time.Now()
	if err := c.naive(false, c.steps); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	naiveS := time.Since(t0).Seconds()
	oracle := check()

	rep := newReport()
	rep.count(warm, oracle)
	rep.count(st, oracle)
	if len(st.walls) == 0 {
		return nil, fmt.Errorf("no op succeeded")
	}
	updates := float64(c.active) * float64(c.steps)
	wall := median(st.walls)
	mlups := rep.opMetrics(st, updates, setupS)
	_, llc := cacheSizes()
	rep.notef("input: %s, %d steps, %d active points; %s per grid buffer (%.2fx LLC %s); kernel tier %s",
		c.size, c.steps, c.active, mib(c.bufBytes), float64(c.bufBytes)/float64(llc), mib(llc), c.path)
	rep.notef("tiling: default BT=%d Big=%v merge=%v", c.cfg.BT, c.cfg.Big, c.cfg.Merge)
	rep.notef("ops: %d timed, op wall median %.4gs, quartiles %s; set-up runs %v s",
		len(st.walls), wall, quartiles(st.walls), fmtList(setupS))
	rep.notef("oracle: naive on %d threads %.4g MLUP/s; %d of %d outputs matched bitwise",
		cfg.threads, updates/naiveS/1e6, len(st.digests)+len(warm.digests)-rep.mismatches, len(st.digests)+len(warm.digests))
	if !cfg.trace {
		return rep, nil
	}

	L := rep.layers
	L["grid.alloc_seed_s"] = median(allocS)
	L["grid.mask_build_s"] = c.maskS
	L["grid.active_share"] = float64(c.active) / float64(c.cfg.N[0]*prod(c.cfg.N[1:]))
	L["naive.mlups"] = updates / naiveS / 1e6
	L["naive.speedup"] = mlups / L["naive.mlups"]
	c.reseed()
	// The one-thread baseline runs the whole op when that is short, else
	// two steps (a rate, not a check).
	serialSteps := c.steps
	if c.active*int64(c.steps) > 2e8 {
		serialSteps = 2
	}
	t0 = time.Now()
	if err := c.naive(true, serialSteps); err != nil {
		return nil, fmt.Errorf("serial baseline: %w", err)
	}
	L["naive.mlups_1t"] = float64(c.active) * float64(serialSteps) / time.Since(t0).Seconds() / 1e6

	if err := tracedLedger(cfg, c, pfor, mlups, oracle, rep); err != nil {
		return nil, err
	}
	rep.notef("useful_ratio base: %d active points x %d steps x %d stencil stages = %d useful kernel points per op",
		c.active, c.steps, c.kernels, c.active*int64(c.steps)*int64(c.kernels))
	return rep, nil
}

// tracedLedger runs the traced ops, counts and checks them into rep,
// and fills the per-layer metrics of a library workload. Extensive
// metrics are per op.
func tracedLedger(cfg runConfig, c *libCase, pfor grid.ParallelFor, untracedMLUPs float64, oracle uint64, rep *report) error {
	L := rep.layers
	pool := par.NewPool(cfg.threads)
	defer pool.Close()
	sched, err := core.NewSchedule(&c.cfg, c.steps)
	if err != nil {
		return err
	}
	tasks := 0
	for i := range sched.Regions() {
		tasks += sched.Regions()[i].Tasks()
	}
	regions := len(sched.Regions())
	L["par.dispatch_s_per_region"] = dispatchProbe(pool, (tasks+regions-1)/regions, 200*time.Millisecond)
	L["stencil.ceiling_incache_mlups"] = c.ceiling(200 * time.Millisecond)

	meter := &kernelMeter{}
	var builds, execs, busy, walls []float64
	var opN int64
	rec := cfg.rec
	telemetry.Enable()
	defer telemetry.Disable()
	s0, k0 := takeSnap(), meter.totals()
	st := measure(cfg.budget()/2, 1, c.reseed, func() error {
		opN++
		root := rec.newID()
		telemetry.DefaultTracer.Reset()
		epoch := time.Now()
		t0 := time.Now()
		build, e0, e1, err := c.traced(pool, meter)
		t1 := time.Now()
		if err != nil {
			return err
		}
		rec.addID(root, opN, 0, "op", "bench", 0, t0, t1)
		// The solve's wall: with sepBuild the executor call alone (it
		// rebuilds the schedule inside), else build plus executor.
		exec, opWall, buildSpan := e1.Sub(e0), t1.Sub(t0), "schedule_build"
		if c.sepBuild {
			exec, opWall, buildSpan = exec-build, e1.Sub(e0), "schedule_build_replica"
		}
		rec.add(opN, root, buildSpan, "core", 0, t0, t0.Add(build))
		ex := rec.add(opN, root, "exec", "core", 0, e0, e1)
		b := 0.0
		for _, ev := range rec.importTelemetry(opN, ex, epoch) {
			if ev.Cat == "par" && ev.Name == "worker" {
				b += float64(ev.Dur) / 1e9
			}
		}
		builds, execs, busy = append(builds, build.Seconds()), append(execs, exec.Seconds()), append(busy, b)
		walls = append(walls, opWall.Seconds())
		return nil
	}, func() uint64 { return digest(c.buf(), pfor) })
	tel := takeSnap().sub(s0)
	k := meter.totals().sub(k0)
	telemetry.Disable()
	rep.count(st, oracle)
	if len(walls) == 0 {
		return fmt.Errorf("no traced op succeeded")
	}
	ops := float64(len(walls))
	threads := float64(cfg.threads)
	execS, buildS, wall := sum(execs)/ops, sum(builds)/ops, sum(walls)/ops
	kernelS := k.seconds / ops
	L["stencil.kernel_s"] = kernelS
	L["stencil.kernel_calls"] = float64(k.calls) / ops
	L["stencil.kernel_points"] = float64(k.points) / ops
	L["stencil.kernel_mlups"] = float64(k.points) / k.seconds / 1e6
	L["stencil.kernel_efficiency"] = L["stencil.kernel_mlups"] / L["stencil.ceiling_incache_mlups"]
	L["core.schedule_build_s"] = buildS
	L["core.exec_s"] = execS
	L["core.regions"] = float64(regions)
	L["core.blocks"] = float64(tel.blocks) / ops
	L["core.points_updated"] = float64(tel.points) / ops
	L["core.useful_ratio"] = float64(c.active) * float64(c.steps) * float64(c.kernels) / L["stencil.kernel_points"]
	L["core.nonkernel_share"] = 1 - kernelS/(execS*threads)
	L["core.block_overhead_share"] = (sum(busy)/ops - kernelS) / (execS * threads)
	L["core.stage0_s"] = tel.stage0.Sum / ops
	L["core.stage1_s"] = tel.stage1.Sum / ops
	L["core.stage2_s"] = tel.stage2.Sum / ops
	L["core.stage3_s"] = tel.stage3.Sum / ops
	L["core.diamond_s"] = tel.dia.Sum / ops
	// Solve wall = schedule build + the executor's parallel regions;
	// whatever the executor does outside its regions (scratch set-up,
	// validation) is left over and reported, not hidden.
	regionS := (tel.stage0.Sum + tel.stage1.Sum + tel.stage2.Sum + tel.stage3.Sum + tel.dia.Sum) / ops
	L["core.unattributed_share"] = (wall - buildS - regionS) / wall
	L["par.dispatch_s"] = tel.dispatch.Sum / ops
	L["par.worker_idle_share"] = 1 - sum(busy)/ops/(execS*threads)
	L["par.steals"] = float64(tel.steals) / ops
	tracedMLUPs := float64(c.active) * float64(c.steps) / median(walls) / 1e6
	L["telemetry.overhead_share"] = 1 - tracedMLUPs/untracedMLUPs

	if c.bufBytes >= 4*llcBytes() {
		// DRAM-resident: measure the machine's streaming bandwidth on
		// the grid's own buffers and set the kernel against it.
		gbs := streamGBs(c.bufs(), pfor, 5)
		L["mem.stream_gbs"] = gbs
		L["stencil.ceiling_stream_mlups"] = gbs * 1e9 / model.NaiveTraffic() / 1e6
		bpu := model.TessellationTraffic(&c.cfg, 64)
		L["model.bytes_per_update"] = bpu
		L["mem.achieved_gbs"] = untracedMLUPs * 1e6 * bpu / 1e9
		L["mem.roofline_share"] = L["mem.achieved_gbs"] / gbs
		sim, err := scaledTraffic(c)
		if err != nil {
			return err
		}
		L["cachesim.bytes_per_update"] = sim
	}
	return nil
}

// dispatchProbe returns the mean wall time of an empty-body
// ForSticky region of the given task count.
func dispatchProbe(pool *par.Pool, tasks int, d time.Duration) float64 {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		pool.ForSticky(tasks, func(int, int) {})
		n++
	}
	return time.Since(t0).Seconds() / float64(n)
}

// streamGBs measures memory bandwidth with a scale kernel a = s*b
// between the two grid buffers (each at least 4x the LLC), counting 24
// bytes per element (read b, write-allocate fill of a, write-back of
// a), the convention internal/model uses for a naive sweep. It returns
// the median of reps passes. The buffers are clobbered.
func streamGBs(bufs [2][]float64, pfor grid.ParallelFor, reps int) float64 {
	a, b := bufs[0], bufs[1]
	n := min(len(a), len(b))
	var rates []float64
	for r := 0; r < reps; r++ {
		s := 1 + float64(r)*1e-3
		t0 := time.Now()
		pfor(256, func(i, _ int) {
			lo, hi := i*n/256, (i+1)*n/256
			dst, src := a[lo:hi], b[lo:hi]
			for j := range dst {
				dst[j] = s * src[j]
			}
		})
		rates = append(rates, 24*float64(n)/time.Since(t0).Seconds()/1e9)
		a, b = b, a
	}
	return median(rates)
}

// scaledTraffic replays the workload's schedule, shrunk by 4 per
// dimension (domain, blocks) with the cache shrunk by 64, through the
// cache simulator on one thread, and returns DRAM bytes per update.
// It is a computed figure for a scaled instance, not a measurement of
// the real run.
func scaledTraffic(c *libCase) (float64, error) {
	const f = 4
	cfg := c.cfg
	cfg.N = append([]int(nil), c.cfg.N...)
	cfg.Big = append([]int(nil), c.cfg.Big...)
	for k := range cfg.N {
		cfg.N[k] /= f
		cfg.Big[k] = max(cfg.Big[k]/f, 2*cfg.BT*cfg.Slopes[k])
	}
	cache, err := cachesim.NewCache(int(llcBytes()/(f*f*f)), 64, 16)
	if err != nil {
		return 0, err
	}
	spec := stencil.Heat3D
	g := grid.NewGrid3D(cfg.N[0], cfg.N[1], cfg.N[2], 1, 1, 1)
	pool := par.NewPool(1)
	defer pool.Close()
	if err := core.Run3D(g, cachesim.NewTracingSpec(spec, cache, g.Buf[0], g.Buf[1]), c.steps, &cfg, pool); err != nil {
		return 0, err
	}
	cache.FlushWritebacks()
	return float64(cache.TrafficBytes()) / (float64(cfg.N[0]*cfg.N[1]*cfg.N[2]) * float64(c.steps)), nil
}

// llcBytes is the last-level cache size, or 32 MiB when sysfs does not
// say.
func llcBytes() int64 {
	if _, llc := cacheSizes(); llc > 0 {
		return llc
	}
	return 32 << 20
}

func prod(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

func quartiles(xs []float64) string {
	if len(xs) < 2 {
		return "n/a"
	}
	s := sortedCopy(xs)
	return fmt.Sprintf("[%.4g, %.4g]", s[len(s)/4], s[(3*len(s))/4])
}

func fmtList(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3g", x)
	}
	return out + "]"
}

// heat3dN is the edge of the heat3d-dram cube: 544^3 float64 plus halo
// is 1242 MiB per buffer, over 4x a 300 MiB LLC.
const (
	heat3dN     = 544
	heat3dSteps = 16
)

func runHeat3D(cfg runConfig) (*report, error) {
	return runLibrary(cfg, 3, func(seed int64, pfor grid.ParallelFor) (*libCase, error) {
		return heat3DCase(cfg.threads, heat3dN, heat3dSteps, seed, pfor)
	})
}

// heat3DCase sets up heat-3d on an n^3 grid advanced steps per op.
func heat3DCase(threads, n, steps int, seed int64, pfor grid.ParallelFor) (*libCase, error) {
	spec := tessellate.Heat3D
	t0 := time.Now()
	eng := tessellate.NewEngine(threads)
	g := eng.AllocGrid3D(n, n, n, 1, 1, 1)
	seed3D(g, seed, pfor)
	c := &libCase{
		size:     fmt.Sprintf("heat-3d %d^3", n),
		active:   int64(n) * int64(n) * int64(n),
		steps:    steps,
		kernels:  1,
		bufBytes: int64(len(g.Buf[0])) * 8,
		cfg:      core.DefaultConfig([]int{n, n, n}, spec.Slopes),
		allocS:   time.Since(t0).Seconds(),
		buf:      func() []float64 { return g.Buf[g.Step&1] },
		bufs:     func() [2][]float64 { return g.Buf },
		reseed:   func() { seed3D(g, seed, pfor) },
		solve:    func() error { return eng.Run3D(g, spec, steps, tessellate.Options{}) },
		close:    eng.Close,
	}
	_, c.path = spec.Resolve3D(stencil.ActivePath())
	c.naive = func(serial bool, steps int) error {
		if serial {
			naive.Run3D(g, spec, steps, nil)
			return nil
		}
		return eng.Run3D(g, spec, steps, tessellate.Options{Scheme: tessellate.Naive})
	}
	c.traced = func(pool *par.Pool, m *kernelMeter) (time.Duration, time.Time, time.Time, error) {
		t0 := time.Now()
		sched, err := core.NewSchedule(&c.cfg, c.steps)
		if err != nil {
			return 0, t0, t0, err
		}
		t1 := time.Now()
		err = core.RunScheduled3D(g, timedSpec(spec, m), sched, pool)
		return t1.Sub(t0), t1, time.Now(), err
	}
	c.ceiling = func(d time.Duration) float64 {
		k, _ := spec.Resolve3D(stencil.ActivePath())
		b := grid.NewGrid3D(32, 32, 32, 1, 1, 1)
		seed3D(b, seed, serialFor)
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < d {
			k(b.Buf[(calls+1)&1], b.Buf[calls&1], b.Idx(0, 0, 0), 32, 32, 32, b.SY, b.SX)
			calls++
		}
		return float64(calls) * 32 * 32 * 32 / time.Since(t0).Seconds() / 1e6
	}
	return c, nil
}

// rk2N is the edge of the rk2-lshape square: 2048^2 float64 is 32 MiB
// per buffer, above L2 and below the LLC.
const (
	rk2N     = 2048
	rk2Steps = 32
)

// rk2Pipeline is SSP-RK2 over heat-2d: u* = E(u); u** = E(u*);
// u' = u/2 + u**/2, compound slope 2.
func rk2Pipeline() *stencil.Pipeline {
	return &stencil.Pipeline{Name: "rk2-heat2d", TmpHalo: 0.25, Stages: []stencil.Stage{
		{Spec: stencil.Heat2D, In: 0},
		{Spec: stencil.Heat2D, In: 1},
		{A: 0.5, In: 0, B: 0.5, InB: 2},
	}}
}

func runRK2(cfg runConfig) (*report, error) {
	return runLibrary(cfg, 9, func(seed int64, pfor grid.ParallelFor) (*libCase, error) {
		return rk2Case(cfg.threads, rk2N, rk2Steps, seed, pfor)
	})
}

// rk2Case sets up the RK2 pipeline on an lshape-masked n^2 grid
// advanced steps per op.
func rk2Case(threads, n, steps int, seed int64, pfor grid.ParallelFor) (*libCase, error) {
	p := rk2Pipeline()
	slopes := p.Slopes()
	t0 := time.Now()
	eng := tessellate.NewEngine(threads)
	g := eng.AllocGrid2D(n, n, slopes[0], slopes[1])
	seed2D(g, seed, pfor)
	allocS := time.Since(t0).Seconds()
	t1 := time.Now()
	m, err := tessellate.NamedMask("lshape", []int{n, n})
	if err != nil {
		eng.Close()
		return nil, err
	}
	c := &libCase{
		size:     fmt.Sprintf("rk2-heat2d (3 stages) on lshape %d^2", n),
		active:   int64(m.ActiveCount()),
		steps:    steps,
		kernels:  2,
		bufBytes: int64(len(g.Buf[0])) * 8,
		cfg:      core.DefaultConfig([]int{n, n}, slopes),
		maskS:    time.Since(t1).Seconds(),
		allocS:   allocS,
		buf:      func() []float64 { return g.Buf[g.Step&1] },
		bufs:     func() [2][]float64 { return g.Buf },
		reseed:   func() { seed2D(g, seed, pfor) },
		solve:    func() error { return eng.RunPipeline2D(g, p, steps, m, tessellate.Options{}) },
		sepBuild: true,
		close:    eng.Close,
	}
	_, c.path = stencil.Heat2D.Resolve2D(stencil.ActivePath())
	c.naive = func(serial bool, steps int) error {
		if serial {
			return naive.RunPipeline2D(g, p, steps, nil, m)
		}
		return eng.RunPipeline2D(g, p, steps, m, tessellate.Options{Scheme: tessellate.Naive})
	}
	c.traced = func(pool *par.Pool, km *kernelMeter) (time.Duration, time.Time, time.Time, error) {
		// The pipeline executor builds its own schedule; the build
		// is timed by an identical NewSchedule call beforehand.
		b0 := time.Now()
		if _, err := core.NewSchedule(&c.cfg, c.steps); err != nil {
			return 0, b0, b0, err
		}
		build := time.Since(b0)
		t0 := time.Now()
		err := core.RunPipeline2D(g, timedPipeline(p, km), c.steps, &c.cfg, pool, m)
		return build, t0, time.Now(), err
	}
	c.ceiling = incacheCeiling2D
	return c, nil
}

// incacheCeiling2D returns the one-thread MLUP/s of the resolved
// heat-2d kernel sweeping a 128^2 box that stays in the private cache.
func incacheCeiling2D(d time.Duration) float64 {
	k, _ := stencil.Heat2D.Resolve2D(stencil.ActivePath())
	b := grid.NewGrid2D(128, 128, 1, 1)
	seed2D(b, 1, serialFor)
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		k(b.Buf[(calls+1)&1], b.Buf[calls&1], b.Idx(0, 0), 128, 128, b.SY)
		calls++
	}
	return float64(calls) * 128 * 128 / time.Since(t0).Seconds() / 1e6
}
