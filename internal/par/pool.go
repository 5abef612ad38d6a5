// Package par provides the small parallel runtime used by every stencil
// scheme in this repository: a reusable worker pool with dynamic and
// sticky (topology-aware) scheduling, optional CPU pinning, and a
// pipelined wavefront synchronizer.
//
// The pool plays the role OpenMP's "parallel for" plays in the paper's
// reference implementation: all blocks of one tessellation stage are
// independent, so a stage is exactly one parallel-for call. Dynamic
// mode ("schedule(dynamic, chunk)") self-schedules chunks off a shared
// cursor; sticky mode gives every worker the same static index range
// in every region — so the blocks a worker touched last stage are the
// blocks it touches next stage, keeping their working set in that
// core's cache — with steal-from-the-back to cover tail imbalance.
package par

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tessellate/internal/telemetry"
)

// Pool is a fixed-size worker pool. A Pool is reused across many For
// calls so that per-stage parallelism does not pay goroutine startup
// costs on every synchronization, mirroring a persistent OpenMP team.
//
// The zero value is not usable; construct with NewPool or NewPoolOpts.
type Pool struct {
	workers int
	jobs    chan func(worker int)
	wg      sync.WaitGroup
	closed  atomic.Bool
	// panicked holds the first panic captured from a job of the
	// in-flight For/ForChunked/ForSticky call; the caller re-raises it
	// after all runners finish. For is single-caller (it shares wg), so
	// one slot suffices.
	panicked atomic.Pointer[capturedPanic]

	// Sticky scheduling: one deque per worker, reloaded each region.
	sticky atomic.Bool
	queues []stickyQueue

	// CPU pinning. placement[w] is the core worker w is pinned to (-1
	// while unpinned); locked[w] tracks LockOSThread and is only ever
	// touched from worker w's own goroutine (via broadcast), so it
	// needs no synchronization.
	pinOn     atomic.Bool
	pinCPUs   []int // explicit core list from PoolOptions; nil = allowed set
	placement []atomic.Int64
	locked    []bool
	pinErr    atomic.Pointer[pinFailure]

	// scratch holds each worker's reusable buffers (see Scratch).
	scratch []Scratch
}

// capturedPanic boxes a recovered panic value so it can live in an
// atomic.Pointer.
type capturedPanic struct{ val any }

// pinFailure boxes a pinning error for the same reason.
type pinFailure struct{ err error }

// PoolOptions selects the pool's scheduling and placement behaviour.
// The zero value reproduces the classic dynamic, unpinned pool.
type PoolOptions struct {
	// Pin requests that each worker be pinned to its own CPU core at
	// construction. Pinning that fails (non-linux platform, EPERM in a
	// restricted cgroup) degrades to unpinned execution; the cause is
	// recorded in PinError, never returned as a construction failure.
	Pin bool
	// CPUs optionally lists the cores to pin to; worker w gets
	// CPUs[w%len(CPUs)]. Empty means the thread's allowed set (which
	// respects taskset/cgroup limits), interleaved across NUMA nodes
	// when /sys/devices/system/node is readable so small pools still
	// use every memory controller, assigned round-robin.
	CPUs []int
	// Sticky starts the pool with sticky scheduling enabled for
	// ForSticky regions (toggleable later with SetSticky).
	Sticky bool
}

// NewPool creates a dynamic, unpinned pool with the given number of
// workers. If workers is <= 0, runtime.GOMAXPROCS(0) is used. The
// pool's goroutines run until Close is called.
func NewPool(workers int) *Pool { return NewPoolOpts(workers, PoolOptions{}) }

// NewPoolOpts creates a pool with explicit scheduling and placement
// options.
func NewPoolOpts(workers int, opts PoolOptions) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers:   workers,
		jobs:      make(chan func(worker int)),
		queues:    make([]stickyQueue, workers),
		placement: make([]atomic.Int64, workers),
		locked:    make([]bool, workers),
		pinCPUs:   append([]int(nil), opts.CPUs...),
		scratch:   make([]Scratch, workers),
	}
	for w := range p.placement {
		p.placement[w].Store(-1)
	}
	for w := 0; w < workers; w++ {
		go p.workerLoop(w)
	}
	p.sticky.Store(opts.Sticky)
	if opts.Pin {
		p.SetPinned(true) // failure is recorded in PinError, not fatal
	}
	return p
}

func (p *Pool) workerLoop(w int) {
	for job := range p.jobs {
		p.runJob(job, w)
	}
}

// runJob executes one job, guaranteeing the WaitGroup decrement and
// capturing (instead of propagating) a panicking job: an unrecovered
// panic would kill the worker goroutine — permanently shrinking the
// pool — and leave For deadlocked on wg.Wait. The first captured panic
// is re-raised from the For caller once all runners finish.
func (p *Pool) runJob(job func(worker int), w int) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.panicked.CompareAndSwap(nil, &capturedPanic{val: r})
		}
	}()
	job(w)
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the pool down and frees its scratch buffers. It must not
// be called concurrently with For. Close is idempotent.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.jobs)
		for w := range p.scratch {
			telemetry.PipelineScratchBytes.AddUngated(-float64(p.scratch[w].bytes()))
			p.scratch[w] = Scratch{}
		}
	}
}

// Scratch is one worker's set of reusable float64 buffers.
type Scratch struct {
	Bufs [][]float64
	// Tag is the owner's record of what Bufs hold. Pool.Scratch resets
	// it to nil whenever it reallocates the buffers.
	Tag any
}

func (s *Scratch) bytes() int {
	if len(s.Bufs) == 0 {
		return 0
	}
	return 8 * len(s.Bufs) * len(s.Bufs[0])
}

// Scratch returns worker w's k scratch buffers of at least n float64s
// each. They persist across calls and runs until Close, so their
// contents carry over; they are reallocated (zeroed, Tag nil) only when
// k or n outgrows them. Only region bodies running as worker w, or the
// caller between regions, may use them. The bytes held are reported in
// tess_pipeline_scratch_bytes.
func (p *Pool) Scratch(w, k, n int) *Scratch {
	s := &p.scratch[w]
	if len(s.Bufs) >= k && (k == 0 || len(s.Bufs[0]) >= n) {
		return s
	}
	old := s.bytes()
	k, n = max(k, len(s.Bufs)), max(n, 1)
	if len(s.Bufs) > 0 {
		n = max(n, len(s.Bufs[0]))
	}
	*s = Scratch{Bufs: make([][]float64, k)}
	for j := range s.Bufs {
		s.Bufs[j] = make([]float64, n)
	}
	telemetry.PipelineScratchBytes.AddUngated(float64(s.bytes() - old))
	return s
}

// broadcast runs fn(w) exactly once on every worker's own goroutine
// and waits for all of them. Workers grab jobs competitively, so a
// plain send of W jobs could hand two to the same worker; here each
// job parks on a gate until all W jobs are held — and with only W
// workers, W held jobs means W distinct holders. Must not be called
// concurrently with For (it shares the pool's WaitGroup).
func (p *Pool) broadcast(fn func(worker int)) {
	var gate sync.WaitGroup
	gate.Add(p.workers)
	p.panicked.Store(nil)
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.jobs <- func(self int) {
			gate.Done()
			gate.Wait()
			fn(self)
		}
	}
	p.wg.Wait()
	if pv := p.panicked.Load(); pv != nil {
		panic(pv.val)
	}
}

// SetSticky toggles sticky scheduling for subsequent ForSticky calls.
// Must not be called concurrently with an in-flight For.
func (p *Pool) SetSticky(on bool) { p.sticky.Store(on) }

// StickyEnabled reports whether ForSticky uses the static mapping.
func (p *Pool) StickyEnabled() bool { return p.sticky.Load() }

// Pinned reports whether pinning is currently requested (it may still
// have failed on every worker; see PinnedWorkers and PinError).
func (p *Pool) Pinned() bool { return p.pinOn.Load() }

// PinnedWorkers reports how many workers are pinned to a core.
func (p *Pool) PinnedWorkers() int {
	n := 0
	for w := range p.placement {
		if p.placement[w].Load() >= 0 {
			n++
		}
	}
	return n
}

// Placement returns each worker's pinned CPU core, -1 where unpinned.
func (p *Pool) Placement() []int {
	out := make([]int, p.workers)
	for w := range out {
		out[w] = int(p.placement[w].Load())
	}
	return out
}

// PinError returns the first pinning failure observed (nil if none).
// A non-nil PinError with PinnedWorkers()==0 means pinning degraded to
// a no-op, e.g. on a non-linux platform or under a cgroup that denies
// sched_setaffinity.
func (p *Pool) PinError() error {
	if pf := p.pinErr.Load(); pf != nil {
		return pf.err
	}
	return nil
}

// SetPinned pins (on=true) or unpins every pool worker to its own CPU
// core, chosen from PoolOptions.CPUs or the thread's allowed set. The
// returned error reports why pinning is unavailable or incomplete;
// execution always continues correctly either way (failed workers just
// run unpinned). Must not be called concurrently with For.
func (p *Pool) SetPinned(on bool) error {
	if !on {
		if !p.pinOn.Swap(false) {
			return nil
		}
		if affinitySupported() {
			allowed, _ := allowedCPUs()
			p.broadcast(func(w int) { p.unpinWorker(w, allowed) })
		}
		telemetry.PoolWorkersPinned.SetUngated(0)
		return nil
	}
	if !affinitySupported() {
		p.pinErr.CompareAndSwap(nil, &pinFailure{err: errAffinityUnsupported})
		return errAffinityUnsupported
	}
	cpus := p.pinCPUs
	if len(cpus) == 0 {
		allowed, err := allowedCPUs()
		if err != nil {
			p.pinErr.CompareAndSwap(nil, &pinFailure{err: err})
			return err
		}
		// Default order: interleave the allowed CPUs across NUMA nodes
		// so any worker count spreads over all memory controllers (a
		// no-op reorder on single-node machines or without sysfs).
		cpus = numaInterleaved(allowed)
	}
	if len(cpus) == 0 {
		p.pinErr.CompareAndSwap(nil, &pinFailure{err: errAffinityUnsupported})
		return errAffinityUnsupported
	}
	p.pinOn.Store(true)
	p.broadcast(func(w int) { p.pinWorker(w, cpus[w%len(cpus)]) })
	pinned := p.PinnedWorkers()
	telemetry.PoolWorkersPinned.SetUngated(float64(pinned))
	if pinned == 0 {
		// Every worker was refused: degrade fully so the serial fast
		// path comes back and PinError carries the cause.
		p.pinOn.Store(false)
	}
	if pinned < p.workers {
		return p.PinError()
	}
	return nil
}

// pinWorker runs on worker w's own goroutine (via broadcast).
func (p *Pool) pinWorker(w, cpu int) {
	if !p.locked[w] {
		// The affinity mask applies to the OS thread; the goroutine
		// must stay on it or the mask pins the wrong code.
		runtime.LockOSThread()
		p.locked[w] = true
	}
	if err := setThreadAffinity(cpu); err != nil {
		p.pinErr.CompareAndSwap(nil, &pinFailure{err: err})
		p.placement[w].Store(-1)
		telemetry.PoolWorkerCPU.Gauge(strconv.Itoa(w)).SetUngated(-1)
		return
	}
	p.placement[w].Store(int64(cpu))
	telemetry.PoolWorkerCPU.Gauge(strconv.Itoa(w)).SetUngated(float64(cpu))
}

// unpinWorker runs on worker w's own goroutine (via broadcast).
func (p *Pool) unpinWorker(w int, allowed []int) {
	if len(allowed) > 0 {
		resetThreadAffinity(allowed)
	}
	if p.locked[w] {
		runtime.UnlockOSThread()
		p.locked[w] = false
	}
	p.placement[w].Store(-1)
	telemetry.PoolWorkerCPU.Gauge(strconv.Itoa(w)).SetUngated(-1)
}

// For executes body(i) for every i in [0, n), distributing iterations
// over the pool with dynamic chunked self-scheduling, and returns when
// all iterations have completed. It is the moral equivalent of
// "#pragma omp parallel for schedule(dynamic, chunk)".
func (p *Pool) For(n int, body func(i int)) {
	p.ForChunked(n, 0, body)
}

// ForChunked is For with an explicit chunk size; chunk <= 0 selects an
// automatic size (see dispatchDynamic).
func (p *Pool) ForChunked(n, chunk int, body func(i int)) {
	p.parFor(n, chunk, false, func(i, _ int) { body(i) })
}

// ForSticky executes body(i, worker) for every i in [0, n), where
// worker is the id of the pool worker running that iteration (0 on the
// inline fast path). With sticky mode on, worker w owns the static
// range [w*n/W, (w+1)*n/W) — identical across regions of the same n,
// so block data stays in the core that touched it last region — and
// idle workers steal from the back of other queues to cover tail
// imbalance. With sticky mode off it behaves like For.
//
// The worker id makes per-worker state (sharded telemetry counters,
// first-touch page placement) addressable from the body.
func (p *Pool) ForSticky(n int, body func(i, worker int)) {
	p.parFor(n, 0, p.sticky.Load(), body)
}

// parFor is the shared front of For/ForChunked/ForSticky: telemetry
// sampling, the serial fast path, and mode selection.
func (p *Pool) parFor(n, chunk int, sticky bool, body func(i, worker int)) {
	if n <= 0 {
		return
	}
	// Telemetry is sampled once per region; traced is false in the
	// common disabled case and the guards below cost one branch each.
	traced := telemetry.Enabled()
	var t0 time.Time
	if traced {
		t0 = time.Now()
		telemetry.PoolForSize.Observe(float64(n))
	}
	// Serial fast path: a single worker (or tiny trip count) should not
	// bounce through channels at all — unless workers are pinned, in
	// which case running inline on the caller's unpinned goroutine
	// would silently defeat placement.
	if (p.workers == 1 || n == 1) && !p.pinOn.Load() {
		for i := 0; i < n; i++ {
			body(i, 0)
		}
		if traced {
			telemetry.PoolForSeconds.Observe(time.Since(t0).Seconds())
		}
		return
	}
	if sticky && n <= math.MaxInt32 {
		p.dispatchSticky(n, traced, t0, body)
	} else {
		p.dispatchDynamic(n, chunk, traced, t0, body)
	}
	if traced {
		telemetry.PoolForSeconds.Observe(time.Since(t0).Seconds())
	}
	if pv := p.panicked.Load(); pv != nil {
		panic(pv.val)
	}
}

// dispatchDynamic runs the region with chunked self-scheduling off a
// shared cursor. chunk <= 0 selects an automatic size of
// max(1, n/(8*runners)) — eight chunks per runner actually dispatched,
// so small stages do not pay excessive atomic traffic and large stages
// still balance load.
func (p *Pool) dispatchDynamic(n, chunk int, traced bool, t0 time.Time, body func(i, worker int)) {
	runners := p.workers
	if runners > n {
		runners = n
	}
	if chunk <= 0 {
		chunk = n / (8 * runners)
		if chunk < 1 {
			chunk = 1
		}
	}
	var next atomic.Int64
	p.panicked.Store(nil)
	p.wg.Add(runners)
	for w := 0; w < runners; w++ {
		p.jobs <- func(self int) {
			var blocks int64
			if traced {
				w0 := time.Now()
				// Both gauge halves bypass the enabled gate: the pair
				// was admitted by the traced sample above, and gating
				// the decrement would drift the gauge permanently if
				// telemetry were toggled off mid-region.
				telemetry.PoolWorkersBusy.AddUngated(1)
				defer func() {
					telemetry.PoolWorkersBusy.AddUngated(-1)
					telemetry.DefaultTracer.RecordSpan(telemetry.Event{
						Name: "worker", Cat: "par", TID: self + 1,
						Phase: -1, Stage: -1, Blocks: blocks,
					}, w0)
				}()
			}
			for p.panicked.Load() == nil {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					body(i, self)
				}
				if traced {
					blocks += int64(end - start)
					telemetry.PoolBlocksDynamic.Add(self, uint64(end-start))
				}
			}
		}
	}
	if traced {
		// All runners are in workers' hands: the dispatch latency.
		telemetry.PoolDispatchSeconds.Observe(time.Since(t0).Seconds())
	}
	p.wg.Wait()
}

// dispatchSticky runs the region with the static block→worker mapping:
// each worker's deque is reloaded with its own range, every worker
// gets one job (even when its range is empty — it will steal), and
// runners that drain their own deque steal halves from the others,
// round-robin starting at their right neighbour.
func (p *Pool) dispatchSticky(n int, traced bool, t0 time.Time, body func(i, worker int)) {
	W := p.workers
	for w := 0; w < W; w++ {
		p.queues[w].reset(w*n/W, (w+1)*n/W)
	}
	p.panicked.Store(nil)
	p.wg.Add(W)
	for w := 0; w < W; w++ {
		p.jobs <- func(self int) { p.runSticky(traced, self, body) }
	}
	if traced {
		telemetry.PoolDispatchSeconds.Observe(time.Since(t0).Seconds())
	}
	p.wg.Wait()
}

// runSticky is one worker's share of a sticky region: drain the own
// deque from the front, then sweep the other deques once, stealing
// halves from the back until everything is claimed. Every item is
// claimed exactly once (single-CAS transfers), and deques only drain
// within a region, so one sweep suffices for termination.
func (p *Pool) runSticky(traced bool, self int, body func(i, worker int)) {
	var blocks int64
	if traced {
		w0 := time.Now()
		telemetry.PoolWorkersBusy.AddUngated(1)
		defer func() {
			telemetry.PoolWorkersBusy.AddUngated(-1)
			telemetry.DefaultTracer.RecordSpan(telemetry.Event{
				Name: "worker", Cat: "par", TID: self + 1,
				Phase: -1, Stage: -1, Blocks: blocks,
			}, w0)
		}()
	}
	W := p.workers
	run := func(start, end int) {
		for i := start; i < end; i++ {
			body(i, self)
		}
		if traced {
			blocks += int64(end - start)
			telemetry.PoolBlocksSticky.Add(self, uint64(end-start))
		}
	}
	for p.panicked.Load() == nil {
		start, end, ok := p.queues[self].claim()
		if !ok {
			break
		}
		run(start, end)
	}
	for off := 1; off < W && p.panicked.Load() == nil; off++ {
		victim := (self + off) % W
		for p.panicked.Load() == nil {
			start, end, ok := p.queues[victim].stealHalf()
			if !ok {
				break
			}
			if traced {
				telemetry.PoolSteals.Inc(self)
			}
			run(start, end)
		}
	}
}

// Run executes fn(w) once for each worker id w in [0, Workers())
// concurrently and waits for all of them. Unlike For, Run guarantees
// every id runs exactly once, so callers can pin per-lane state to ids
// (e.g. the pipelined wavefront baseline). It uses fresh goroutines
// rather than the job queue: pool workers grab jobs competitively, so
// the queue cannot guarantee distinct-id coverage.
// A panicking fn does not kill its goroutine unrecovered (which would
// crash the process): the first panic is captured and re-raised from
// the Run caller after every lane has finished.
func (p *Pool) Run(fn func(worker int)) {
	if p.workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	var first atomic.Pointer[capturedPanic]
	wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					first.CompareAndSwap(nil, &capturedPanic{val: r})
				}
			}()
			fn(w)
		}(w)
	}
	wg.Wait()
	if pv := first.Load(); pv != nil {
		panic(pv.val)
	}
}
