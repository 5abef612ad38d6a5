package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"tessellate/internal/stencil"
	"tessellate/internal/telemetry"
)

// regionSpan accumulates observability data for one parallel region.
// Executors create one per region only while telemetry is enabled, so
// the disabled hot path pays a single branch per region.
type regionSpan struct {
	start  time.Time
	points int64 // atomically accumulated by block closures
}

// beginRegion starts a span when telemetry is enabled, else returns
// nil; all methods are nil-safe.
func beginRegion() *regionSpan {
	if !telemetry.Enabled() {
		return nil
	}
	return &regionSpan{start: time.Now()}
}

// visitCounts accumulates one worker's counts over a dispatch group.
type visitCounts struct {
	pts    int64
	calls  [3]int64 // kernel and blend calls by stencil.Path
	recomp int64    // pipeline intermediate points beyond the useful ones
}

// add records a dispatch group's counts; safe for concurrent block
// closures and on a nil span. worker is the pool worker id running the
// closure: the global counters are sharded per worker so the hot path
// never bounces a shared cache line between cores.
func (sp *regionSpan) add(worker int, c *visitCounts) {
	if sp == nil {
		return
	}
	atomic.AddInt64(&sp.points, c.pts)
	telemetry.PointsUpdated.Add(worker, uint64(c.pts))
	for path, n := range c.calls {
		if n > 0 {
			kernelCalls[path].Add(worker, uint64(n))
		}
	}
	if c.recomp > 0 {
		telemetry.PipelineRecomputedPoints.Add(worker, uint64(c.recomp))
	}
}

// kernelCalls are the kernel-call counters by stencil.Path.
var kernelCalls = [3]*telemetry.ShardedCounter{
	stencil.PathRow:   telemetry.KernelCallsRow,
	stencil.PathBlock: telemetry.KernelCallsBlock,
	stencil.PathSIMD:  telemetry.KernelCallsSIMD,
}

// end records the region's metrics and trace event. index is the
// region's position in the run's schedule.
func (sp *regionSpan) end(cfg *Config, r *Region, index int) {
	if sp == nil {
		return
	}
	kind := "stage"
	if r.Diamond {
		kind = "diamond"
	}
	dur := time.Since(sp.start).Seconds()
	telemetry.StageDuration.Histogram(kind).Observe(dur)
	if !r.Diamond {
		// Per-stage child in addition to the "stage" aggregate; diamond
		// regions already have a kind of their own.
		telemetry.StageDuration.Histogram(stageKind(r.Stage)).Observe(dur)
	}
	telemetry.StageBlocks.Counter(regionKind(r)).Add(uint64(len(r.Blocks)))
	telemetry.BlocksExecuted.Add(uint64(len(r.Blocks)))
	telemetry.DefaultTracer.RecordSpan(telemetry.Event{
		Name:   kind,
		Cat:    "core",
		Phase:  int64(r.Ref / cfg.BT),
		Stage:  int64(index),
		Blocks: int64(len(r.Blocks)),
		Points: sp.points,
	}, sp.start)
}

// stageLabels caches the per-stage kind labels for the dimensions the
// executors support, so the hot path never formats strings.
var stageLabels = [...]string{"stage0", "stage1", "stage2", "stage3", "stage4", "stage5", "stage6", "stage7", "stage8"}

// stageKind returns the telemetry kind label of stage index i.
func stageKind(i int) string {
	if i >= 0 && i < len(stageLabels) {
		return stageLabels[i]
	}
	return "stage" + strconv.Itoa(i)
}

// regionKind returns the telemetry kind label of a region: "diamond"
// for merged regions, "stage<i>" otherwise.
func regionKind(r *Region) string {
	if r.Diamond {
		return "diamond"
	}
	return stageKind(r.Stage)
}

// boxVolume returns the point count of the axis-aligned box [lo, hi).
func boxVolume(lo, hi []int) int64 {
	v := int64(1)
	for k := range lo {
		v *= int64(hi[k] - lo[k])
	}
	return v
}
