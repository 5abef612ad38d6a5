package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tessellate/internal/telemetry"
)

// span is one recorded interval of the traced run. Spans of one op
// share op; parent is the id of the enclosing span (0 for an op's
// root).
type span struct {
	id, parent, op int64
	name, cat      string
	tid            int
	start, end     time.Time
}

// recorder keeps the traced run's spans in memory until the benchmark
// ends. A nil recorder records nothing, so untraced code paths call it
// unconditionally.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span id, so a parent can be recorded after the
// children that name it.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// addID records a finished span under a reserved id.
func (r *recorder) addID(id, op, parent int64, name, cat string, tid int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{id: id, parent: parent, op: op, name: name, cat: cat, tid: tid, start: start, end: end})
}

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(op, parent int64, name, cat string, tid int, start, end time.Time) int64 {
	id := r.newID()
	r.addID(id, op, parent, name, cat, tid, start, end)
	return id
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// importTelemetry moves the spans the program itself recorded into
// telemetry.DefaultTracer since epoch (the instant the tracer was last
// reset) into the recorder, as children of parent within op, and
// resets the tracer. Their lanes keep the tracer's TID (pool worker,
// dist rank), offset so they do not collide with the benchmark's own.
func (r *recorder) importTelemetry(op, parent int64, epoch time.Time) []telemetry.Event {
	evs := telemetry.DefaultTracer.Events()
	telemetry.DefaultTracer.Reset()
	for _, ev := range evs {
		st := epoch.Add(time.Duration(ev.TS))
		r.add(op, parent, ev.Name, ev.Cat, 100+ev.TID, st, st.Add(time.Duration(ev.Dur)))
	}
	return evs
}

type chromeSpan struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args"`
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events, microseconds), creating the file's directory.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	out := struct {
		TraceEvents     []chromeSpan `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms", TraceEvents: make([]chromeSpan, 0, len(r.spans))}
	for _, s := range r.spans {
		out.TraceEvents = append(out.TraceEvents, chromeSpan{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS:  float64(s.start.Sub(r.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.tid,
			Args: map[string]int64{"op": s.op, "span": s.id, "parent": s.parent},
		})
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// telSnap is a point-in-time copy of the telemetry counters the
// ledger reads; sub turns two snapshots into the window between them.
type telSnap struct {
	points, blocks, steals, kernelCalls uint64
	dispatch, exchange                  telemetry.HistSnapshot
	stage0, stage1, stage2, stage3, dia telemetry.HistSnapshot
}

func takeSnap() telSnap {
	st := func(kind string) telemetry.HistSnapshot {
		return telemetry.StageDuration.Histogram(kind).Snapshot()
	}
	return telSnap{
		points: telemetry.PointsUpdated.Value(),
		blocks: telemetry.BlocksExecuted.Value(),
		steals: telemetry.PoolSteals.Value(),
		kernelCalls: telemetry.KernelCallsRow.Value() + telemetry.KernelCallsBlock.Value() +
			telemetry.KernelCallsSIMD.Value(),
		dispatch: telemetry.PoolDispatchSeconds.Snapshot(),
		exchange: telemetry.DistExchangeSeconds.Snapshot(),
		stage0:   st("stage0"),
		stage1:   st("stage1"),
		stage2:   st("stage2"),
		stage3:   st("stage3"),
		dia:      st("diamond"),
	}
}

func (s telSnap) sub(e telSnap) telSnap {
	return telSnap{
		points:      s.points - e.points,
		blocks:      s.blocks - e.blocks,
		steals:      s.steals - e.steals,
		kernelCalls: s.kernelCalls - e.kernelCalls,
		dispatch:    s.dispatch.Delta(e.dispatch),
		exchange:    s.exchange.Delta(e.exchange),
		stage0:      s.stage0.Delta(e.stage0),
		stage1:      s.stage1.Delta(e.stage1),
		stage2:      s.stage2.Delta(e.stage2),
		stage3:      s.stage3.Delta(e.stage3),
		dia:         s.dia.Delta(e.dia),
	}
}
