package telemetry

import (
	"bufio"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// withEnabled turns instrumentation on for one test and restores the
// previous state afterwards. Tests in this package must not run in
// parallel: they share the package-level flag.
func withEnabled(t *testing.T) {
	t.Helper()
	was := Enabled()
	Enable()
	t.Cleanup(func() {
		if !was {
			Disable()
		}
	})
}

func TestCounterBasics(t *testing.T) {
	withEnabled(t)
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	withEnabled(t)
	var g Gauge
	g.Set(2.5)
	g.Add(-1.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("Value = %g, want 1", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	withEnabled(t)
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 556.5 {
		t.Fatalf("Sum = %g, want 556.5", got)
	}
	// le=1 inclusive: {0.5, 1}; (1,10]: {5}; (10,100]: {50}; +Inf: {500}.
	want := []uint64{2, 1, 1, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestDisabledWritesAreDropped(t *testing.T) {
	was := Enabled()
	Disable()
	defer func() {
		if was {
			Enable()
		}
	}()
	var c Counter
	var g Gauge
	h := NewHistogram([]float64{1})
	c.Inc()
	g.Set(3)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled writes recorded: c=%d g=%g h=%d", c.Value(), g.Value(), h.Count())
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	withEnabled(t)
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.RecordSpan(Event{Name: "x"}, time.Now())
	tr.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Len() != 0 {
		t.Fatal("nil handles recorded values")
	}
}

func TestConcurrentWriters(t *testing.T) {
	withEnabled(t)
	var c Counter
	var g Gauge
	h := NewHistogram(ExpBuckets(1, 2, 10))
	tr := NewTracer(64)
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 700))
				if i%100 == 0 {
					tr.RecordSpan(Event{Name: "span", TID: w}, time.Now())
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Fatalf("gauge = %g, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	var bucketSum uint64
	for _, b := range h.BucketCounts() {
		bucketSum += b
	}
	if bucketSum != h.Count() {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count())
	}
	if tr.Len() != 64 {
		t.Fatalf("tracer kept %d events, want full ring of 64", tr.Len())
	}
}

func TestFamilyChildrenAndKinds(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	f := r.NewCounter("x_total", "x.", "peer")
	f.Counter("0").Add(3)
	f.Counter("1").Add(4)
	if got := f.Counter("0").Value(); got != 3 {
		t.Fatalf("child 0 = %d, want 3", got)
	}
	// Re-registration with the same kind returns the same family.
	if r.NewCounter("x_total", "x.", "peer") != f {
		t.Fatal("re-registration returned a new family")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.NewGauge("x_total", "x.")
}

var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?[0-9.eE+-]+|\+Inf)$`)

func TestExpositionFormat(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.NewCounter("t_points_total", "Points.").Counter().Add(7)
	r.NewGauge("t_busy", "Busy \"workers\".", "pool").Gauge("a\nb").Set(1.5)
	r.NewHistogramFamily("t_lat_seconds", "Latency.", []float64{0.1, 1}).Histogram().Observe(0.5)
	r.NewCounter("t_empty_total", "Labelled, no children yet.", "peer")

	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE t_points_total counter",
		"t_points_total 7",
		"# TYPE t_busy gauge",
		`t_busy{pool="a\nb"} 1.5`,
		"# TYPE t_lat_seconds histogram",
		`t_lat_seconds_bucket{le="0.1"} 0`,
		`t_lat_seconds_bucket{le="1"} 1`,
		`t_lat_seconds_bucket{le="+Inf"} 1`,
		"t_lat_seconds_sum 0.5",
		"t_lat_seconds_count 1",
		"# TYPE t_empty_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every sample line must match the text-format grammar.
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("unparseable sample line %q", line)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 4, 4)
	want := []float64{1, 4, 16, 64}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

func TestCatalogRegisteredInDefault(t *testing.T) {
	names := map[string]bool{}
	for _, f := range Default.Families() {
		names[f.Name] = true
	}
	for _, want := range []string{
		"tess_pool_dispatch_seconds",
		"tess_pool_for_size",
		"tess_pool_workers_busy",
		"tess_stage_duration_seconds",
		"tess_blocks_executed_total",
		"tess_points_updated_total",
		"tess_pipeline_recomputed_points_total",
		"tess_dist_bytes_total",
		"tess_dist_messages_total",
		"tess_dist_exchange_seconds",
		"tess_bench_mupdates",
	} {
		if !names[want] {
			t.Fatalf("catalog family %s not registered in Default", want)
		}
	}
}
