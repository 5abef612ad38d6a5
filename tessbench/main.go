// Command tessbench is the repository's benchmark. One invocation runs
// one named workload for a fixed time, checks every output against the
// internal/naive oracle, and prints a human-readable report followed by
// one JSON line:
//
//	tessbench --workload heat3d-dram --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// telemetry off. With --trace 1 the run is repeated with telemetry on
// and timing wrappers installed around the calls the benchmark makes
// into each module; the JSON then carries the per-layer ledger, and the
// recorded spans are written as Chrome trace JSON under
// .bench_build/traces/. The benchmark adds no instrumentation inside
// the program: every layer is timed from outside, and the existing
// internal/telemetry counters and spans are read after the run.
//
// Tilings are what users get by default (Options{} / JobOptions{}), so
// no timed path ever runs the autotuner. The six baseline schemes,
// codegen and autotune are deliberately not measured; naive runs only
// as the oracle and the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured phase
	trace   bool
	threads int
	rec     *recorder // span recorder; non-nil only when trace is set
}

// budget returns the measured phase's length as a duration.
func (c runConfig) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// report is a workload's outcome: metrics by name plus the attempt
// ledger and free-form lines for the human-readable part of the output.
type report struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	// mismatches counts outputs that differed from the oracle (also
	// counted in failed).
	mismatches int
	notes      []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// count adds a measured phase's attempts and failures to the ledger,
// checking every successful op's output digest against the oracle's.
func (r *report) count(st opStats, oracle uint64) {
	mm := mismatches(st.digests, oracle)
	r.attempted += st.attempted
	r.failed += st.failed + mm
	r.mismatches += mm
	for _, e := range st.errs {
		r.notef("op error: %s", e)
	}
}

// opMetrics fills the end-to-end metrics of a workload whose op is one
// timed call (a library solve or an all-ranks dist run) doing updates
// point updates, and returns its mlups.
func (r *report) opMetrics(st opStats, updates float64, setupS []float64) float64 {
	wall := median(st.walls)
	r.e2e["mlups"] = updates / wall / 1e6
	r.e2e["latency_p50_s"] = wall
	r.e2e["sustained_jobs_per_s"] = float64(len(st.walls)) / sum(st.walls)
	r.e2e["setup_s"] = median(setupS)
	r.e2e["alloc_kb_per_op"] = float64(st.allocBytes) / float64(len(st.walls)) / 1024
	return r.e2e["mlups"]
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named traffic shape of the benchmark.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"heat3d-dram", "Engine.Run3D heat-3d at 544^3, 4x the LLC per buffer: the paper's DRAM-traffic claim; bypasses server, dist, pipelines and masks", runHeat3D},
	{"rk2-lshape", "Engine.RunPipeline2D 3-stage RK2 on an L-shaped 2048^2 mask, LLC-resident: fused-pipeline scratch, recompute, mask classification and dispatch", runRK2},
	{"serve-mix", "tessserve on loopback under open-loop Poisson load, two tenants, mixed 2D/3D/masked jobs with 10% repeats: admission, queue, caches, HTTP", runServe},
	{"dist-tcp2", "two dist.Ranks over loopback dist.TCPTransport with overlap on, heat-2d: the only workload that runs the dist framing and exchange", runDist},
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics, printed by every untraced run.
var e2eMetrics = []metricDef{
	{"mlups", "MLUP/s"},
	{"latency_p50_s", "s"},
	{"sustained_jobs_per_s", "jobs/s"},
	{"setup_s", "s"},
	{"alloc_kb_per_op", "KiB"},
}

// layerMetrics are the per-layer metrics, printed by every traced run.
// A layer a workload does not exercise reads 0 and is listed as such
// in the human-readable report.
var layerMetrics = []metricDef{
	{"stencil.kernel_s", "s"},
	{"stencil.kernel_calls", "count"},
	{"stencil.kernel_points", "count"},
	{"stencil.kernel_mlups", "MLUP/s"},
	{"stencil.ceiling_incache_mlups", "MLUP/s"},
	{"stencil.ceiling_stream_mlups", "MLUP/s"},
	{"stencil.kernel_efficiency", "ratio"},
	{"core.schedule_build_s", "s"},
	{"core.exec_s", "s"},
	{"core.regions", "count"},
	{"core.blocks", "count"},
	{"core.points_updated", "count"},
	{"core.useful_ratio", "ratio"},
	{"core.nonkernel_share", "ratio"},
	{"core.block_overhead_share", "ratio"},
	{"core.stage0_s", "s"},
	{"core.stage1_s", "s"},
	{"core.stage2_s", "s"},
	{"core.stage3_s", "s"},
	{"core.diamond_s", "s"},
	{"core.unattributed_share", "ratio"},
	{"par.dispatch_s", "s"},
	{"par.dispatch_s_per_region", "s"},
	{"par.worker_idle_share", "ratio"},
	{"par.steals", "count"},
	{"grid.alloc_seed_s", "s"},
	{"grid.mask_build_s", "s"},
	{"grid.active_share", "ratio"},
	{"grid.arena_hit_ratio", "ratio"},
	{"naive.mlups_1t", "MLUP/s"},
	{"naive.mlups", "MLUP/s"},
	{"naive.speedup", "ratio"},
	{"mem.stream_gbs", "GB/s"},
	{"model.bytes_per_update", "B"},
	{"cachesim.bytes_per_update", "B"},
	{"mem.achieved_gbs", "GB/s"},
	{"mem.roofline_share", "ratio"},
	{"server.queue_s_p50", "s"},
	{"server.queue_s_p99", "s"},
	{"server.run_s_p50", "s"},
	{"server.run_s_p99", "s"},
	{"server.http_s_p50", "s"},
	{"server.http_s_p99", "s"},
	{"server.seed_s", "s"},
	{"server.checksum_s", "s"},
	{"server.result_cache_hit_ratio", "ratio"},
	{"server.sched_cache_hit_ratio", "ratio"},
	{"server.rejected_share", "ratio"},
	{"server.unattributed_share", "ratio"},
	{"bench.latency_p99_s", "s"},
	{"bench.send_delay_s_p99", "s"},
	{"bench.completed_share", "ratio"},
	{"bench.failed_share", "ratio"},
	{"dist.send_s", "s"},
	{"dist.recv_s", "s"},
	{"dist.messages", "count"},
	{"dist.bytes", "B"},
	{"dist.exchange_blocked_s", "s"},
	{"dist.exchange_share", "ratio"},
	{"dist.unattributed_share", "ratio"},
	{"telemetry.overhead_share", "ratio"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: drives every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "tessbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, threads: runtime.NumCPU()}
	if cfg.trace {
		cfg.rec = newRecorder()
	}
	host := fingerprint()
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tessbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res := jsonResult{
		Correct:   rep.failed == 0 && rep.mismatches == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	defs, vals := e2eMetrics, rep.e2e
	if cfg.trace {
		defs, vals = layerMetrics, rep.layers
		rep.layers["bench.failed_share"] = ratio(float64(rep.failed), float64(rep.attempted))
		if v, ok := rep.e2e["latency_p99_s"]; ok {
			rep.layers["bench.latency_p99_s"] = v
		}
	}
	var idle, broken []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			idle = append(idle, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN or infinity; the name is listed below.
			broken = append(broken, fmt.Sprintf("%s=%v", d.name, v))
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}

	fmt.Printf("tessbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("why: %s\n", w.why)
	host.print(os.Stdout)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	fmt.Printf("attempted=%d failed=%d oracle_mismatches=%d failed_share=%g\n",
		rep.attempted, rep.failed, rep.mismatches, ratio(float64(rep.failed), float64(rep.attempted)))
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if v, ok := rep.e2e["latency_p99_s"]; ok && !cfg.trace {
		fmt.Printf("  %-32s %14.6g s (reported, not gated: see bench.latency_p99_s)\n", "latency_p99_s", v)
	}
	if len(idle) > 0 {
		fmt.Printf("not measured on this workload (reported as 0): %s\n", strings.Join(idle, " "))
	}
	if len(broken) > 0 {
		fmt.Printf("not finite (reported as 0): %s\n", strings.Join(broken, " "))
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := cfg.rec.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "tessbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s (%d spans)\n", path, cfg.rec.len())
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tessbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}
