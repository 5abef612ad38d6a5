// Command stencilbench regenerates the paper's evaluation: Table 4
// workloads, the scaling figures (8, 9, 10, 11a, 11b) and the Heat-3D
// memory-performance figure (12), plus the ablation study of the
// implementation's design choices.
//
// Usage:
//
//	stencilbench -list                 # print Table 4
//	stencilbench -fig 10 -scale 16     # regenerate Figure 10 at 1/16 scale
//	stencilbench -fig all -scale 32
//	stencilbench -ablate               # coarsening / merging / tile-height ablation
//	stencilbench -concurrency          # barriers & parallelism per scheme
//	stencilbench -adaptive             # online re-tuning demo (pessimal seed vs adaptive)
//	stencilbench -compare-placement    # dynamic vs sticky(+pin) scheduling comparison
//	stencilbench -compare-kernels      # row vs fused block kernel dispatch comparison
//	stencilbench -compare-coarsening   # none vs global vs per-stage dispatch coarsening
//	stencilbench -compare-dist         # sync vs overlapped halo exchange over loopback TCP
//	stencilbench -pipeline             # fused multi-stage pipelines vs the naive reference
//	stencilbench -mask                 # masked (irregular-domain) runs vs the naive reference
//	stencilbench -paper -fig 8         # full paper problem sizes (hours!)
//	stencilbench -threads 1,2,4,8      # thread sweep points
//	stencilbench -fig 10 -coarsen-per-stage 8,2   # fixed per-stage coarsening vector
//
// Scheduling & placement (see DESIGN.md §Scheduling & placement):
//
//	stencilbench -fig 10 -sticky -pin       # sticky block→worker mapping on pinned workers
//	stencilbench -compare-placement -json BENCH_PAR.json
//
// Observability (see DESIGN.md §Observability):
//
//	stencilbench -fig 10 -telemetry :8080   # serve /metrics, /trace, /debug/pprof
//	stencilbench -fig 11a -trace out.json   # dump a Chrome trace of the run
//
// Flag matrix — exactly one mode flag per invocation, and the
// modifiers each mode accepts:
//
//	mode                 | -scale/-paper  -threads  -csv  -pin/-sticky  -telemetry/-trace
//	-list                |      no           no      no        no              no
//	-fig <one>           |     yes          yes     yes       yes             yes
//	-fig all             |     yes          yes      no       yes             yes
//	-ablate              |     yes          yes      no       yes             yes
//	-concurrency         |     yes           no      no        no             yes
//	-adaptive            |     yes          yes      no       yes             yes
//	-compare-placement   |     yes          yes      no        no             yes
//	-compare-kernels     |     yes          yes      no       yes             yes
//	-compare-coarsening  |     yes          yes      no       yes             yes
//	-compare-dist        |     yes          yes      no        no             yes
//	-pipeline            |     yes          yes      no        no             yes
//	-mask                |     yes          yes      no        no             yes
//
// -csv needs a single -fig to name the measurement sweep it exports;
// combining it with -list, -ablate, -concurrency, -adaptive or
// -fig all is an error rather than a silent no-op. -drift and
// -interval tune the -adaptive controller and are ignored elsewhere.
// -pin/-sticky apply the placement knobs to every measurement of the
// run; -compare-placement measures all placements itself, so the knobs
// are rejected there, and -json names its machine-readable output
// (the BENCH_PAR.json schema). -compare-kernels measures the row vs
// fused-block kernel dispatch paths (BENCH_KERNELS.json schema) and
// enforces bitwise checksum agreement between them.
// -pipeline measures the fused multi-stage pipeline executor against
// the barriered naive reference (rk2, split high-order and leapfrog
// steppers; BENCH_PIPELINE.json schema, checksums enforced bitwise);
// -mask does the same for the masked executors on L-shaped and
// obstacle domains (BENCH_MASK.json schema). Both report each scheme's
// median of 5 warmed repeats, re-seeded outside the timer, with the
// checksum checked on every repeat.
// -compare-dist measures the synchronous vs overlapped distributed
// halo exchange over loopback TCP at 2 and 4 ranks, bare and with
// injected per-message latency (BENCH_DIST.json schema, every cell's
// checksum enforced bitwise against a single-rank run).
// -coarsen-per-stage applies a fixed per-stage dispatch coarsening
// vector (comma-separated factors, entry i for stage-i regions;
// see Options.CoarsenPerStage) to every tessellation measurement of
// the run; -compare-coarsening measures the uncoarsened, best-global
// and autotuned per-stage variants itself (BENCH_COARSEN.json schema,
// checksums enforced across variants), so the knob is rejected there.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"

	"tessellate"
	"tessellate/internal/bench"
	"tessellate/internal/telemetry"
)

func main() {
	var (
		fig     = flag.String("fig", "", "figure to regenerate: 8, 9, 10, 11a, 11b, 12 or all")
		scale   = flag.Int("scale", 16, "problem size divisor (1 = paper size)")
		paper   = flag.Bool("paper", false, "use full paper problem sizes (overrides -scale)")
		threads = flag.String("threads", "", "comma-separated thread counts (default 1..GOMAXPROCS doubling)")
		list    = flag.Bool("list", false, "print the Table 4 workloads and exit")
		ablate  = flag.Bool("ablate", false, "run the ablation study")
		conc    = flag.Bool("concurrency", false, "print the concurrency/synchronization profile of the schemes")
		adapt   = flag.Bool("adaptive", false, "run the online re-tuning demo (heat-2d, pessimal seed vs adaptive)")
		drift   = flag.Float64("drift", 0.5, "adaptive: relative mean-shift threshold that triggers a re-tune")
		interva = flag.Int("interval", 4, "adaptive: phases between drift checks")
		csvOut  = flag.String("csv", "", "write a figure's measurements as CSV to this file (requires a single -fig)")
		pin     = flag.Bool("pin", false, "pin pool workers to CPU cores (linux; degrades to a no-op elsewhere)")
		sticky  = flag.Bool("sticky", false, "use the sticky (static) block→worker mapping with work-stealing")
		cmpPl   = flag.Bool("compare-placement", false, "compare dynamic vs sticky(+pin) scheduling on Heat-2D/3D and sweep dispatch overhead")
		cmpKr   = flag.Bool("compare-kernels", false, "compare row vs fused block kernel dispatch on Heat-2D/3D plus a short-row sweep")
		cmpCo   = flag.Bool("compare-coarsening", false, "compare uncoarsened vs best-global vs per-stage dispatch coarsening on Heat-2D/3D plus a fine-grain sweep")
		cmpDs   = flag.Bool("compare-dist", false, "compare sync vs overlapped halo exchange over loopback TCP at 2/4 ranks, bare and latency-padded")
		pipe    = flag.Bool("pipeline", false, "compare the fused multi-stage pipeline executor vs the naive reference (rk2/split/leapfrog over heat-2d, checksums enforced)")
		mask    = flag.Bool("mask", false, "compare the masked (irregular-domain) executors vs the naive reference (lshape/obstacle, checksums enforced)")
		coarsen = flag.String("coarsen-per-stage", "", "comma-separated per-stage dispatch coarsening factors applied to tessellation measurements (entry i = stage i)")
		jsonOut = flag.String("json", "", "compare-placement/-compare-kernels/-compare-coarsening: also write the report as JSON to this file")
		telAddr = flag.String("telemetry", "", "serve /metrics, /trace and /debug/pprof on this address (e.g. :8080) and enable instrumentation")
		traceTo = flag.String("trace", "", "write a Chrome trace_event JSON dump of the run to this file (enables instrumentation)")
	)
	flag.Parse()

	if *paper {
		*scale = 1
	}
	ths, err := parseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	if *csvOut != "" && (*fig == "" || *fig == "all" || *list || *ablate || *conc || *adapt || *cmpPl || *cmpKr || *cmpCo || *cmpDs || *pipe || *mask) {
		fatal(fmt.Errorf("-csv requires a single -fig (8, 9, 10, 11a, 11b or 12); it cannot be combined with -list, -ablate, -concurrency, -adaptive, -compare-placement, -compare-kernels, -compare-coarsening, -compare-dist or -fig all"))
	}
	if *cmpPl && (*pin || *sticky) {
		fatal(fmt.Errorf("-compare-placement measures every placement itself; -pin/-sticky cannot be combined with it"))
	}
	if moreThanOne(*cmpKr, *cmpPl, *cmpCo, *cmpDs, *pipe, *mask) {
		fatal(fmt.Errorf("-compare-kernels, -compare-placement, -compare-coarsening, -compare-dist, -pipeline and -mask are separate modes; pick one"))
	}
	if *jsonOut != "" && !*cmpPl && !*cmpKr && !*cmpCo && !*cmpDs && !*pipe && !*mask {
		fatal(fmt.Errorf("-json is only meaningful with -compare-placement, -compare-kernels, -compare-coarsening, -compare-dist, -pipeline or -mask"))
	}
	if *coarsen != "" {
		if *cmpCo {
			fatal(fmt.Errorf("-compare-coarsening measures every coarsening variant itself; -coarsen-per-stage cannot be combined with it"))
		}
		per, err := parseCoarsening(*coarsen)
		if err != nil {
			fatal(err)
		}
		bench.SetCoarsening(per)
	}
	bench.SetPlacement(bench.Placement{Sticky: *sticky, Pin: *pin, FirstTouch: *sticky || *pin})

	if *telAddr != "" || *traceTo != "" {
		telemetry.Enable()
	}
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics /trace /debug/pprof\n", srv.Addr())
	}

	switch {
	case *list:
		printTable4()
	case *conc:
		for _, fig := range []string{"10", "11a"} {
			for _, w := range bench.ByFigure(fig) {
				if err := bench.PrintProfiles(os.Stdout, w.Scaled(*scale)); err != nil {
					fatal(err)
				}
				fmt.Println()
			}
		}
	case *ablate:
		if err := bench.RunAblation(os.Stdout, *scale, ths[len(ths)-1]); err != nil {
			fatal(err)
		}
	case *adapt:
		if err := runAdaptiveDemo(os.Stdout, *scale, ths[len(ths)-1], *drift, *interva); err != nil {
			fatal(err)
		}
	case *cmpPl:
		if err := runComparePlacement(os.Stdout, *scale, ths[len(ths)-1], *jsonOut); err != nil {
			fatal(err)
		}
	case *cmpKr:
		if err := runCompareKernels(os.Stdout, *scale, ths[len(ths)-1], *jsonOut); err != nil {
			fatal(err)
		}
	case *cmpCo:
		if err := runCompareCoarsening(os.Stdout, *scale, ths[len(ths)-1], *jsonOut); err != nil {
			fatal(err)
		}
	case *cmpDs:
		if err := runCompareDist(os.Stdout, *scale, ths[len(ths)-1], *jsonOut); err != nil {
			fatal(err)
		}
	case *pipe:
		if err := runComparePipelines(os.Stdout, *scale, ths[len(ths)-1], *jsonOut); err != nil {
			fatal(err)
		}
	case *mask:
		if err := runCompareMasks(os.Stdout, *scale, ths[len(ths)-1], *jsonOut); err != nil {
			fatal(err)
		}
	case *fig == "all":
		for _, f := range []string{"8", "9", "10", "11a", "11b", "12"} {
			if err := bench.RunFigure(os.Stdout, f, *scale, ths); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	case *fig != "" && *csvOut != "":
		var ms []bench.Measurement
		for _, w := range bench.ByFigure(*fig) {
			sweep, err := bench.ThreadSweep(w.Scaled(*scale), bench.FigureSchemes(*fig), ths)
			if err != nil {
				fatal(err)
			}
			ms = append(ms, sweep...)
		}
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := bench.WriteCSV(f, ms); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(ms), *csvOut)
	case *fig != "":
		if err := bench.RunFigure(os.Stdout, *fig, *scale, ths); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *traceTo != "" {
		f, err := os.Create(*traceTo)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.DefaultTracer.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceTo)
	}
}

func parseThreads(s string) ([]int, error) {
	if s == "" {
		max := runtime.GOMAXPROCS(0)
		out := []int{1}
		for t := 2; t <= max; t *= 2 {
			out = append(out, t)
		}
		return out, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("stencilbench: bad thread count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// moreThanOne reports whether more than one of the flags is set.
func moreThanOne(flags ...bool) bool {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n > 1
}

func parseCoarsening(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 || v > tessellate.MaxCoarsenFactor {
			return nil, fmt.Errorf("stencilbench: bad coarsening factor %q (want 1..%d)", f, tessellate.MaxCoarsenFactor)
		}
		out = append(out, v)
	}
	return out, nil
}

func printTable4() {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "figure\tkernel\tproblem size\tour blocking (Big x bt)\tPluto blocking (BX x 2bt)")
	for _, w := range bench.Table4 {
		fmt.Fprintf(tw, "%s\t%s\t%vx%d\t%vx%d\t%dx%d\n",
			w.Figure, w.Kernel, w.N, w.Steps, w.TessBig, w.TessBT, w.DiamondBX, 2*w.DiamondBT)
	}
	tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stencilbench:", err)
	os.Exit(1)
}
