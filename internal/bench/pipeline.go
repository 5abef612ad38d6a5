package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tessellate"
)

// Pipeline and masked-domain comparison: the experiments behind
// stencilbench's -pipeline and -mask modes. Both run the tessellated
// executor against the naive reference on the same seeded input, time
// each scheme as the median of warmed repeats, and enforce bitwise
// checksum agreement — the fused pipeline evaluates
// exactly the stage tree the barriered oracle evaluates, and the
// masked fast path updates exactly the active set — so this is an
// equality check, not a tolerance.

// PipelineResult is one (pipeline workload, scheme) measurement.
type PipelineResult struct {
	Workload string  `json:"workload"`
	Stages   int     `json:"stages"`
	Scheme   string  `json:"scheme"`
	Seconds  float64 `json:"seconds"`
	// MUpdates counts millions of logical (whole-pipeline) point
	// updates per second.
	MUpdates float64 `json:"mupdates"`
	// SpeedupVsNaive is MUpdates relative to the naive run of the same
	// workload (1.0 for naive itself).
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
	Checksum       float64 `json:"checksum"`
}

// PipelineReport is the full -pipeline output (the schema of
// BENCH_PIPELINE.json).
type PipelineReport struct {
	Threads     int              `json:"threads"`
	Scale       int              `json:"scale"`
	Results     []PipelineResult `json:"results"`
	GeneratedBy string           `json:"generated_by"`
}

// pipelineCase is one multi-stage workload of the -pipeline mode.
type pipelineCase struct {
	name  string
	p     *tessellate.Pipeline
	n     []int
	steps int
	bt    int
}

// pipelineCases builds the measured pipelines at the given scale:
// an SSP-RK2 heat stepper, a split high-order chain and a leapfrog
// stepper reading the previous time level — the three stage shapes
// the executor supports.
func pipelineCases(scale int) []pipelineCase {
	w := ByFigure("10")[0].Scaled(scale) // heat-2d problem size
	return []pipelineCase{
		{
			name: "rk2-heat2d",
			p: &tessellate.Pipeline{Name: "rk2-heat2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
				{Spec: tessellate.Heat2D, In: 0},
				{Spec: tessellate.Heat2D, In: 1},
				{A: 0.5, In: 0, B: 0.5, InB: 2},
			}},
			n: w.N, steps: w.Steps, bt: maxInt(w.TessBT/2, 1),
		},
		{
			name: "split-heat-box2d",
			p: &tessellate.Pipeline{Name: "split-heat-box2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
				{Spec: tessellate.Heat2D, In: 0},
				{Spec: tessellate.Box2D9, In: 1},
			}},
			n: w.N, steps: w.Steps, bt: maxInt(w.TessBT/2, 1),
		},
		{
			name: "leapfrog-heat2d",
			p: &tessellate.Pipeline{Name: "leapfrog-heat2d", TmpHalo: 0.25, Stages: []tessellate.Stage{
				{Spec: tessellate.Heat2D, In: 0},
				{A: 2, In: 1, B: -1, InB: tessellate.PrevState},
			}},
			n: w.N, steps: w.Steps, bt: w.TessBT,
		},
	}
}

// ComparePipelines measures the fused tessellated pipeline executor
// against the barriered naive reference on each pipeline workload,
// enforcing bitwise checksum agreement.
func ComparePipelines(scale, threads int) (PipelineReport, error) {
	rep := PipelineReport{
		Threads:     threads,
		Scale:       scale,
		GeneratedBy: "stencilbench -pipeline",
	}
	eng := tessellate.NewEngine(threads)
	defer eng.Close()
	for _, c := range pipelineCases(scale) {
		if err := c.p.Validate(); err != nil {
			return rep, fmt.Errorf("bench: pipeline %s: %w", c.name, err)
		}
		slopes := c.p.Slopes()
		var naiveMUpdates, naiveChecksum float64
		for _, scheme := range []tessellate.Scheme{tessellate.Naive, tessellate.Tessellation} {
			g := tessellate.NewGrid2D(c.n[0], c.n[1], slopes[0], slopes[1])
			opt := tessellate.Options{Scheme: scheme, TimeTile: c.bt}
			secs, sum, err := medianRun(
				func() { g.Step = 0; seedPipeline2D(g, c.name) },
				func() error { return eng.RunPipeline2D(g, c.p, c.steps, nil, opt) },
				func() float64 { return checksum2D(g) })
			if err != nil {
				return rep, fmt.Errorf("bench: %s/%v: %w", c.name, scheme, err)
			}
			updates := float64(c.n[0]) * float64(c.n[1]) * float64(c.steps)
			speedup := 1.0
			if scheme == tessellate.Naive {
				naiveMUpdates, naiveChecksum = updates/secs/1e6, sum
			} else {
				if sum != naiveChecksum {
					return rep, fmt.Errorf("bench: %s tessellation checksum %v != naive %v",
						c.name, sum, naiveChecksum)
				}
				speedup = updates / secs / 1e6 / naiveMUpdates
			}
			rep.Results = append(rep.Results, PipelineResult{
				Workload:       fmt.Sprintf("%s N=%v T=%d", c.name, c.n, c.steps),
				Stages:         c.p.NumStages(),
				Scheme:         scheme.String(),
				Seconds:        secs,
				MUpdates:       updates / secs / 1e6,
				SpeedupVsNaive: speedup,
				Checksum:       sum,
			})
		}
	}
	return rep, nil
}

// MaskResult is one (masked workload, scheme) measurement.
type MaskResult struct {
	Workload string `json:"workload"`
	Mask     string `json:"mask"`
	// ActiveFraction is the share of domain cells the mask leaves
	// active; MUpdates counts active-cell updates only.
	ActiveFraction float64 `json:"active_fraction"`
	Scheme         string  `json:"scheme"`
	Seconds        float64 `json:"seconds"`
	MUpdates       float64 `json:"mupdates"`
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
	Checksum       float64 `json:"checksum"`
}

// MaskReport is the full -mask output (the schema of BENCH_MASK.json).
type MaskReport struct {
	Threads     int          `json:"threads"`
	Scale       int          `json:"scale"`
	Results     []MaskResult `json:"results"`
	GeneratedBy string       `json:"generated_by"`
}

// CompareMasks measures the masked tessellated executors against the
// masked naive reference on L-shaped and obstacle domains, enforcing
// bitwise checksum agreement.
func CompareMasks(scale, threads int) (MaskReport, error) {
	rep := MaskReport{
		Threads:     threads,
		Scale:       scale,
		GeneratedBy: "stencilbench -mask",
	}
	eng := tessellate.NewEngine(threads)
	defer eng.Close()
	w2 := ByFigure("10")[0].Scaled(scale)  // heat-2d
	w3 := ByFigure("11a")[0].Scaled(scale) // heat-3d
	cases := []struct {
		w    Workload
		mask string
	}{
		{w2, "lshape"},
		{w2, "obstacle"},
		{w3, "obstacle"},
	}
	for _, c := range cases {
		spec, err := tessellate.StencilByName(c.w.Kernel)
		if err != nil {
			return rep, err
		}
		m, err := tessellate.NamedMask(c.mask, c.w.N)
		if err != nil {
			return rep, err
		}
		volume := 1
		for _, nk := range c.w.N {
			volume *= nk
		}
		frac := float64(m.ActiveCount()) / float64(volume)
		updates := float64(m.ActiveCount()) * float64(c.w.Steps)
		var naiveMUpdates, naiveChecksum float64
		for _, scheme := range []tessellate.Scheme{tessellate.Naive, tessellate.Tessellation} {
			opt := tessellate.Options{Scheme: scheme, TimeTile: c.w.TessBT}
			var reseed func()
			var run func() error
			var check func() float64
			switch len(c.w.N) {
			case 2:
				g := tessellate.NewGrid2D(c.w.N[0], c.w.N[1], spec.Slopes[0], spec.Slopes[1])
				reseed = func() { g.Step = 0; seed2D(g, c.w.Kernel) }
				run = func() error { return eng.RunMasked2D(g, spec, c.w.Steps, m, opt) }
				check = func() float64 { return checksum2D(g) }
			case 3:
				g := tessellate.NewGrid3D(c.w.N[0], c.w.N[1], c.w.N[2], spec.Slopes[0], spec.Slopes[1], spec.Slopes[2])
				reseed = func() { g.Step = 0; seed3D(g, c.w.Kernel) }
				run = func() error { return eng.RunMasked3D(g, spec, c.w.Steps, m, opt) }
				check = func() float64 { return checksum3D(g) }
			default:
				return rep, fmt.Errorf("bench: mask comparison supports 2D/3D, got rank %d", len(c.w.N))
			}
			secs, sum, err := medianRun(reseed, run, check)
			if err != nil {
				return rep, fmt.Errorf("bench: %s/%s/%v: %w", c.w, c.mask, scheme, err)
			}
			speedup := 1.0
			if scheme == tessellate.Naive {
				naiveMUpdates, naiveChecksum = updates/secs/1e6, sum
			} else {
				if sum != naiveChecksum {
					return rep, fmt.Errorf("bench: %s/%s tessellation checksum %v != naive %v",
						c.w, c.mask, sum, naiveChecksum)
				}
				speedup = updates / secs / 1e6 / naiveMUpdates
			}
			rep.Results = append(rep.Results, MaskResult{
				Workload:       c.w.String(),
				Mask:           c.mask,
				ActiveFraction: frac,
				Scheme:         scheme.String(),
				Seconds:        secs,
				MUpdates:       updates / secs / 1e6,
				SpeedupVsNaive: speedup,
				Checksum:       sum,
			})
		}
	}
	return rep, nil
}

// medianRepeats is how many timed repeats -pipeline and -mask take the
// median of, after one untimed warm-up.
const medianRepeats = 5

// medianRun re-seeds (outside the timer) and times run once to warm up
// and medianRepeats times more, checking every repeat's checksum
// bitwise against the warm-up's. It returns the median seconds and the
// checksum.
func medianRun(reseed func(), run func() error, checksum func() float64) (float64, float64, error) {
	var secs []float64
	var sum float64
	for i := 0; i <= medianRepeats; i++ {
		reseed()
		start := time.Now()
		if err := run(); err != nil {
			return 0, 0, err
		}
		d := time.Since(start).Seconds()
		s := checksum()
		if i == 0 {
			sum = s
			continue
		}
		if math.Float64bits(s) != math.Float64bits(sum) {
			return 0, 0, fmt.Errorf("repeat %d checksum %v != warm-up %v", i, s, sum)
		}
		secs = append(secs, d)
	}
	sort.Float64s(secs)
	return secs[len(secs)/2], sum, nil
}

// seedPipeline2D seeds a pipeline grid deterministically per workload
// name, like seed2D does per kernel.
func seedPipeline2D(g *tessellate.Grid2D, name string) {
	rng := rand.New(rand.NewSource(int64(len(name))))
	g.Fill(func(x, y int) float64 { return rng.Float64() })
	g.SetBoundary(1)
}
