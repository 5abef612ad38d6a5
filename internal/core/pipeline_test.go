package core

import (
	"math/rand"
	"testing"

	"tessellate/internal/grid"
	"tessellate/internal/naive"
	"tessellate/internal/par"
	"tessellate/internal/stencil"
	"tessellate/internal/verify"
)

// rk2ish is the SSP-RK2 shape: two spec applications and a half-half
// blend with the state.
func rk2ish(s *stencil.Spec) *stencil.Pipeline {
	return &stencil.Pipeline{
		Name: "rk2-" + s.Name,
		Stages: []stencil.Stage{
			{Spec: s, In: 0},
			{Spec: s, In: 1},
			{A: 0.5, In: 0, B: 0.5, InB: 2},
		},
		TmpHalo: 0.25,
	}
}

// leapfrogish reads the previous state through the final blend:
// u' = 2*E(u) - u_prev.
func leapfrogish(s *stencil.Spec) *stencil.Pipeline {
	return &stencil.Pipeline{
		Name: "leapfrog-" + s.Name,
		Stages: []stencil.Stage{
			{Spec: s, In: 0},
			{A: 2, In: 1, B: -1, InB: stencil.PrevState},
		},
		TmpHalo: 0.5,
	}
}

// react2D is a pointwise (slope-0) stage: the reaction half of an
// operator-split reaction-diffusion step.
var react2D = &stencil.Spec{
	Name: "react-2d", Dims: 2, Shape: stencil.Star, Slopes: []int{0, 0}, Points: 1, Flops: 4,
	K2: func(dst, src []float64, base, n, sy int) {
		for i := base; i < base+n; i++ {
			v := src[i]
			dst[i] = v + 0.08*(v*(1-v)*(v-0.2))
		}
	},
}

// pipelines2D is the 2D test matrix: spec chains, blends, PrevState,
// and a pointwise stage.
func pipelines2D() []*stencil.Pipeline {
	return []*stencil.Pipeline{
		rk2ish(stencil.Heat2D),
		leapfrogish(stencil.Box2D9),
		{Name: "heat-box", Stages: []stencil.Stage{
			{Spec: stencil.Heat2D, In: 0},
			{Spec: stencil.Box2D9, In: 1},
		}, TmpHalo: 0.75},
		{Name: "react-diff", Stages: []stencil.Stage{
			{Spec: stencil.Heat2D, In: 0},
			{Spec: react2D, In: 1},
		}, TmpHalo: 0.1},
	}
}

func TestRunPipeline1DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	mixed := &stencil.Pipeline{Name: "p5-heat", Stages: []stencil.Stage{
		{Spec: stencil.P1D5, In: 0},
		{Spec: stencil.Heat1D, In: 1},
		{A: 0.75, In: 2, B: 0.25, InB: 0},
	}, TmpHalo: 0.3}
	for _, p := range []*stencil.Pipeline{rk2ish(stencil.Heat1D), leapfrogish(stencil.Heat1D), mixed} {
		slope := p.Slopes()[0]
		for _, merge := range []bool{false, true} {
			for _, steps := range []int{1, 7, 13} {
				cfg := Config{N: []int{89}, Slopes: p.Slopes(), BT: 3, Big: []int{8 * slope}, Merge: merge}
				g := grid.NewGrid1D(89, slope)
				fill1D(g, 11)
				ref := g.Clone()
				if err := RunPipeline1D(g, p, steps, &cfg, pool, nil); err != nil {
					t.Fatalf("%s merge=%v steps=%d: %v", p.Name, merge, steps, err)
				}
				if err := naive.RunPipeline1D(ref, p, steps, nil, nil); err != nil {
					t.Fatal(err)
				}
				if r := verify.Grids1D(g, ref); !r.Equal {
					t.Fatalf("%s merge=%v steps=%d: %v", p.Name, merge, steps, r.Error("pipeline-1d"))
				}
				if g.Step != steps {
					t.Fatalf("Step = %d, want %d", g.Step, steps)
				}
			}
		}
	}
}

func TestRunPipeline2DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, p := range pipelines2D() {
		sl := p.Slopes()
		for _, merge := range []bool{false, true} {
			for _, steps := range []int{1, 5, 11} {
				cfg := Config{N: []int{33, 38}, Slopes: sl, BT: 2,
					Big: []int{10 * sl[0], 12 * sl[1]}, Merge: merge}
				g := grid.NewGrid2D(33, 38, sl[0], sl[1])
				fill2D(g, 12)
				ref := g.Clone()
				if err := RunPipeline2D(g, p, steps, &cfg, pool, nil); err != nil {
					t.Fatalf("%s merge=%v steps=%d: %v", p.Name, merge, steps, err)
				}
				if err := naive.RunPipeline2D(ref, p, steps, nil, nil); err != nil {
					t.Fatal(err)
				}
				if r := verify.Grids2D(g, ref); !r.Equal {
					t.Fatalf("%s merge=%v steps=%d: %v", p.Name, merge, steps, r.Error("pipeline-2d"))
				}
			}
		}
	}
}

func TestRunPipeline3DMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, p := range []*stencil.Pipeline{rk2ish(stencil.Heat3D), leapfrogish(stencil.Box3D27)} {
		sl := p.Slopes()
		for _, merge := range []bool{false, true} {
			cfg := Config{N: []int{14, 13, 16}, Slopes: sl, BT: 1,
				Big: []int{4 * sl[0], 4 * sl[1], 5 * sl[2]}, Merge: merge}
			g := grid.NewGrid3D(14, 13, 16, sl[0], sl[1], sl[2])
			fill3D(g, 13)
			ref := g.Clone()
			steps := 5
			if err := RunPipeline3D(g, p, steps, &cfg, pool, nil); err != nil {
				t.Fatalf("%s merge=%v: %v", p.Name, merge, err)
			}
			if err := naive.RunPipeline3D(ref, p, steps, nil, nil); err != nil {
				t.Fatal(err)
			}
			if r := verify.Grids3D(g, ref); !r.Equal {
				t.Fatalf("%s merge=%v: %v", p.Name, merge, r.Error("pipeline-3d"))
			}
		}
	}
}

// All three kernel dispatch paths must agree with the naive oracle run
// at the same path (and, since kernels are bitwise path-invariant, with
// each other).
func TestRunPipelinePathsMatchNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	old := KernelPath()
	defer SetKernelPath(old)
	p := rk2ish(stencil.Heat2D)
	sl := p.Slopes()
	for _, path := range []string{"row", "block", "simd"} {
		if err := SetKernelPath(path); err != nil {
			t.Fatal(err)
		}
		cfg := Config{N: []int{30, 34}, Slopes: sl, BT: 2, Big: []int{8 * sl[0], 10 * sl[1]}, Merge: true}
		g := grid.NewGrid2D(30, 34, sl[0], sl[1])
		fill2D(g, 14)
		ref := g.Clone()
		if err := RunPipeline2D(g, p, 9, &cfg, pool, nil); err != nil {
			t.Fatalf("path %s: %v", path, err)
		}
		if err := naive.RunPipeline2D(ref, p, 9, nil, nil); err != nil {
			t.Fatal(err)
		}
		if r := verify.Grids2D(g, ref); !r.Equal {
			t.Fatalf("path %s: %v", path, r.Error("pipeline-path"))
		}
	}
}

func TestRunPipelineMaskedMatchesNaive(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	for _, p := range pipelines2D() {
		sl := p.Slopes()
		for _, name := range []string{"lshape", "obstacle"} {
			m, err := grid.NamedMask(name, []int{33, 38})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{N: []int{33, 38}, Slopes: sl, BT: 2,
				Big: []int{10 * sl[0], 12 * sl[1]}, Merge: true}
			g := grid.NewGrid2D(33, 38, sl[0], sl[1])
			fill2D(g, 15)
			ref := g.Clone()
			steps := 7
			if err := RunPipeline2D(g, p, steps, &cfg, pool, m); err != nil {
				t.Fatalf("%s/%s: %v", p.Name, name, err)
			}
			if err := naive.RunPipeline2D(ref, p, steps, nil, m); err != nil {
				t.Fatal(err)
			}
			if r := verify.Grids2D(g, ref); !r.Equal {
				t.Fatalf("%s/%s: %v", p.Name, name, r.Error("pipeline-masked"))
			}
		}
	}
}

func TestRunPipelineRejectsBadArguments(t *testing.T) {
	pool := par.NewPool(1)
	defer pool.Close()
	p := rk2ish(stencil.Heat1D) // compound slope 2
	cfg := Config{N: []int{40}, Slopes: []int{2}, BT: 2, Big: []int{16}, Merge: true}

	if err := RunPipeline1D(grid.NewGrid1D(40, 1), p, 4, &cfg, pool, nil); err == nil {
		t.Error("halo 1 with compound slope 2 should fail")
	}
	bad := cfg
	bad.Slopes = []int{1}
	if err := RunPipeline1D(grid.NewGrid1D(40, 2), p, 4, &bad, pool, nil); err == nil {
		t.Error("config slopes != compound slopes should fail")
	}
	if err := RunPipeline1D(grid.NewGrid1D(40, 2), &stencil.Pipeline{Name: "empty"}, 4, &cfg, pool, nil); err == nil {
		t.Error("invalid pipeline should fail")
	}
	p2 := rk2ish(stencil.Heat2D)
	if err := RunPipeline1D(grid.NewGrid1D(40, 2), p2, 4, &cfg, pool, nil); err == nil {
		t.Error("2D pipeline on 1D run should fail")
	}
	m, _ := grid.NamedMask("lshape", []int{39})
	if err := RunPipeline1D(grid.NewGrid1D(40, 2), p, 4, &cfg, pool, m); err == nil {
		t.Error("mask extent mismatch should fail")
	}
}

// fuzzSpecs are the stencil stages FuzzPipelineGeometry draws from,
// by dimension.
var fuzzSpecs = [...][]*stencil.Spec{
	1: {stencil.Heat1D, stencil.P1D5},
	2: {stencil.Heat2D, stencil.Box2D9, react2D},
	3: {stencil.Heat3D, stencil.Box3D27},
}

// randomPipeline derives a small valid d-dimensional pipeline from fuzz
// bytes: stencil stages, blends and sometimes a final blend reading
// the previous state.
func randomPipeline(rng *rand.Rand, d int) *stencil.Pipeline {
	specs := fuzzSpecs[d]
	n := 1 + rng.Intn(3)
	p := &stencil.Pipeline{Name: "fuzz", TmpHalo: rng.Float64()}
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			p.Stages = append(p.Stages, stencil.Stage{
				A: rng.Float64(), In: rng.Intn(i + 1),
				B: rng.Float64(), InB: rng.Intn(i + 1),
			})
			continue
		}
		p.Stages = append(p.Stages, stencil.Stage{Spec: specs[rng.Intn(len(specs))], In: rng.Intn(i + 1)})
	}
	// Sometimes rewire the final blend to read the previous state.
	if last := &p.Stages[len(p.Stages)-1]; last.Spec == nil && rng.Intn(2) == 0 {
		last.InB = stencil.PrevState
		last.B = -rng.Float64()
	}
	return p
}

// randomPipelineMask returns nil (unmasked), a named mask or random
// holes carved out of an all-active mask of extents n.
func randomPipelineMask(n []int, rng *rand.Rand) *grid.Mask {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		m, _ := grid.NamedMask([]string{"lshape", "obstacle"}[rng.Intn(2)], n)
		return m
	}
	return randomMask(n, rng)
}

// FuzzPipelineGeometry drives the fused pipeline executor through
// random 1D, 2D and 3D geometries, stage chains and mask shapes on
// small grids, asserting two properties per input:
//
//  1. the tessellated result is bitwise equal to the naive multi-stage
//     reference (masked or not) at tile widths 1, 2, 3 and the default
//     budget, so time-skewed tile cuts land inside the blocks; each
//     width runs twice on the same pool, the second run inheriting the
//     windows the first (and every earlier input) left behind, and
//  2. the schedule's clipped final boxes cover the active set exactly
//     once per step (the masked form of Theorem 3.5):
//     sum over visits of CountBox == ActiveCount * steps.
func FuzzPipelineGeometry(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(7777))
	f.Add(int64(-3))
	f.Add(int64(5))
	f.Add(int64(12))
	pool := par.NewPool(3)
	f.Cleanup(func() { pool.Close() })
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		p := randomPipeline(rng, d)
		if p.Validate() != nil {
			t.Skip("invalid pipeline shape")
		}
		sl := p.Slopes()
		bt := 1 + rng.Intn(3)
		cfg := Config{N: make([]int, d), Slopes: sl, BT: bt, Big: make([]int, d), Merge: rng.Intn(2) == 0}
		span := [...][2]int{1: {8, 50}, 2: {6, 20}, 3: {5, 9}}[d] // extents span[0] + [0, span[1])
		for k := range sl {
			minBig := 2 * bt * sl[k]
			cfg.Big[k] = minBig + rng.Intn(minBig+3)
			cfg.N[k] = span[0] + rng.Intn(span[1])
		}
		if cfg.Validate() != nil {
			t.Skip("invalid config")
		}
		m := randomPipelineMask(cfg.N, rng)
		steps := 1 + rng.Intn(3*bt+2)
		if rng.Intn(2) == 0 {
			p = absolute(p) // grid-sized scratch, absolute indices
		}

		var run func() (verify.Result, error)
		switch d {
		case 1:
			g := grid.NewGrid1D(cfg.N[0], sl[0])
			fill1D(g, seed)
			ref := g.Clone()
			if err := naive.RunPipeline1D(ref, p, steps, nil, m); err != nil {
				t.Fatal(err)
			}
			run = func() (verify.Result, error) {
				got := g.Clone()
				err := RunPipeline1D(got, p, steps, &cfg, pool, m)
				return verify.Grids1D(got, ref), err
			}
		case 2:
			g := grid.NewGrid2D(cfg.N[0], cfg.N[1], sl[0], sl[1])
			fill2D(g, seed)
			ref := g.Clone()
			if err := naive.RunPipeline2D(ref, p, steps, nil, m); err != nil {
				t.Fatal(err)
			}
			run = func() (verify.Result, error) {
				got := g.Clone()
				err := RunPipeline2D(got, p, steps, &cfg, pool, m)
				return verify.Grids2D(got, ref), err
			}
		case 3:
			g := grid.NewGrid3D(cfg.N[0], cfg.N[1], cfg.N[2], sl[0], sl[1], sl[2])
			fill3D(g, seed)
			ref := g.Clone()
			if err := naive.RunPipeline3D(ref, p, steps, nil, m); err != nil {
				t.Fatal(err)
			}
			run = func() (verify.Result, error) {
				got := g.Clone()
				err := RunPipeline3D(got, p, steps, &cfg, pool, m)
				return verify.Grids3D(got, ref), err
			}
		}
		defer func(old int) { tileOverride = old }(tileOverride)
		for _, width := range []int{1, 2, 3, 0} {
			tileOverride = width
			for again := 0; again < 2; again++ {
				r, err := run()
				if err != nil {
					t.Fatalf("cfg=%+v: %v", cfg, err)
				}
				if !r.Equal {
					t.Fatalf("%s cfg=%+v steps=%d masked=%v width=%d run=%d: %v",
						p.Name, cfg, steps, m != nil, width, again, r.Error("fuzz-pipeline"))
				}
			}
		}

		// Exactly-once coverage of the active set.
		active := int64(1)
		for _, nk := range cfg.N {
			active *= int64(nk)
		}
		if m != nil {
			active = int64(m.ActiveCount())
		}
		lo, hi := make([]int, d), make([]int, d)
		covered := int64(0)
		for _, r := range cfg.Regions(steps) {
			for bi := range r.Blocks {
				for tt := r.T0; tt < r.T1; tt++ {
					if !cfg.ClippedBounds(&r, &r.Blocks[bi], tt, lo, hi) {
						continue
					}
					if m != nil {
						covered += int64(m.CountBox(lo, hi))
					} else {
						covered += boxVolume(lo, hi)
					}
				}
			}
		}
		if covered != active*int64(steps) {
			t.Fatalf("cfg=%+v steps=%d: covered %d active points, want %d", cfg, steps, covered, active*int64(steps))
		}
	})
}
