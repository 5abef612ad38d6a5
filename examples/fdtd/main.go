// FDTD-style wave propagation in a masked cavity: the scalar wave
// equation's leapfrog update u^{t+1} = 2u + c^2 dt^2 lap(u) - u^{t-1}
// runs as a two-stage pipeline (a stencil stage plus a blend reading
// the previous time level through PrevState), and a mask freezes a
// rigid obstacle in the cavity's centre so the pulse diffracts around
// it. The example asserts the tessellated masked run reproduces the
// masked naive reference bitwise and that the obstacle never moves.
package main

import (
	"fmt"
	"log"
	"math"

	"tessellate"
)

const (
	nx, ny = 120, 84
	steps  = 96
	c2dt2  = 0.4 // (c*dt/dx)^2, inside the 2D CFL bound of 0.5
)

func main() {
	// Stage 1 computes w = 2u + c^2 dt^2 lap(u); the final blend
	// subtracts u^{t-1}, completing the leapfrog step. With double
	// buffering the previous level is exactly the destination buffer's
	// pre-write contents, so the stepper needs no extra state grid.
	// The kernel reads nothing but src, so it is relocatable: the
	// fused executor may keep the intermediate in small block windows.
	wave := &tessellate.Stencil{
		Name: "wave-2d", Dims: 2, Slopes: []int{1, 1}, Points: 5, Flops: 7, Relocatable: true,
		K2: func(dst, src []float64, base, n, sy int) {
			for i := base; i < base+n; i++ {
				lap := src[i-1] + src[i+1] + src[i-sy] + src[i+sy] - 4*src[i]
				dst[i] = 2*src[i] + c2dt2*lap
			}
		},
	}
	p := &tessellate.Pipeline{Name: "leapfrog-wave", Stages: []tessellate.Stage{
		{Spec: wave, In: 0},
		{A: 1, In: 1, B: -1, InB: tessellate.PrevState},
	}}

	// The obstacle mask freezes a centred box; its cells are seeded 0
	// and stay 0 — a rigid reflector.
	m, err := tessellate.NamedMask("obstacle", []int{nx, ny})
	if err != nil {
		log.Fatal(err)
	}

	g := tessellate.NewGrid2D(nx, ny, 1, 1)
	// A Gaussian pulse left of the obstacle, at rest (u^{-1} = u^0:
	// both parity buffers hold the seed, so the pulse starts with zero
	// velocity and splits symmetrically).
	g.Fill(func(x, y int) float64 {
		if !m.Active(x, y) {
			return 0 // the rigid obstacle holds u = 0
		}
		dx, dy := float64(x-nx/2), float64(y-ny/6)
		return math.Exp(-(dx*dx + dy*dy) / 18)
	})
	g.SetBoundary(0) // open-ended cavity walls absorb nothing; they hold u = 0

	eng := tessellate.NewEngine(0)
	defer eng.Close()

	ref := g.Clone()
	if err := eng.RunPipeline2D(ref, p, steps, m, tessellate.Options{Scheme: tessellate.Naive}); err != nil {
		log.Fatal(err)
	}
	if err := eng.RunPipeline2D(g, p, steps, m, tessellate.Options{TimeTile: 4}); err != nil {
		log.Fatal(err)
	}
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if g.At(x, y) != ref.At(x, y) {
				log.Fatalf("tessellated masked wave diverged from naive at (%d,%d): %v != %v",
					x, y, g.At(x, y), ref.At(x, y))
			}
		}
	}
	fmt.Printf("masked leapfrog pipeline matches the naive reference bitwise after %d steps\n", steps)

	// The obstacle is rigid: every inactive cell still holds its seed.
	moved := 0
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			if !m.Active(x, y) && g.At(x, y) != 0 {
				moved++
			}
		}
	}
	if moved != 0 {
		log.Fatalf("%d obstacle cells changed value", moved)
	}
	fmt.Printf("obstacle intact: %d frozen cells unchanged\n", nx*ny-m.ActiveCount())

	// After steps > distance-to-obstacle the pulse has reached and
	// passed the obstacle's y-band; some energy must be beyond it.
	var beyond float64
	for x := 0; x < nx; x++ {
		for y := 5 * ny / 8; y < ny; y++ {
			beyond += g.At(x, y) * g.At(x, y)
		}
	}
	fmt.Printf("energy diffracted past the obstacle: %.6f\n", beyond)
	if beyond == 0 {
		log.Fatal("no energy made it past the obstacle")
	}
}
