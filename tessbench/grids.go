package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"tessellate/internal/grid"
	"tessellate/internal/par"
)

// Seeding. Every interior point gets a value hashed from (seed, its
// interior index) and every halo cell the hot-wall boundary 1, in both
// buffers. The hash is counter-based, so the fill parallelises and a
// re-seed reproduces the input bitwise without keeping a copy: at
// 544^3 a second copy of the grid would not fit beside the grid.

// hashUnit maps (seed, i) to a value in [0, 1) with a splitmix64
// finaliser.
func hashUnit(seed int64, i uint64) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ (i+1)*0xd1b54a32d192ed03
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// boundary is the halo value of every benchmark grid.
const boundary = 1.0

func poolFor(p *par.Pool) grid.ParallelFor {
	return func(n int, body func(i, worker int)) { p.ForSticky(n, body) }
}

// serialFor is a grid.ParallelFor that runs on the calling goroutine.
func serialFor(n int, body func(i, worker int)) {
	for i := 0; i < n; i++ {
		body(i, 0)
	}
}

// seed3D overwrites both buffers of g (interior and halo) and resets
// its step.
func seed3D(g *grid.Grid3D, seed int64, pfor grid.ParallelFor) {
	px, py, pz := g.NX+2*g.HX, g.NY+2*g.HY, g.NZ+2*g.HZ
	pfor(px, func(xi, _ int) {
		x := xi - g.HX
		for yi := 0; yi < py; yi++ {
			y := yi - g.HY
			base := xi*g.SX + yi*g.SY
			for zi := 0; zi < pz; zi++ {
				z := zi - g.HZ
				v := boundary
				if x >= 0 && x < g.NX && y >= 0 && y < g.NY && z >= 0 && z < g.NZ {
					v = hashUnit(seed, uint64((x*g.NY+y)*g.NZ+z))
				}
				g.Buf[0][base+zi] = v
				g.Buf[1][base+zi] = v
			}
		}
	})
	g.Step = 0
}

// seed2D is seed3D for 2D grids.
func seed2D(g *grid.Grid2D, seed int64, pfor grid.ParallelFor) {
	px, py := g.NX+2*g.HX, g.NY+2*g.HY
	pfor(px, func(xi, _ int) {
		x := xi - g.HX
		base := xi * g.SY
		for yi := 0; yi < py; yi++ {
			y := yi - g.HY
			v := boundary
			if x >= 0 && x < g.NX && y >= 0 && y < g.NY {
				v = hashUnit(seed, uint64(x*g.NY+y))
			}
			g.Buf[0][base+yi] = v
			g.Buf[1][base+yi] = v
		}
	})
	g.Step = 0
}

// digestChunks fixes the digest's partition so its value does not
// depend on the thread count.
const digestChunks = 64

// digest folds the exact bit pattern of every element of buf into 64
// bits (FNV-1a over words per chunk, chunks folded in order). Two
// buffers with equal digests are bitwise equal up to a 2^-64 collision;
// comparing digests lets the oracle check run without a second copy of
// a grid that fills a third of the machine's memory.
func digest(buf []float64, pfor grid.ParallelFor) uint64 {
	var parts [digestChunks]uint64
	pfor(digestChunks, func(c, _ int) {
		lo, hi := c*len(buf)/digestChunks, (c+1)*len(buf)/digestChunks
		h := uint64(0xcbf29ce484222325)
		for _, v := range buf[lo:hi] {
			h ^= math.Float64bits(v)
			h *= 0x100000001b3
		}
		parts[c] = h
	})
	h := uint64(0xcbf29ce484222325)
	for _, p := range parts {
		h ^= p
		h *= 0x100000001b3
	}
	return h
}

// freeMemory returns dropped grids to the operating system, so a
// repeated set-up faults its pages in again as a first run does.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// opStats is the outcome of a measured phase of repeated ops.
type opStats struct {
	walls      []float64 // seconds of each successful op
	digests    []uint64  // output digest of each successful op
	allocBytes uint64    // heap bytes allocated inside the timed calls
	attempted  int
	failed     int
	errs       []string
}

// measure runs ops until budget has elapsed (and at least minOps have
// been attempted). Each op is prepare (untimed: re-seed), op (timed,
// with the heap allocation it makes), then check (untimed: the output
// digest, compared with the oracle once it is known). A panic or error
// fails that op only.
func measure(budget time.Duration, minOps int, prepare func(), op func() error, check func() uint64) opStats {
	var st opStats
	start := time.Now()
	for st.attempted < minOps || time.Since(start) < budget {
		st.attempted++
		wall, alloc, d, err := oneOp(prepare, op, check)
		if err != nil {
			st.failed++
			if len(st.errs) < 5 {
				st.errs = append(st.errs, err.Error())
			}
			continue
		}
		st.walls = append(st.walls, wall)
		st.digests = append(st.digests, d)
		st.allocBytes += alloc
	}
	return st
}

func oneOp(prepare func(), op func() error, check func() uint64) (wall float64, alloc uint64, d uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	prepare()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err = op()
	wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, 0, err
	}
	return wall, after.TotalAlloc - before.TotalAlloc, check(), nil
}

// mismatches counts digests that differ from the oracle's.
func mismatches(ds []uint64, oracle uint64) int {
	n := 0
	for _, d := range ds {
		if d != oracle {
			n++
		}
	}
	return n
}
