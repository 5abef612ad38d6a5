package core

import "testing"

// visitFuzzCase derives a legal configuration, step count and tile
// width from fuzz bytes: 1..3 dimensions, slopes 1..2 per dimension,
// stage or diamond regions, windows clamped by a step count that is
// not a multiple of BT, domains that clip blocks at both edges, and a
// tile width of 1, 2, 3 or the default (0).
func visitFuzzCase(a, b, c, d, e, f uint8) (Config, int, int) {
	dims := 1 + int(a)%3
	cfg := Config{
		N:      make([]int, dims),
		Slopes: make([]int, dims),
		Big:    make([]int, dims),
		BT:     1 + int(b)%3,
		Merge:  a&4 == 0,
	}
	if e&8 != 0 {
		cfg.Coarsen = Uniform(1 + int(e>>4)%5)
	}
	for k := 0; k < dims; k++ {
		cfg.Slopes[k] = 1 + int(c>>uint(k))&1
		minBig := 2 * cfg.BT * cfg.Slopes[k]
		cfg.Big[k] = minBig + int(c>>3)%(minBig+2)
		cfg.N[k] = 3 + (int(d)+5*k)%(26-6*dims)
	}
	steps := 1 + int(e)%(3*cfg.BT+1)
	return cfg, steps, [...]int{0, 1, 2, 3}[f%4]
}

// FuzzBlockVisit replays the (t, box) sequence VisitBlocks emits for
// every dispatch group of random schedules, with tile widths forced to
// 1, 2 and 3 as well as the default, and checks three properties per
// region:
//
//	(a) the boxes of step t tile the group's ClippedBounds(t) exactly
//	    once;
//	(b) every (t-1, p±S) the group emits comes before (t, p);
//	(c) no (t+1, q) with |q-p| <= S the group emits comes before (t, p).
//
// (b) is the flow dependence and (c) the ping-pong write-after-read
// hazard; together they make any emitted order bitwise equal to step
// order.
func FuzzBlockVisit(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(2), uint8(3), uint8(40), uint8(7), uint8(1))
	f.Add(uint8(2), uint8(1), uint8(5), uint8(17), uint8(77), uint8(2))
	f.Add(uint8(6), uint8(2), uint8(2), uint8(9), uint8(201), uint8(3))
	f.Add(uint8(5), uint8(1), uint8(1), uint8(200), uint8(38), uint8(1))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, w uint8) {
		cfg, steps, width := visitFuzzCase(a, b, c, d, e, w)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		defer func(old int) { tileOverride = old }(tileOverride)
		tileOverride = width
		checkVisit(t, &cfg, steps)
	})
}

// TestBlockVisitGeometry runs the FuzzBlockVisit oracle over a fixed
// sweep, so the plain test run covers every tile width.
func TestBlockVisitGeometry(t *testing.T) {
	defer func(old int) { tileOverride = old }(tileOverride)
	for i := 0; i < 256; i++ {
		u := uint8(i)
		cfg, steps, width := visitFuzzCase(u, u/3, u*7, u*11, u*13+5, u)
		if cfg.Validate() != nil {
			continue
		}
		tileOverride = width
		checkVisit(t, &cfg, steps)
	}
}

// checkVisit is the FuzzBlockVisit oracle.
func checkVisit(t *testing.T, cfg *Config, steps int) {
	t.Helper()
	d := cfg.Dims()
	total := 1
	strides := make([]int, d)
	for k := d - 1; k >= 0; k-- {
		strides[k] = total
		total *= cfg.N[k]
	}
	lo, hi, p := make([]int, d), make([]int, d), make([]int, d)
	flat := func(p []int) int {
		i := 0
		for k := range p {
			i += p[k] * strides[k]
		}
		return i
	}
	for ri, r := range cfg.Regions(steps) {
		win := r.T1 - r.T0
		if win <= 0 {
			continue
		}
		// Per (step, point): the 1-based emission index, the emitting
		// group and how many of the group's clipped boxes hold it.
		seq := make([]int, win*total)
		grp := make([]int, win*total)
		want := make([]int, win*total)
		n := 0
		for gi := 0; gi < r.Tasks(); gi++ {
			b0, b1 := r.Span(gi)
			for bi := b0; bi < b1; bi++ {
				for tt := r.T0; tt < r.T1; tt++ {
					if cfg.ClippedBounds(&r, &r.Blocks[bi], tt, lo, hi) {
						forBox(lo, hi, p, func() error { want[(tt-r.T0)*total+flat(p)]++; return nil })
					}
				}
			}
			var box Box
			cfg.VisitBlocks(&r, b0, b1, TileBytes, &box, func(tt int) {
				blo, bhi := box.Lo, box.Hi
				n++
				if tt < r.T0 || tt >= r.T1 {
					t.Fatalf("region %d: step %d outside window [%d,%d)", ri, tt, r.T0, r.T1)
				}
				for k := 0; k < 3; k++ {
					if k >= d && (blo[k] != 0 || bhi[k] != 0) {
						t.Fatalf("region %d: box %v-%v sets entries past dimension %d", ri, blo, bhi, d)
					}
					if k < d && (blo[k] < 0 || bhi[k] > cfg.N[k] || blo[k] >= bhi[k]) {
						t.Fatalf("region %d step %d: box %v-%v empty or outside the domain %v", ri, tt, blo, bhi, cfg.N)
					}
				}
				forBox(blo[:d], bhi[:d], p, func() error {
					i := (tt-r.T0)*total + flat(p)
					if seq[i] != 0 {
						t.Fatalf("region %d: (t=%d, %v) emitted twice", ri, tt, p)
					}
					seq[i], grp[i] = n, gi+1
					return nil
				})
			})
		}
		for i := range want {
			if want[i] > 1 || (want[i] == 1) != (seq[i] != 0) {
				unflat(i%total, strides, p, cfg.N)
				t.Fatalf("region %d: (t=%d, %v) in %d clipped boxes, emitted=%v", ri, r.T0+i/total, p, want[i], seq[i] != 0)
			}
		}
		checkVisitOrder(t, cfg, ri, win, total, strides, seq, grp)
	}
}

// checkVisitOrder checks properties (b) and (c) of FuzzBlockVisit over
// one region's emission record.
func checkVisitOrder(t *testing.T, cfg *Config, ri, win, total int, strides, seq, grp []int) {
	t.Helper()
	d := cfg.Dims()
	p, q := make([]int, d), make([]int, d)
	lo, hi := make([]int, d), make([]int, d)
	for i, s := range seq {
		if s == 0 {
			continue
		}
		j := i / total
		unflat(i%total, strides, p, cfg.N)
		for k := 0; k < d; k++ {
			lo[k], hi[k] = max(p[k]-cfg.Slopes[k], 0), min(p[k]+cfg.Slopes[k]+1, cfg.N[k])
		}
		forBox(lo, hi, q, func() error {
			at := 0
			for k := range q {
				at += q[k] * strides[k]
			}
			if j > 0 {
				if o := (j-1)*total + at; grp[o] == grp[i] && seq[o] > s {
					t.Fatalf("region %d: (t-1, %v) emitted after (t, %v), t=T0+%d", ri, q, p, j)
				}
			}
			if j+1 < win {
				if o := (j+1)*total + at; grp[o] == grp[i] && seq[o] != 0 && seq[o] < s {
					t.Fatalf("region %d: (t+1, %v) overwrote the buffer before (t, %v) read it, t=T0+%d", ri, q, p, j)
				}
			}
			return nil
		})
	}
}

// The single-stage budget tiles the 3D blocks DefaultConfig builds
// and leaves the 2D ones whole; the pipeline budget also cuts the 2D
// blocks of a compound-slope-2 pipeline into 32-row tiles and the 3D
// ones into 8×8 columns. 1D never tiles.
func TestTileWidthBudget(t *testing.T) {
	for _, tc := range []struct {
		n      []int
		slope  int
		budget int
		tiled  bool
		width  int
	}{
		{[]int{544, 544, 544}, 1, TileBytes, true, 16},
		{[]int{4096, 4096}, 1, TileBytes, false, 0},
		{[]int{32, 32, 32}, 1, TileBytes, false, 0},
		{[]int{1 << 20}, 1, TileBytes, false, 0},
		// rk2 (compound slope 2): Big = [256 512] at 2048².
		{[]int{2048, 2048}, 2, pipeTileBytes, true, 32},
		{[]int{256, 256, 256}, 2, pipeTileBytes, true, 8},
		{[]int{1 << 20}, 2, pipeTileBytes, false, 0},
	} {
		slopes := make([]int, len(tc.n))
		for k := range slopes {
			slopes[k] = tc.slope
		}
		cfg := DefaultConfig(tc.n, slopes)
		if w, ok := cfg.tileWidth(tc.budget); ok != tc.tiled || w != tc.width {
			t.Fatalf("n=%v (Big %v) budget %d: tileWidth = %d, %v; want %d, %v", tc.n, cfg.Big, tc.budget, w, ok, tc.width, tc.tiled)
		}
	}
}
