package core

import "math"

// Block visits. Every executor — the plain, masked and pipeline ones
// here and the distributed ranks — walks a block's boxes through
// VisitBlocks, which owns the in-block order.
//
// A block whose step boxes fit the caller's per-array budget runs its
// steps in order, each over the whole clipped box. A larger block does
// not stay in a private cache across its steps, so every step would
// re-stream the box from the last-level cache. Such a block is cut into time-skewed
// tiles over every dimension except the unit-stride one (dims 0 and 1
// in 3D, dim 0 in 2D, none in 1D): tile a at local step j = t-T0
// covers
//
//	[a_k - j*S_k, a_k + W_k - j*S_k) ∩ box_j
//
// in each skewed dimension k and the whole box in the unit-stride one.
// Tiles run in lexicographic order and steps in order inside a tile.
//
// Why it is bitwise safe: in the skewed coordinate x + j*S, step t at
// p reads step t-1 at p±S, which maps to a componentwise smaller or
// equal coordinate, hence the same or an earlier tile. The ping-pong
// buffers add a write-after-read hazard: step t+1 writing q overwrites
// what step t read there only when |q-p| <= S, and that q maps to a
// componentwise larger or equal coordinate, hence the same or a later
// tile. So every value is the same pure function of the same inputs as
// in step order. Blocks of a region stay independent: only the order
// inside a block changes.
//
// A fused pipeline's box op runs every stage of one tile-step box (see
// pipeline.go). Its tiles are skewed by cfg.Slopes, the compound
// slope, and it reads and writes the state buffers like one stage of
// that slope, with PrevState read pointwise, so the argument holds as
// it stands.

// TileBytes is the per-array budget of a single-stage run: the
// footprint of the largest step box that runs untiled, and the
// footprint a tile's step box is sized to, so that the state and
// output of one tile step stay in a private L2 while the tile
// advances.
const TileBytes = 512 << 10

// tileOverride, when positive, forces tiling at this width in every
// skewed dimension: a test seam that lands tile cuts inside the blocks
// of small grids.
var tileOverride int

// Box is a half-open box [Lo, Hi) of up to three dimensions; entries
// past the config's Dims are zero.
type Box struct{ Lo, Hi [3]int }

// VisitBlocks calls op(t) for every non-empty clipped box that blocks
// [b0, b1) of region r update at global step t, with *box holding the
// box, in an order that respects each block's dependences (see the
// file comment). budget is the per-array footprint, in bytes, above
// which a block runs as tiles (TileBytes for a single-stage op). The
// caller owns box: handing op the box by value or by pointer would
// cost a copy or a heap escape per box. A group whose blocks share one
// orientation and fit the budget runs step by step across the group,
// reusing one bounds computation per step for the blocks that never
// meet the domain edge (groupPlan); a tiled group runs block by block.
func (c *Config) VisitBlocks(r *Region, b0, b1, budget int, box *Box, op func(t int)) {
	d := c.Dims()
	var lo, hi [3]int
	uniform, interior := c.groupPlan(r, b0, b1, lo[:d], hi[:d])
	if !uniform {
		for bi := b0; bi < b1; bi++ {
			c.VisitBlocks(r, bi, bi+1, budget, box, op)
		}
		return
	}
	if w, ok := c.tileWidth(budget); ok {
		for bi := b0; bi < b1; bi++ {
			c.visitTiled(r, &r.Blocks[bi], w, box, op)
		}
		return
	}
	rep := &r.Blocks[b0]
	for t := r.T0; t < r.T1; t++ {
		c.Bounds(r, rep, t, lo[:d], hi[:d])
		if !nonEmpty(lo[:d], hi[:d]) {
			continue
		}
		for bi := b0; bi < b1; bi++ {
			b := &r.Blocks[bi]
			l, h := &box.Lo, &box.Hi
			if interior&(1<<uint(bi-b0)) != 0 {
				for k := 0; k < d; k++ {
					off := b.Origin[k] - rep.Origin[k]
					l[k], h[k] = lo[k]+off, hi[k]+off
				}
			} else if !c.ClippedBounds(r, b, t, l[:d], h[:d]) {
				continue
			}
			op(t)
		}
	}
}

// tileWidth reports whether the blocks of c must run as skewed tiles
// under a per-array budget, and the tile width of their skewed
// dimensions: the largest whose tile step box fits the budget. No step
// box of any block exceeds Big (clipped to the domain) in any
// dimension — a glued extent grows to Small+2*BT*S = Big, a diamond's
// waist is Big wide — so Big bounds the decision without a bounds
// computation per block.
func (c *Config) tileWidth(budget int) (int, bool) {
	d := c.Dims()
	if d == 1 {
		return 0, false
	}
	if tileOverride > 0 {
		return tileOverride, true
	}
	vol := 8
	for k := 0; k < d; k++ {
		vol *= min(c.Big[k], c.N[k])
	}
	if vol <= budget {
		return 0, false
	}
	w := budget / (8 * min(c.Big[d-1], c.N[d-1])) // unit-stride rows per tile step box
	if d == 3 {
		w = int(math.Sqrt(float64(w)))
	}
	return max(w, 1), true
}

// visitTiled runs block b of region r as time-skewed tiles of width w.
func (c *Config) visitTiled(r *Region, b *Block, w int, box *Box, op func(t int)) {
	d := c.Dims()
	ds := d - 1 // skewed dimensions
	var lo, hi [3]int
	// The skewed range [s0, s1) that some step's box covers.
	var s0, s1 [2]int
	any := false
	for t := r.T0; t < r.T1; t++ {
		if !c.ClippedBounds(r, b, t, lo[:d], hi[:d]) {
			continue
		}
		for k := 0; k < ds; k++ {
			sk := (t - r.T0) * c.Slopes[k]
			if !any || lo[k]+sk < s0[k] {
				s0[k] = lo[k] + sk
			}
			if !any || hi[k]+sk > s1[k] {
				s1[k] = hi[k] + sk
			}
		}
		any = true
	}
	if !any {
		return
	}
	a := s0
	for {
		for t := r.T0; t < r.T1; t++ {
			if !c.ClippedBounds(r, b, t, lo[:d], hi[:d]) {
				continue
			}
			for k := 0; k < ds; k++ {
				sk := (t - r.T0) * c.Slopes[k]
				lo[k], hi[k] = max(lo[k], a[k]-sk), min(hi[k], a[k]+w-sk)
			}
			if nonEmpty(lo[:ds], hi[:ds]) {
				box.Lo, box.Hi = lo, hi
				op(t)
			}
		}
		k := ds - 1
		for ; k >= 0; k-- {
			if a[k] += w; a[k] < s1[k] {
				break
			}
			a[k] = s0[k]
		}
		if k < 0 {
			return
		}
	}
}

// nonEmpty reports whether the box [lo, hi) holds a point.
func nonEmpty(lo, hi []int) bool {
	for k := range lo {
		if lo[k] >= hi[k] {
			return false
		}
	}
	return true
}
