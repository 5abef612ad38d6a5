package stencil

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Every blend tier must be bit-equal to BlendRow, the oracle's loop, on
// any span: every length through several vector quads and lane
// remainders, unaligned starts, IEEE special values, and the PrevState
// shape where an input aliases the output.
//
// One carve-out: where both products are NaN, the sum is NaN in every
// tier but its payload is not pinned. x86 propagates the first
// operand's NaN, and the Go compiler orders the operands of a
// commutative add freely, so even BlendRow's choice differs between
// call sites. With at most one NaN product the bits must match.

// blendTiers resolves every dispatch ceiling to its blend kernel.
func blendTiers(t testing.TB) map[Path]BlendKernel {
	t.Helper()
	tiers := map[Path]BlendKernel{}
	for _, p := range []Path{PathRow, PathBlock, PathSIMD} {
		k, got := ResolveBlend(p)
		want := p
		if p == PathSIMD && !SIMDAvailable() {
			want = PathBlock
		}
		if got != want {
			t.Fatalf("ResolveBlend(%v) answered from tier %v, want %v", p, got, want)
		}
		tiers[p] = k
	}
	return tiers
}

// specialBlendValues are the IEEE edge cases mixed into blend inputs.
var specialBlendValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 2.2250738585072014e-308,
	math.Copysign(0, -1), 0, math.MaxFloat64, -math.MaxFloat64,
}

// fillBlend populates buf with a mix of special and ordinary values.
func fillBlend(r *rand.Rand, buf []float64) {
	for i := range buf {
		if r.Intn(3) == 0 {
			buf[i] = specialBlendValues[r.Intn(len(specialBlendValues))]
		} else {
			buf[i] = (r.Float64() - 0.5) * 1e3
		}
	}
}

// alias modes of checkBlend: independent inputs, a == dst, b == dst.
const (
	aliasNone = iota
	aliasA
	aliasB
	aliasModes
)

// checkBlend runs every tier on copies of (dst, a, b) over [lo, hi) and
// compares each with BlendRow bitwise, cells outside the span included.
func checkBlend(t *testing.T, tiers map[Path]BlendKernel, dst, a []float64, ca float64, b []float64, cb float64, lo, hi, alias int) {
	t.Helper()
	run := func(k BlendKernel) []float64 {
		d := append([]float64(nil), dst...)
		x, y := append([]float64(nil), a...), append([]float64(nil), b...)
		switch alias {
		case aliasA:
			x = d
		case aliasB:
			y = d
		}
		k(d, x, ca, y, cb, lo, hi)
		return d
	}
	want := run(BlendRow)
	bothNaN := func(i int) bool {
		x, y := a[i], b[i]
		switch alias {
		case aliasA:
			x = dst[i]
		case aliasB:
			y = dst[i]
		}
		return i >= lo && i < hi && math.IsNaN(ca*x) && math.IsNaN(cb*y)
	}
	for p, k := range tiers {
		got := run(k)
		for i := range want {
			if bothNaN(i) && math.IsNaN(got[i]) {
				continue
			}
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("tier %v, [%d,%d) of %d, alias %d, ca=%v cb=%v: index %d: want %x (%v), got %x (%v)",
					p, lo, hi, len(want), alias, ca, cb, i,
					math.Float64bits(want[i]), want[i], math.Float64bits(got[i]), got[i])
			}
		}
	}
}

func TestBlendTiersBitwise(t *testing.T) {
	tiers := blendTiers(t)
	r := rand.New(rand.NewSource(13))
	coefs := [][2]float64{{0.5, 0.5}, {2, -1}, {0.75, 0.25}, {-0.3, 1e-310}, {0, math.Inf(1)}, {math.NaN(), 1}}
	for n := 0; n <= 67; n++ {
		for lo := 0; lo < 4; lo++ {
			size := lo + n + 3
			dst, a, b := make([]float64, size), make([]float64, size), make([]float64, size)
			for alias := 0; alias < aliasModes; alias++ {
				fillBlend(r, dst)
				fillBlend(r, a)
				fillBlend(r, b)
				c := coefs[r.Intn(len(coefs))]
				checkBlend(t, tiers, dst, a, c[0], b, c[1], lo, lo+n, alias)
			}
		}
	}
}

// FuzzBlendTiers feeds arbitrary bit patterns (every NaN payload,
// subnormals, signed zeros) and spans through every tier.
func FuzzBlendTiers(f *testing.F) {
	f.Add([]byte("blend tiers must agree bitwise with the row loop, lanes and tail alike!"), 0.5, 0.5, uint8(1), uint8(0))
	f.Add(make([]byte, 8*67*3), 2.0, -1.0, uint8(3), uint8(aliasB))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0xf0, 0x7f}, math.Inf(-1), 0.0, uint8(0), uint8(aliasA))
	tiers := blendTiers(f)
	f.Fuzz(func(t *testing.T, data []byte, ca, cb float64, lo, alias uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		size := len(vals) / 3
		if size == 0 {
			return
		}
		l := int(lo) % size
		checkBlend(t, tiers, vals[:size], vals[size:2*size], ca, vals[2*size:3*size], cb, l, size, int(alias)%aliasModes)
	})
}

// BenchmarkBlend times each tier on a 4096-point row that stays in L1.
func BenchmarkBlend(b *testing.B) {
	const n = 4096
	r := rand.New(rand.NewSource(5))
	dst, x, y := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = r.Float64(), r.Float64()
	}
	for p, k := range blendTiers(b) {
		b.Run(p.String(), func(b *testing.B) {
			b.SetBytes(3 * 8 * n)
			for i := 0; i < b.N; i++ {
				k(dst, x, 0.5, y, 0.5, 0, n)
			}
		})
	}
}
