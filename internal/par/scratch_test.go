package par

import (
	"testing"

	"tessellate/internal/telemetry"
)

// Scratch keeps a worker's buffers and their tag until they must grow,
// then reallocates (zeroed, untagged); the gauge follows every byte and
// Close gives them all back.
func TestPoolScratchReuseGrowthAndClose(t *testing.T) {
	before := telemetry.PipelineScratchBytes.Value()
	p := NewPool(2)
	s := p.Scratch(1, 2, 10)
	if len(s.Bufs) != 2 || len(s.Bufs[0]) != 10 || s.Tag != nil {
		t.Fatalf("fresh scratch: %d bufs of %d, tag %v", len(s.Bufs), len(s.Bufs[0]), s.Tag)
	}
	s.Bufs[1][3], s.Tag = 7, "filled"
	if r := p.Scratch(1, 1, 4); r != s || r.Bufs[1][3] != 7 || r.Tag != "filled" {
		t.Fatal("a smaller request did not return the same buffers and tag")
	}
	g := p.Scratch(1, 3, 8)
	if len(g.Bufs) != 3 || len(g.Bufs[0]) != 10 || g.Tag != nil || g.Bufs[1][3] != 0 {
		t.Fatalf("grown scratch: %d bufs of %d, tag %v", len(g.Bufs), len(g.Bufs[0]), g.Tag)
	}
	if got, want := telemetry.PipelineScratchBytes.Value()-before, float64(3*10*8); got != want {
		t.Fatalf("gauge grew by %v, want %v", got, want)
	}
	if other := p.Scratch(0, 1, 5); len(other.Bufs[0]) != 5 {
		t.Fatal("workers share scratch")
	}
	p.Close()
	if after := telemetry.PipelineScratchBytes.Value(); after != before {
		t.Fatalf("gauge %v after Close, want %v", after, before)
	}
}
