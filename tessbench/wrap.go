package main

import (
	"sync/atomic"
	"time"

	"tessellate/internal/dist"
	"tessellate/internal/stencil"
)

// kernelMeter accumulates the wall time, call count and point count of
// every kernel call made through a timed spec.
type kernelMeter struct {
	ns, calls, points atomic.Int64
}

func (m *kernelMeter) observe(start time.Time, points int) {
	m.ns.Add(int64(time.Since(start)))
	m.calls.Add(1)
	m.points.Add(int64(points))
}

// kernelTotals is a copy of a meter's counters.
type kernelTotals struct {
	seconds       float64
	calls, points int64
}

func (m *kernelMeter) totals() kernelTotals {
	return kernelTotals{seconds: float64(m.ns.Load()) / 1e9, calls: m.calls.Load(), points: m.points.Load()}
}

func (a kernelTotals) sub(b kernelTotals) kernelTotals {
	return kernelTotals{seconds: a.seconds - b.seconds, calls: a.calls - b.calls, points: a.points - b.points}
}

// timedSpec returns a copy of s in which every kernel s has (row,
// block and simd tiers) times its calls into m and then calls the
// original. Kernels s lacks stay nil, so every executor resolves the
// same tier on the copy as on s, and results are bitwise identical.
func timedSpec(s *stencil.Spec, m *kernelMeter) *stencil.Spec {
	t := *s
	wrap1 := func(k stencil.Kernel1DBlock) stencil.Kernel1DBlock {
		if k == nil {
			return nil
		}
		return func(dst, src []float64, lo, hi int) {
			t0 := time.Now()
			k(dst, src, lo, hi)
			m.observe(t0, hi-lo)
		}
	}
	wrap2 := func(k stencil.Kernel2DBlock) stencil.Kernel2DBlock {
		if k == nil {
			return nil
		}
		return func(dst, src []float64, base, nx, ny, sy int) {
			t0 := time.Now()
			k(dst, src, base, nx, ny, sy)
			m.observe(t0, nx*ny)
		}
	}
	wrap3 := func(k stencil.Kernel3DBlock) stencil.Kernel3DBlock {
		if k == nil {
			return nil
		}
		return func(dst, src []float64, base, nx, ny, nz, sy, sx int) {
			t0 := time.Now()
			k(dst, src, base, nx, ny, nz, sy, sx)
			m.observe(t0, nx*ny*nz)
		}
	}
	if k := s.K1; k != nil {
		t.K1 = func(dst, src []float64, lo, hi int) {
			t0 := time.Now()
			k(dst, src, lo, hi)
			m.observe(t0, hi-lo)
		}
	}
	if k := s.K2; k != nil {
		t.K2 = func(dst, src []float64, base, n, sy int) {
			t0 := time.Now()
			k(dst, src, base, n, sy)
			m.observe(t0, n)
		}
	}
	if k := s.K3; k != nil {
		t.K3 = func(dst, src []float64, base, n, sy, sx int) {
			t0 := time.Now()
			k(dst, src, base, n, sy, sx)
			m.observe(t0, n)
		}
	}
	t.B1, t.S1 = wrap1(s.B1), wrap1(s.S1)
	t.B2, t.S2 = wrap2(s.B2), wrap2(s.S2)
	t.B3, t.S3 = wrap3(s.B3), wrap3(s.S3)
	return &t
}

// timedPipeline returns a copy of p whose stencil stages run timed
// copies of their specs (see timedSpec); blends are untouched.
func timedPipeline(p *stencil.Pipeline, m *kernelMeter) *stencil.Pipeline {
	t := *p
	t.Stages = append([]stencil.Stage(nil), p.Stages...)
	for i := range t.Stages {
		if t.Stages[i].Spec != nil {
			t.Stages[i].Spec = timedSpec(t.Stages[i].Spec, m)
		}
	}
	return &t
}

// timedTransport decorates a dist.Transport with the time spent in,
// and the messages and bytes passed through, Send and Recv.
type timedTransport struct {
	inner           dist.Transport
	sendNS, recvNS  atomic.Int64
	messages, bytes atomic.Int64
}

func (t *timedTransport) Send(peer int, data []float64) error {
	t0 := time.Now()
	err := t.inner.Send(peer, data)
	t.sendNS.Add(int64(time.Since(t0)))
	t.messages.Add(1)
	t.bytes.Add(8 * int64(len(data)))
	return err
}

func (t *timedTransport) Recv(peer int, buf []float64) error {
	t0 := time.Now()
	err := t.inner.Recv(peer, buf)
	t.recvNS.Add(int64(time.Since(t0)))
	return err
}
