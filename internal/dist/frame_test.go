package dist

import (
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"tessellate/internal/grid"
	"tessellate/internal/stencil"
)

// A warm loopback Send+Recv reuses the per-link frame buffers: its
// allocation count is a small constant and the bytes it allocates do
// not grow with the message, up to a strip-sized one.
func TestTCPFrameAllocsConstant(t *testing.T) {
	ts := newTCPCluster(t, 2, TCPOptions{})
	a, b := ts[0], ts[1]
	for _, n := range []int{1, 1 << 10, 1 << 18} { // 1 << 18 floats: a 2 MiB strip
		msg := make([]float64, n)
		got := make([]float64, n)
		for i := range msg {
			msg[i] = float64(i) + 0.5
		}
		// A standing sender goroutine, so the measured loop starts no
		// goroutines of its own.
		kick, sent := make(chan struct{}), make(chan error)
		go func() {
			for range kick {
				sent <- a.Send(1, msg)
			}
		}()
		roundTrip := func() {
			kick <- struct{}{}
			if err := b.Recv(0, got); err != nil {
				t.Fatal(err)
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
		}
		roundTrip() // warm-up: grows both frame buffers
		allocs := testing.AllocsPerRun(20, roundTrip)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 20; i++ {
			roundTrip()
		}
		runtime.ReadMemStats(&m1)
		close(kick)
		bytes := (m1.TotalAlloc - m0.TotalAlloc) / 20
		if got[n-1] != msg[n-1] {
			t.Fatalf("n=%d: payload corrupted", n)
		}
		t.Logf("n=%d floats: %.1f allocations, %d bytes per warm Send+Recv", n, allocs, bytes)
		if allocs > 2 || bytes > 4<<10 {
			t.Errorf("n=%d floats: %.1f allocations, %d bytes per warm Send+Recv; want at most 2 and 4 KiB", n, allocs, bytes)
		}
	}
}

// A warm Rank.Run with an unchanged step count replays the cached
// plan: no region or block lists are rebuilt, and the only allocations
// left are the channel transport's message copies (one per Send) plus
// a small constant.
func TestWarmRunReusesPlan(t *testing.T) {
	const nx, ny, steps = 96, 40, 7
	cfg := testConfig(nx, ny)
	initial := grid.NewGrid2D(nx, ny, 1, 1)
	initial.Fill(func(x, y int) float64 { return float64(x*ny+y) / (nx * ny) })
	ts := LocalCluster(2)
	var ranks [2]*Rank
	for i := range ranks {
		r, err := NewRank(i, 2, ts[i], cfg, stencil.Heat2D, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Scatter(initial); err != nil {
			t.Fatal(err)
		}
		ranks[i] = r
	}
	// Rank 1 runs on a standing goroutine, so the measured loop starts
	// none.
	kick, ran := make(chan struct{}), make(chan error)
	go func() {
		for range kick {
			ran <- ranks[1].Run(steps)
		}
	}()
	defer close(kick)
	run := func() {
		kick <- struct{}{}
		if err := ranks[0].Run(steps); err != nil {
			t.Fatal(err)
		}
		if err := <-ran; err != nil {
			t.Fatal(err)
		}
	}
	run()
	sched := ranks[0].plan.sched
	sent0 := ranks[0].MessagesSent + ranks[1].MessagesSent
	allocs := testing.AllocsPerRun(10, run)
	if ranks[0].plan.sched != sched {
		t.Fatal("repeat Run with the same steps rebuilt the plan")
	}
	runs := 11 // AllocsPerRun's warm-up call plus 10 measured
	sends := float64(ranks[0].MessagesSent+ranks[1].MessagesSent-sent0) / float64(runs)
	t.Logf("warm Run: %.1f allocations, %.0f sends", allocs, sends)
	if allocs > sends+2 {
		t.Errorf("warm Run allocated %.1f times for %.0f sends, want at most sends+2", allocs, sends)
	}
	// A different step count replaces the plan; one plan per rank.
	run2 := make(chan error)
	go func() { run2 <- ranks[1].Run(steps + 1) }()
	if err := ranks[0].Run(steps + 1); err != nil {
		t.Fatal(err)
	}
	if err := <-run2; err != nil {
		t.Fatal(err)
	}
	if ranks[0].plan.sched == sched || ranks[0].plan.sched.Steps() != steps+1 {
		t.Fatal("a new step count did not replace the cached plan")
	}
}

// A header announcing far more floats than the caller expects must be
// rejected from the header alone, without growing the frame buffer.
func TestRecvHugeCountFailsBeforeAllocating(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	b, err := NewTCPTransportOpts(1, addrs, shortTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c := dialAs(t, b.Addr(), 0)
	defer c.Close()
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], math.MaxUint32)
	c.Write(hdr[:])
	if err := b.Recv(0, make([]float64, 4)); err == nil {
		t.Fatal("a 2^32-1 float frame was accepted for a 4-float Recv")
	}
	pc, err := b.conn(0)
	if err != nil {
		t.Fatal(err)
	}
	if cap(pc.rbuf) > frameHeaderLen {
		t.Fatalf("frame buffer grew to %d bytes on a rejected header", cap(pc.rbuf))
	}
}

// FuzzFrameRead feeds arbitrary bytes to the accepting side of a
// connection after a valid handshake. Recv must return within its
// deadline with either an error or exactly the payload a well-formed
// frame carried, and never panic.
func FuzzFrameRead(f *testing.F) {
	frame := func(count uint32, payload []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, frameMagic)
		b = binary.LittleEndian.AppendUint32(b, count)
		return append(b, payload...)
	}
	f.Add(uint8(2), frame(2, make([]byte, 16)))
	f.Add(uint8(1), frame(1, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}))
	f.Add(uint8(3), frame(math.MaxUint32, nil))
	f.Add(uint8(0), frame(0, nil))
	f.Add(uint8(4), []byte("TESS"))
	f.Add(uint8(1), frame(1, []byte{1, 2, 3}))
	opts := TCPOptions{DialTimeout: 2 * time.Second, ReadTimeout: 300 * time.Millisecond, WriteTimeout: 300 * time.Millisecond}
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		want := int(n % 16)
		addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
		b, err := NewTCPTransportOpts(1, addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		c := dialAs(t, b.Addr(), 0)
		defer c.Close()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Write(data)
			c.(*net.TCPConn).CloseWrite() // EOF instead of waiting out the deadline
		}()
		out := make([]float64, want)
		start := time.Now()
		err = b.Recv(0, out)
		if el := time.Since(start); el > opts.ReadTimeout+2*time.Second {
			t.Fatalf("Recv took %v against a %v read deadline", el, opts.ReadTimeout)
		}
		c.Close()
		wg.Wait()
		if err != nil {
			return
		}
		// Success: data must open with a frame of exactly want floats,
		// and out must hold its payload bit for bit.
		if len(data) < frameHeaderLen+8*want ||
			binary.LittleEndian.Uint32(data[0:4]) != frameMagic ||
			binary.LittleEndian.Uint32(data[4:8]) != uint32(want) {
			t.Fatalf("Recv accepted %d bytes that do not open with a %d-float frame", len(data), want)
		}
		for i, v := range out {
			if bits := binary.LittleEndian.Uint64(data[frameHeaderLen+8*i:]); math.Float64bits(v) != bits {
				t.Fatalf("float %d: got bits %#x, sent %#x", i, math.Float64bits(v), bits)
			}
		}
	})
}
