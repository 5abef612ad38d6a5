// Package dist implements distributed-memory execution of the
// tessellation scheme, the capability the paper attributes to it in
// §4.1: "the clear tessellation scheme also enables us to generate a
// simple data/computation distribution and an efficient data
// communication plan".
//
// The domain is decomposed into slabs along the outermost dimension.
// Each rank owns a territory plus an exchange halo of width
// H = Big + slope; once per parallel region — i.e. d times per BT time
// steps instead of once per step — neighbouring ranks swap H-wide
// strips of both time-parity buffers, then every rank executes all
// blocks of the region that intersect its territory (boundary-
// straddling blocks are computed redundantly on both sides, which the
// region-independence property makes safe; see DESIGN.md), one box-
// kernel call per clipped block box on the tier core.RunPath samples
// once per Run. The region and block lists come from a plan each rank
// caches for its last step count. With
// SetOverlap the exchange runs concurrently with the region's interior
// blocks — those whose read footprint never touches the strips — and
// only the halo-dependent blocks wait for it. Either way outputs are
// bitwise identical to a single-rank run.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// Transport moves float64 payloads between ranks. Send and Recv match
// in order per (sender, receiver) pair. Implementations must be safe
// for concurrent calls targeting different peers, and for one Send
// concurrent with one Recv on the same peer (full duplexity) — the
// overlapped exchange keeps both directions of each neighbour link in
// flight at once.
type Transport interface {
	// Send transmits data to peer. The slice may be reused after Send
	// returns.
	Send(peer int, data []float64) error
	// Recv fills buf with the next message from peer; the message
	// length must equal len(buf).
	Recv(peer int, buf []float64) error
}

// DefaultClusterDepth is the per-pair channel buffer LocalCluster
// uses: enough for the synchronous even/odd exchange and for the
// overlapped exchange's one outstanding strip per direction, with
// headroom for gathers.
const DefaultClusterDepth = 8

// LocalCluster returns in-process transports for n ranks, connected by
// channels buffered to DefaultClusterDepth. It is the test and
// single-process substrate.
func LocalCluster(n int) []Transport { return LocalClusterDepth(n, DefaultClusterDepth) }

// LocalClusterDepth is LocalCluster with an explicit per-pair channel
// buffer depth (minimum 1). A Send beyond the depth blocks until the
// receiver drains a message — the backpressure a bounded link applies
// to a producer that runs ahead.
func LocalClusterDepth(n, depth int) []Transport {
	if depth < 1 {
		depth = 1
	}
	chans := make([][]chan []float64, n)
	for i := range chans {
		chans[i] = make([]chan []float64, n)
		for j := range chans[i] {
			chans[i][j] = make(chan []float64, depth)
		}
	}
	ts := make([]Transport, n)
	for i := 0; i < n; i++ {
		ts[i] = &chanTransport{id: i, chans: chans}
	}
	return ts
}

// chanTransport: chans[src][dst] carries messages src -> dst.
type chanTransport struct {
	id    int
	chans [][]chan []float64
}

func (t *chanTransport) Send(peer int, data []float64) error {
	if peer < 0 || peer >= len(t.chans) {
		return fmt.Errorf("dist: send to invalid rank %d", peer)
	}
	msg := make([]float64, len(data))
	copy(msg, data)
	t.chans[t.id][peer] <- msg
	return nil
}

func (t *chanTransport) Recv(peer int, buf []float64) error {
	if peer < 0 || peer >= len(t.chans) {
		return fmt.Errorf("dist: recv from invalid rank %d", peer)
	}
	msg := <-t.chans[peer][t.id]
	if len(msg) != len(buf) {
		return fmt.Errorf("dist: rank %d received %d floats from %d, want %d", t.id, len(msg), peer, len(buf))
	}
	copy(buf, msg)
	return nil
}

// TCP wire format (version 1). One persistent duplex connection per
// unordered rank pair; the lower rank dials the higher. Connections
// open lazily on first use and are cached for the transport's
// lifetime.
//
//	handshake, dialer -> acceptor, once per connection:
//	  [4] magic "TESS"   [4] version   [8] dialer rank (little endian)
//	frame, either direction, one per message:
//	  [4] magic "TESF"   [4] float count   [count*8] IEEE-754 bits
//
// The frame magic catches stream desync (a partial write from a dying
// peer, or a peer speaking a different version) instead of silently
// reinterpreting payload bytes as a length.
const (
	tcpMagic   = 0x54455353 // "TESS"
	frameMagic = 0x54455346 // "TESF"
	tcpVersion = 1

	handshakeLen   = 16
	frameHeaderLen = 8
)

// ErrTransportClosed is returned by operations on a closed
// TCPTransport.
var ErrTransportClosed = errors.New("dist: transport closed")

// TCPOptions bound every blocking step of a TCPTransport so a dead,
// stalled or partitioned peer surfaces as an error instead of a hang.
type TCPOptions struct {
	// DialTimeout bounds connection establishment with a peer: the
	// dial-plus-handshake on the initiating side (connection-refused is
	// retried until the deadline, to tolerate peers that start later),
	// and the wait for the peer's inbound connection on the accepting
	// side. Default 10s.
	DialTimeout time.Duration
	// ReadTimeout bounds each Recv (frame header through payload).
	// Default 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds each Send. Default 30s.
	WriteTimeout time.Duration
}

func (o *TCPOptions) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
}

// TCPTransport connects ranks over TCP: one persistent full-duplex
// connection per peer, length-prefixed binary frames with a versioned
// magic header, and per-operation deadlines from TCPOptions.
type TCPTransport struct {
	id    int
	addrs []string // kept as given: callers may rewrite entries before first use
	opts  TCPOptions
	ln    net.Listener
	done  chan struct{}

	mu     sync.Mutex
	slots  map[int]*peerSlot
	inCh   map[int]chan net.Conn // inbound connections from lower-ranked dialers
	conns  []net.Conn            // every established connection, for Close
	closed bool
}

// peerSlot memoizes connection establishment per peer; a failed
// establishment is sticky (callers get the same error back) so a dead
// peer fails fast instead of re-paying the timeout on every operation.
type peerSlot struct {
	once sync.Once
	pc   *peerConn
	err  error
}

// peerConn serializes frame writes and frame reads independently;
// net.Conn allows one concurrent reader and writer. Each direction owns
// one frame buffer, reused under its lock and grown only to the largest
// frame seen, so a steady exchange allocates nothing per message.
type peerConn struct {
	c          net.Conn
	wmu, rmu   sync.Mutex
	wbuf, rbuf []byte
}

// frameBuf returns *b resized to n bytes, reallocating only when its
// capacity is short.
func frameBuf(b *[]byte, n int) []byte {
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	*b = (*b)[:n]
	return *b
}

// NewTCPTransport creates the transport for rank id listening on
// addrs[id] with default TCPOptions; addrs lists every rank's listen
// address. Close releases the listener and connections.
func NewTCPTransport(id int, addrs []string) (*TCPTransport, error) {
	return NewTCPTransportOpts(id, addrs, TCPOptions{})
}

// NewTCPTransportOpts is NewTCPTransport with explicit deadlines. The
// addrs slice is retained, not copied: callers binding ":0" ports one
// rank at a time may rewrite later entries (see Addr) before the
// first exchange dials them.
func NewTCPTransportOpts(id int, addrs []string, opts TCPOptions) (*TCPTransport, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("dist: rank %d outside address table of %d", id, len(addrs))
	}
	opts.defaults()
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d listen: %w", id, err)
	}
	t := &TCPTransport{
		id:    id,
		addrs: addrs,
		opts:  opts,
		ln:    ln,
		done:  make(chan struct{}),
		slots: map[int]*peerSlot{},
		inCh:  map[int]chan net.Conn{},
	}
	for p := range addrs {
		if p == id {
			continue
		}
		t.slots[p] = &peerSlot{}
		if p < id {
			t.inCh[p] = make(chan net.Conn, 1)
		}
	}
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound listen address (useful with
// ":0" style addrs).
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

func (t *TCPTransport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.handshake(conn)
	}
}

// handshake validates an inbound connection's magic/version header and
// routes it to the waiting peer slot.
func (t *TCPTransport) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(t.opts.DialTimeout))
	var hdr [handshakeLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		conn.Close()
		return
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != tcpMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != tcpVersion {
		conn.Close()
		return
	}
	peer := int(binary.LittleEndian.Uint64(hdr[8:16]))
	conn.SetReadDeadline(time.Time{})
	t.mu.Lock()
	ch, ok := t.inCh[peer]
	t.mu.Unlock()
	if !ok {
		conn.Close() // unknown peer, or one that should be the dialee
		return
	}
	select {
	case ch <- conn:
	default:
		conn.Close() // duplicate connection from the same peer
	}
}

// conn returns the established duplex connection for peer, creating it
// on first use.
func (t *TCPTransport) conn(peer int) (*peerConn, error) {
	if peer == t.id {
		return nil, fmt.Errorf("dist: rank %d connecting to itself", t.id)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrTransportClosed
	}
	s, ok := t.slots[peer]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dist: rank %d has no peer %d", t.id, peer)
	}
	s.once.Do(func() { s.pc, s.err = t.connect(peer) })
	if s.err != nil {
		return nil, s.err
	}
	return s.pc, nil
}

// connect establishes the duplex connection: the lower rank dials and
// sends the handshake, the higher rank waits for the dialer's
// connection to arrive via the accept loop.
func (t *TCPTransport) connect(peer int) (*peerConn, error) {
	var c net.Conn
	if t.id < peer {
		deadline := time.Now().Add(t.opts.DialTimeout)
		for {
			var err error
			c, err = net.DialTimeout("tcp", t.addrs[peer], time.Until(deadline))
			if err == nil {
				break
			}
			// Peers of a multi-process launch come up in arbitrary
			// order; retry refused dials until the deadline.
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("dist: rank %d dial %d: %w", t.id, peer, err)
			}
			select {
			case <-t.done:
				return nil, ErrTransportClosed
			case <-time.After(25 * time.Millisecond):
			}
		}
		var hdr [handshakeLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], tcpMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], tcpVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], uint64(t.id))
		c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
		if _, err := c.Write(hdr[:]); err != nil {
			c.Close()
			return nil, fmt.Errorf("dist: rank %d handshake with %d: %w", t.id, peer, err)
		}
		c.SetWriteDeadline(time.Time{})
	} else {
		t.mu.Lock()
		ch := t.inCh[peer]
		t.mu.Unlock()
		select {
		case c = <-ch:
		case <-t.done:
			return nil, ErrTransportClosed
		case <-time.After(t.opts.DialTimeout):
			return nil, fmt.Errorf("dist: rank %d: no connection from peer %d within %v", t.id, peer, t.opts.DialTimeout)
		}
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, ErrTransportClosed
	}
	t.conns = append(t.conns, c)
	t.mu.Unlock()
	return &peerConn{c: c}, nil
}

// Send implements Transport: one frame per message, written under the
// per-peer write lock and the configured write deadline.
func (t *TCPTransport) Send(peer int, data []float64) error {
	pc, err := t.conn(peer)
	if err != nil {
		return err
	}
	if uint64(len(data)) > math.MaxUint32 {
		return fmt.Errorf("dist: rank %d send to %d: %d floats exceed the frame limit", t.id, peer, len(data))
	}
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	buf := frameBuf(&pc.wbuf, frameHeaderLen+8*len(data))
	binary.LittleEndian.PutUint32(buf[0:4], frameMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(data)))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[frameHeaderLen+8*i:], math.Float64bits(v))
	}
	pc.c.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	if _, err := pc.c.Write(buf); err != nil {
		return fmt.Errorf("dist: rank %d send to %d: %w", t.id, peer, err)
	}
	return nil
}

// Recv implements Transport, under the per-peer read lock and the
// configured read deadline. A frame whose count differs from len(out)
// is rejected from its header alone, before the frame buffer grows to
// the announced payload size.
func (t *TCPTransport) Recv(peer int, out []float64) error {
	pc, err := t.conn(peer)
	if err != nil {
		return err
	}
	pc.rmu.Lock()
	defer pc.rmu.Unlock()
	pc.c.SetReadDeadline(time.Now().Add(t.opts.ReadTimeout))
	hdr := frameBuf(&pc.rbuf, frameHeaderLen)
	if _, err := io.ReadFull(pc.c, hdr); err != nil {
		return fmt.Errorf("dist: rank %d recv from %d: %w", t.id, peer, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != frameMagic {
		return fmt.Errorf("dist: rank %d recv from %d: bad frame magic %#x (stream desync or version mismatch)", t.id, peer, m)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if n != len(out) {
		return fmt.Errorf("dist: rank %d received %d floats from %d, want %d", t.id, n, peer, len(out))
	}
	buf := frameBuf(&pc.rbuf, 8*n)
	if _, err := io.ReadFull(pc.c, buf); err != nil {
		return fmt.Errorf("dist: rank %d recv from %d: %w", t.id, peer, err)
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// Close shuts down the listener and all connections. Blocked Sends and
// Recvs return errors; Close is idempotent.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	conns := t.conns
	t.conns = nil
	t.mu.Unlock()
	t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return nil
}
