package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPConfig tunes the failure model of the TCP transport: how long mesh
// establishment may take. The zero value selects the default.
type TCPConfig struct {
	// HandshakeTimeout bounds the entire mesh-establishment phase of
	// NewTCP: listening, accepting every higher rank's connection and
	// hello, and dialing every lower rank. When it expires NewTCP
	// returns an error instead of waiting forever on a peer that died
	// mid-handshake. Default DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration

	// writeTimeout replaces DefaultWriteTimeout; only package tests set
	// it, to see a stalled write fail without waiting a minute.
	writeTimeout time.Duration
}

// The failure model's constants. HandshakeTimeout defaults to
// DefaultHandshakeTimeout; the rest are fixed. A frame write that has to
// wait for socket space longer than DefaultWriteTimeout (peer wedged,
// network partition) fails the connection; a dial to a lower rank whose
// listener is not up yet is retried after DefaultDialBackoffBase,
// doubling up to DefaultDialBackoffMax.
const (
	DefaultHandshakeTimeout = 30 * time.Second
	DefaultWriteTimeout     = time.Minute
	DefaultDialBackoffBase  = 10 * time.Millisecond
	DefaultDialBackoffMax   = 500 * time.Millisecond
)

// withDefaults resolves zero fields to the package defaults.
func (c TCPConfig) withDefaults() TCPConfig {
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if c.writeTimeout == 0 {
		c.writeTimeout = DefaultWriteTimeout
	}
	return c
}

// TCP is a full-mesh distributed-memory transport: each pair of ranks
// shares one TCP connection (lower rank listens, higher rank dials) and
// frames are length-prefixed. The goroutine that calls the transport
// moves the bytes, the way an MPI progress engine does, so a
// request→resolved round trip between two compute-bound ranks costs two
// poll intervals and never waits for the Go scheduler to run a helper
// goroutine:
//
//   - Send writes prefix and payload to the peer's socket in one write
//     on the caller's goroutine, under a per-peer lock (several workers
//     of a rank may send at once).
//   - TryRecv, when the inbox is empty, asks the kernel which peer
//     sockets are readable — one non-blocking probe, at most once per
//     probeGap, whatever the rank count — drains those without blocking
//     and parses the complete frames into the inbox (tcp_engine_linux.go;
//     on other platforms only the reader goroutine drains).
//   - One reader goroutine per connection waits for readiness on the
//     runtime's network poller and then runs the same drain under the
//     same per-connection lock. It serves blocking Recv and idle ranks,
//     and it is why an inline write that blocks is always temporary:
//     whatever this rank's engine is doing — including being blocked in
//     its own Send — its readers keep emptying the kernel buffers into
//     the unbounded inbox, so a peer's write to us always completes.
//     That is the property the deadlock analysis of Section 3.5.2 needs
//     from the runtime.
//
// Frames are pushed to the inbox while the connection's read lock is
// held, so per-pair FIFO order survives having two drainers; the poll
// path only ever TryLocks it and never waits behind the reader.
//
// Failure model: mesh establishment is bounded by
// TCPConfig.HandshakeTimeout (a peer dying mid-handshake produces an
// error, not a hang), each frame write that has to wait for socket
// space by DefaultWriteTimeout, and a connection that fails outside
// a graceful Close — whoever notices it, Send, the poll-time drain or
// the reader — latches a connection-lost error that subsequent Recv and
// Send calls return: a crashed peer turns into an error on every
// surviving rank instead of a silent stall. Send returns once the frame
// is in the kernel's socket buffer, so Close has nothing to drain.
type TCP struct {
	rank  int
	addrs []string
	cfg   TCPConfig
	inbox *mailbox
	start time.Time // base of the monotonic clock the probe gate reads
	stats tcpCounters
	eng   engine // the poll-time drain's private state (tcp_engine_*.go)

	mu      sync.Mutex
	conns   []net.Conn  // index by peer rank; nil for self
	peers   []*peerConn // index by peer rank; nil for self
	closed  bool
	failure error // first unexpected connection failure; nil if none
	readers sync.WaitGroup
}

// peerConn is one established connection of the mesh with the state of
// its two directions.
type peerConn struct {
	peer int
	conn net.Conn

	// Write side. wmu serialises whole frames onto the socket; wbuf is
	// the reusable prefix+payload staging buffer that makes a frame one
	// write; wclosed is set once the goodbye marker has gone out.
	wmu     sync.Mutex
	wbuf    []byte
	wclosed bool

	// Read side. rmu guards fr and ended: whoever holds it — the reader
	// goroutine or a TryRecv caller — is the connection's only drainer
	// for that moment. ended is set by the goodbye marker, EOF or a read
	// error; nothing is read after it.
	rmu   sync.Mutex
	fr    frameReader
	ended bool

	engineConn // what the engine-driven I/O needs (tcp_engine_*.go)
}

// TCPStats counts who moved the bytes on a TCP endpoint. On a busy rank
// FramesReader ≫ FramesInline is the signature of the starved path:
// frames waited for the scheduler to run a reader goroutine instead of
// being picked up at the engine's next poll.
type TCPStats struct {
	// FramesInline counts received frames parsed by a TryRecv caller's
	// own socket drain; FramesReader those parsed by a reader goroutine.
	FramesInline int64
	FramesReader int64
	// Probes counts readiness probes issued by TryRecv, ProbeHits those
	// that found at least one readable socket.
	Probes    int64
	ProbeHits int64
	// WriteStalls counts inline writes that had to wait for socket
	// space (the peer's kernel buffer was full). Counted only where the
	// engine-driven path is built (Linux).
	WriteStalls int64
}

type tcpCounters struct {
	framesInline, framesReader, probes, probeHits, writeStalls atomic.Int64
}

// Stats returns a snapshot of the endpoint's I/O counters.
func (t *TCP) Stats() TCPStats {
	return TCPStats{
		FramesInline: t.stats.framesInline.Load(),
		FramesReader: t.stats.framesReader.Load(),
		Probes:       t.stats.probes.Load(),
		ProbeHits:    t.stats.probeHits.Load(),
		WriteStalls:  t.stats.writeStalls.Load(),
	}
}

// NewTCP creates rank's endpoint of a P-rank mesh with the default
// TCPConfig, where addrs[i] is the listen address of rank i
// (len(addrs) = P). It blocks until connections to all peers are
// established or the handshake deadline expires. All ranks must call
// NewTCP concurrently (they are separate processes in real deployments).
func NewTCP(rank int, addrs []string) (*TCP, error) {
	return NewTCPWithConfig(rank, addrs, TCPConfig{})
}

// NewTCPWithConfig is NewTCP with an explicit handshake timeout.
func NewTCPWithConfig(rank int, addrs []string, cfg TCPConfig) (*TCP, error) {
	cfg = cfg.withDefaults()
	p := len(addrs)
	if p < 1 {
		return nil, fmt.Errorf("transport: empty address list")
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("transport: rank %d outside [0,%d)", rank, p)
	}
	t := &TCP{
		rank:  rank,
		addrs: addrs,
		cfg:   cfg,
		inbox: newMailbox(),
		start: time.Now(),
		conns: make([]net.Conn, p),
		peers: make([]*peerConn, p),
	}
	deadline := t.start.Add(cfg.HandshakeTimeout)

	// closeAll tears down whatever the partial handshake established.
	closeAll := func() {
		for _, c := range t.conns {
			if c != nil {
				c.Close()
			}
		}
	}

	// Accept connections from all higher ranks. The listener itself
	// carries the handshake deadline, so a higher rank that never
	// arrives (or dies mid-hello) turns into a timeout error here
	// instead of an eternal Accept.
	var ln net.Listener
	var err error
	if rank < p-1 {
		ln, err = net.Listen("tcp", addrs[rank])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", addrs[rank], err)
		}
		defer ln.Close()
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
	}

	acceptErr := make(chan error, 1)
	go func() {
		for accepted := 0; accepted < p-1-rank; {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- fmt.Errorf("transport: accepting peers (%d of %d arrived before the handshake deadline): %w",
					accepted, p-1-rank, err)
				return
			}
			var hdr [4]byte
			conn.SetReadDeadline(deadline)
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				conn.Close()
				acceptErr <- fmt.Errorf("transport: reading peer handshake: %w", err)
				return
			}
			conn.SetReadDeadline(time.Time{})
			from := int(binary.LittleEndian.Uint32(hdr[:]))
			if from <= rank || from >= p {
				conn.Close()
				acceptErr <- fmt.Errorf("transport: bad handshake rank %d", from)
				return
			}
			t.mu.Lock()
			dup := t.conns[from] != nil
			if !dup {
				t.conns[from] = conn
				accepted++
			}
			t.mu.Unlock()
			if dup {
				conn.Close()
				acceptErr <- fmt.Errorf("transport: duplicate handshake from rank %d", from)
				return
			}
		}
		acceptErr <- nil
	}()

	// Dial all lower ranks, retrying with bounded exponential backoff
	// while their listeners come up.
	for peer := 0; peer < rank; peer++ {
		conn, err := dialBackoff(addrs[peer], deadline)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("transport: dial rank %d at %s: %w", peer, addrs[peer], err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(rank))
		conn.SetWriteDeadline(deadline)
		if _, err := conn.Write(hdr[:]); err != nil {
			conn.Close()
			closeAll()
			return nil, fmt.Errorf("transport: handshake to rank %d: %w", peer, err)
		}
		conn.SetWriteDeadline(time.Time{})
		t.mu.Lock()
		t.conns[peer] = conn
		t.mu.Unlock()
	}

	if err := <-acceptErr; err != nil {
		closeAll()
		return nil, err
	}

	for peer, conn := range t.conns {
		if conn == nil {
			continue
		}
		t.peers[peer] = &peerConn{
			peer: peer,
			conn: conn,
			fr:   frameReader{inbox: t.inbox, from: peer, buf: make([]byte, tcpReadBufSize)},
		}
	}
	if err := t.engineInit(); err != nil {
		closeAll()
		return nil, err
	}
	for _, pc := range t.peers {
		if pc != nil {
			t.readers.Add(1)
			go t.readLoop(pc)
		}
	}
	return t, nil
}

// dialBackoff dials addr until it succeeds or the deadline passes,
// doubling the inter-attempt delay from DefaultDialBackoffBase up to
// DefaultDialBackoffMax.
func dialBackoff(addr string, deadline time.Time) (net.Conn, error) {
	backoff := DefaultDialBackoffBase
	for {
		attempt := time.Until(deadline)
		if attempt <= 0 {
			return nil, fmt.Errorf("handshake deadline expired")
		}
		if attempt > time.Second {
			attempt = time.Second
		}
		conn, err := net.DialTimeout("tcp", addr, attempt)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("handshake deadline expired: %w", err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > DefaultDialBackoffMax {
			backoff = DefaultDialBackoffMax
		}
	}
}

// fail latches the first unexpected connection failure and wakes any
// blocked Recv by closing the inbox (frames already queued are still
// delivered first). During a graceful Close connection errors are
// expected and ignored.
func (t *TCP) fail(peer int, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if t.failure == nil {
		t.failure = fmt.Errorf("transport: connection to rank %d lost: %w", peer, err)
	}
	t.mu.Unlock()
	t.inbox.close()
}

// Err returns the latched connection failure, or nil while every peer
// connection is healthy (or after a graceful Close).
func (t *TCP) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failure
}

// tcpReadBufSize sizes each connection's staging buffer: large enough
// that a length prefix plus many coalesced frames arrive in one read
// syscall.
const tcpReadBufSize = 64 << 10

// A zero-length frame is the goodbye marker: Close writes one on every
// connection, so the peer can tell a graceful shutdown (goodbye, then
// EOF) from a crashed process (EOF or reset with no goodbye). Data frames
// are never empty — the communicator only flushes non-empty batches — so
// the length is unambiguous on the wire.

// maxFrameSize bounds a frame's length on the wire, both ways: Send
// refuses a longer frame rather than wrap its 32-bit prefix, and the
// reader fails the connection on a longer prefix before leasing a byte
// for it. The communicator flushes at most its buffer capacity of
// messages per frame, each under 48 bytes in the v3 codec — 12 KB at the
// default 256 — so 64 MiB leaves room for a capacity past a million.
const maxFrameSize = 64 << 20

// frameReader reassembles length-prefixed frames from a byte stream that
// arrives in arbitrary pieces. Its user reads into target() and reports
// the byte count to advance(), which pushes every frame those bytes
// complete into the inbox. Small frames pass through the staging buffer
// (many per read); a frame the staging buffer holds only the start of is
// read the rest of the way straight into its leased buffer.
type frameReader struct {
	inbox *mailbox
	from  int
	buf   []byte // staging; buf[r:w] is read but not yet parsed
	r, w  int
	body  []byte // leased frame being filled directly; nil between frames
	fill  int
}

// target returns where the next read must land. It is never empty.
func (fr *frameReader) target() []byte {
	if fr.body != nil {
		return fr.body[fr.fill:]
	}
	return fr.buf[fr.w:]
}

// midFrame reports whether the stream stands inside a frame (EOF here
// is a truncated frame, not a clean end).
func (fr *frameReader) midFrame() bool { return fr.body != nil || fr.w > fr.r }

// eofError is the read error for a peer that closed without goodbye.
func (fr *frameReader) eofError() error {
	if fr.midFrame() {
		return io.ErrUnexpectedEOF
	}
	return io.EOF
}

// emit hands one completed frame to the inbox, counting it in who first
// so a consumer never holds a frame the counters have not seen. It
// reports false when the inbox is closed.
func (fr *frameReader) emit(data []byte, who *atomic.Int64) bool {
	who.Add(1)
	return fr.inbox.push(Frame{From: fr.from, Data: data}) == nil
}

// advance accounts n bytes just read into target(). It returns the
// number of frames emitted (each counted in who) and whether reading
// must stop: the goodbye marker arrived, the inbox is closed, or — with
// err set — the peer announced a frame longer than maxFrameSize.
func (fr *frameReader) advance(n int, who *atomic.Int64) (frames int, end bool, err error) {
	if fr.body != nil {
		if fr.fill += n; fr.fill < len(fr.body) {
			return 0, false, nil
		}
		data := fr.body
		fr.body, fr.fill = nil, 0
		if !fr.emit(data, who) {
			return 0, true, nil
		}
		return 1, false, nil // the staging buffer is empty while body is set
	}
	fr.w += n
	for fr.w-fr.r >= 4 {
		size := int(binary.LittleEndian.Uint32(fr.buf[fr.r:]))
		if size == 0 {
			return frames, true, nil
		}
		if size > maxFrameSize {
			return frames, true, fmt.Errorf("transport: rank %d announced a %d-byte frame, over the %d-byte limit", fr.from, size, maxFrameSize)
		}
		fr.r += 4
		data := LeaseFrame(size)[:size]
		got := copy(data, fr.buf[fr.r:fr.w])
		fr.r += got
		if got < size {
			fr.body, fr.fill = data, got
			break
		}
		if !fr.emit(data, who) {
			return frames, true, nil
		}
		frames++
	}
	// At most a partial prefix is left: move it to the front so the next
	// read has the whole buffer.
	fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
	fr.r = 0
	return frames, false, nil
}

// writeBlocking writes b with the ordinary blocking Write, bounded by
// the write timeout.
func (t *TCP) writeBlocking(pc *peerConn, b []byte) error {
	pc.conn.SetWriteDeadline(time.Now().Add(t.cfg.writeTimeout))
	_, err := pc.conn.Write(b)
	return err
}

// Rank implements Transport.
func (t *TCP) Rank() int { return t.rank }

// Size implements Transport.
func (t *TCP) Size() int { return len(t.addrs) }

// sendErr is what Send reports instead of touching a socket: the latched
// failure, or ErrClosed once Close or Abort has begun.
func (t *TCP) sendErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failure != nil {
		return t.failure
	}
	if t.closed {
		return ErrClosed
	}
	return nil
}

// Send implements Transport. Self-sends loop back through the inbox;
// every other frame is written to the peer's socket before Send returns,
// prefix and payload in one write. A write that finds the peer's kernel
// buffer full blocks until the peer's reader has made room (bounded by
// the write timeout). After a connection failure has been latched, Send
// reports it so the engine stops generating instead of producing frames
// no one will read.
func (t *TCP) Send(to int, data []byte) error {
	if to < 0 || to >= len(t.addrs) {
		return fmt.Errorf("transport: send to rank %d outside [0,%d)", to, len(t.addrs))
	}
	if len(data) > maxFrameSize {
		return fmt.Errorf("transport: %d-byte frame to rank %d is over the %d-byte limit", len(data), to, maxFrameSize)
	}
	if err := t.sendErr(); err != nil {
		return err
	}
	if to == t.rank {
		return t.inbox.push(Frame{From: t.rank, Data: data})
	}
	pc := t.peers[to]
	pc.wmu.Lock()
	if pc.wclosed {
		pc.wmu.Unlock()
		return ErrClosed
	}
	pc.wbuf = binary.LittleEndian.AppendUint32(pc.wbuf[:0], uint32(len(data)))
	pc.wbuf = append(pc.wbuf, data...)
	// The bytes are copied: this side's ownership of the leased buffer
	// ends here.
	ReleaseFrame(data)
	err := t.write(pc, pc.wbuf)
	pc.wmu.Unlock()
	if err != nil {
		t.fail(to, err) // no-op if our own Close or Abort is in progress
		return t.sendErr()
	}
	return nil
}

// recvErr maps the inbox's end-of-stream to the error Recv and TryRecv
// report: the latched failure if there is one.
func (t *TCP) recvErr() error {
	if err := t.Err(); err != nil {
		return err
	}
	return ErrClosed
}

// Recv implements Transport. After a peer connection fails outside a
// graceful Close, the already-received frames drain first and then Recv
// returns the connection-lost error.
func (t *TCP) Recv() (Frame, error) {
	f, ok, err := t.inbox.pop(true)
	if err != nil || !ok {
		return Frame{}, t.recvErr()
	}
	return f, nil
}

// TryRecv implements Transport. When the inbox is empty it drives the
// receive side itself (see probe) instead of reporting "nothing yet" and
// leaving the bytes in the kernel until a reader goroutine is scheduled.
func (t *TCP) TryRecv() (Frame, bool, error) {
	f, ok, err := t.inbox.pop(false)
	if !ok && err == nil && t.probe() {
		f, ok, err = t.inbox.pop(false)
	}
	if err != nil {
		return Frame{}, false, t.recvErr()
	}
	return f, ok, nil
}

// Close implements Transport, running the graceful shutdown sequence.
// Every frame Send accepted is already in the kernel's socket buffer, so
// there is nothing to drain: a goodbye marker, queued behind any write
// still in progress, tells every peer this shutdown is deliberate (so
// they do not report a lost connection), and then the connections are
// torn down. Callers must not Close while peers still expect traffic
// from this rank: frames a peer sends after processing our goodbye fail
// its connection.
func (t *TCP) Close() error {
	if !t.beginClose() {
		return nil
	}
	var goodbye [4]byte // zero length = goodbye marker
	for _, pc := range t.peers {
		if pc == nil {
			continue
		}
		pc.wmu.Lock()
		pc.wclosed = true
		t.write(pc, goodbye[:]) // best effort; the peer may already be gone
		pc.wmu.Unlock()
	}
	t.teardown()
	return nil
}

// Abort tears the endpoint down abruptly: no goodbye markers — peers
// observe exactly what a crashed process looks like on the wire (EOF or
// reset without goodbye) and latch connection-lost errors. It exists for
// fault injection (the kill tests abort an endpoint mid-protocol);
// production shutdown goes through Close.
func (t *TCP) Abort() {
	if t.beginClose() {
		t.teardown()
	}
}

// beginClose marks the endpoint closed — from here connection errors
// are expected and Send refuses — and reports whether this call is the
// one that did.
func (t *TCP) beginClose() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.closed = true
	return true
}

// teardown closes the sockets, which fails any write in progress and
// wakes the readers, and waits for the readers to exit.
func (t *TCP) teardown() {
	t.engineStop()
	for _, pc := range t.peers {
		if pc != nil {
			pc.conn.Close()
		}
	}
	t.inbox.close()
	t.readers.Wait()
}
