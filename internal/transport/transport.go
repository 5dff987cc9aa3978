// Package transport provides the point-to-point message substrate the
// communicator (internal/comm) is built on — the role MPI plays in the
// paper. Three implementations are provided:
//
//   - Local: ranks are goroutines in one process, connected by
//     mailboxes. Deterministic-ish, cheap, and deadlock-free by
//     construction: a send never blocks, so the circular-wait scenario
//     the paper's Section 3.5.2 guards against cannot wedge the runtime
//     (the buffering *policy* is still implemented faithfully in
//     internal/comm, where its effect on message counts is measured).
//     Mailbox depth is bounded at DefaultQueueLimit: a wedged consumer
//     fails the sender fast with ErrBacklog instead of growing the
//     queue until the process OOMs.
//   - Shm: Local plus the MsgSender fast path — co-located ranks hand
//     pooled message batches across by reference, skipping the v3 codec
//     entirely. This is the default for pagen -ranks on one host.
//   - TCP: ranks are separate OS processes in a full mesh of TCP
//     connections with length-prefixed frames — genuine distributed
//     memory. The goroutine that calls the transport moves the bytes,
//     as under MPI: Send writes the frame to the socket itself, and
//     TryRecv, finding the inbox empty, drains the readable sockets
//     itself, so a round trip between two busy ranks never waits for
//     the scheduler to run a helper goroutine. One reader goroutine per
//     connection remains for blocked and idle ranks; it pumps frames
//     into the same unbounded mailbox whatever the engine is doing, so
//     a slow consumer never stalls a sender's kernel buffers
//     indefinitely — which is why a Send that blocks on a full socket
//     always gets to finish (see the TCP type).
//
// A Transport moves opaque frames; message semantics live in
// internal/msg, batching policy in internal/comm.
//
// There is no fault-injecting transport here. The determinism contract
// (DESIGN.md §8.1) is tested on a seeded simulated network in
// internal/core's tests, which reorders frames across channels and
// crashes ranks as schedule choices; the
// crash tests over real sockets abort a TCP endpoint (TCP.Abort).
package transport

import (
	"errors"

	"pagen/internal/msg"
)

// Frame is one received transport frame. Exactly one of Data and Msgs
// is set: Data carries serialized bytes (the wire formats in
// internal/msg), Msgs carries decoded messages handed across by
// reference on a shared-memory transport (see MsgSender). Consumers
// must check Msgs first and fall back to decoding Data.
type Frame struct {
	From int
	Data []byte
	Msgs []msg.Message
}

// ErrClosed is returned by Recv after Close, and by Send on a closed
// transport.
var ErrClosed = errors.New("transport: closed")

// ErrBacklog is returned by Send on a bounded in-process transport when
// the destination mailbox has accumulated DefaultQueueLimit undelivered
// frames. It means the receiving rank has effectively stopped consuming
// (deadlock, livelock, or a wedged goroutine): the protocol's buffering
// policy flushes at most one frame per BufferCap messages, so a healthy
// receiver drains far faster than any sender can legally produce.
// Failing fast surfaces the wedge instead of growing the queue until
// the process OOMs.
var ErrBacklog = errors.New("transport: receiver backlog limit exceeded")

// DefaultQueueLimit bounds the per-rank mailbox depth of the bounded
// in-process transports (Local and Shm). At the default BufferCap of
// 256 messages per frame this is ≈33M buffered messages per receiver —
// orders of magnitude beyond any healthy backlog, so the limit only
// trips on a genuinely stuck consumer.
const DefaultQueueLimit = 1 << 17

// MsgSender is the optional no-serialize fast path a Transport may
// provide for co-located ranks. SendMsgs hands a decoded message batch
// to rank to by reference; the callee takes ownership of ms (the caller
// must not touch it afterwards), mirroring the Send contract for byte
// buffers. The consumer releases the slice exactly once with
// ReleaseMsgs, mirroring ReleaseFrame.
//
// A transport without it — Local, TCP, or a wrapper that inspects
// frame bytes — carries byte frames only, and the communicator encodes
// every batch for it.
type MsgSender interface {
	SendMsgs(to int, ms []msg.Message) error
}

// Transport is a reliable, per-pair-ordered frame transport among P ranks.
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size()).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send delivers data to rank to. The callee takes ownership of data.
	// Send never blocks indefinitely on an unconsumed receiver.
	Send(to int, data []byte) error
	// Recv blocks until a frame arrives or the transport is closed.
	Recv() (Frame, error)
	// TryRecv returns a frame if one is immediately available.
	TryRecv() (Frame, bool, error)
	// Close shuts the endpoint down; blocked Recv calls return ErrClosed.
	Close() error
}

// mailbox is an unbounded MPSC queue with blocking and non-blocking pop.
// Senders append under the lock; the single consumer (the rank's engine
// loop) pops. Unboundedness is what makes Local sends non-blocking.
// The backing array is retained across drain cycles (head-index pops,
// reset to the front when empty) so steady-state push/pop does not
// allocate; its capacity is bounded by the largest backlog.
type mailbox struct {
	mu     chan struct{} // 1-token semaphore guarding q (select-friendly)
	notify chan struct{} // 1-buffered wakeup
	q      []Frame
	head   int
	limit  int // max undelivered frames; 0 = unbounded
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{
		mu:     make(chan struct{}, 1),
		notify: make(chan struct{}, 1),
	}
	m.mu <- struct{}{}
	return m
}

// newMailboxLimited returns a mailbox whose push fails with ErrBacklog
// once limit frames are queued undelivered. The in-process group
// transports use this to bound queue growth behind a stuck consumer;
// TCP keeps unbounded mailboxes because its reader goroutines must
// never stall the peer's kernel buffers.
func newMailboxLimited(limit int) *mailbox {
	m := newMailbox()
	m.limit = limit
	return m
}

func (m *mailbox) lock()   { <-m.mu }
func (m *mailbox) unlock() { m.mu <- struct{}{} }

func (m *mailbox) push(f Frame) error {
	m.lock()
	if m.closed {
		m.unlock()
		return ErrClosed
	}
	if m.limit > 0 && len(m.q)-m.head >= m.limit {
		m.unlock()
		return ErrBacklog
	}
	m.q = append(m.q, f)
	m.unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
	return nil
}

// pop removes the head frame. If block is false and the queue is empty it
// returns ok=false immediately.
func (m *mailbox) pop(block bool) (Frame, bool, error) {
	for {
		m.lock()
		if m.head < len(m.q) {
			f := m.q[m.head]
			m.q[m.head] = Frame{} // drop the data reference
			m.head++
			if m.head == len(m.q) {
				m.q = m.q[:0]
				m.head = 0
			}
			m.unlock()
			return f, true, nil
		}
		closed := m.closed
		m.unlock()
		if closed {
			return Frame{}, false, ErrClosed
		}
		if !block {
			return Frame{}, false, nil
		}
		<-m.notify
	}
}

func (m *mailbox) close() {
	m.lock()
	m.closed = true
	m.unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}
