// Package comm implements the communicator of the parallel generator: the
// layer between the engine (internal/core) and the raw transport. It
// provides what the paper's MPI usage provides — buffered sends that
// combine multiple messages to the same destination into one transport
// operation (Section 3.5.1 "Message Buffering"), message counters for the
// load analysis of Section 4.6, and a receive that hands out one frame's
// messages per call: a shared-memory batch in place, a byte frame decoded
// into a reused scratch.
//
// Concurrency: none. A Comm belongs to one goroutine — the rank's — for
// sending and receiving alike.
//
// Flush discipline (engine responsibility, supported here): the paper's
// Section 3.5.2 deadlock rule — resolved messages must leave the buffer
// after processing every received group — maps to calling FlushAll before
// every blocking Wait. The unbounded-mailbox transport cannot deadlock on
// full buffers, but an unflushed buffer would still stall the protocol
// forever, so the rule is as load-bearing here as under MPI.
package comm

import (
	"fmt"

	"pagen/internal/msg"
	"pagen/internal/transport"
)

// Config controls buffering.
type Config struct {
	// BufferCap is the number of messages a per-destination buffer holds
	// before an automatic flush. 1 disables buffering (every message is
	// its own transport frame) — the unbuffered ablation. 0 selects
	// DefaultBufferCap.
	BufferCap int
}

// DefaultBufferCap is the default per-destination buffer capacity.
const DefaultBufferCap = 256

// Counters tallies protocol traffic for one rank. RequestsSent etc. count
// logical messages; FramesSent/FramesRecv count transport frames, so
// RequestsSent+ResolvedSent+ControlSent versus FramesSent measures how
// much buffering coalesced (the Figure 7 message-distribution inputs are
// the logical counts).
type Counters struct {
	RequestsSent int64
	RequestsRecv int64
	ResolvedSent int64
	ResolvedRecv int64
	ControlSent  int64
	ControlRecv  int64
	FramesSent   int64
	FramesRecv   int64
	BytesSent    int64
	BytesRecv    int64
}

// MessagesSent returns the total logical messages sent.
func (c Counters) MessagesSent() int64 {
	return c.RequestsSent + c.ResolvedSent + c.ControlSent
}

// MessagesRecv returns the total logical messages received.
func (c Counters) MessagesRecv() int64 {
	return c.RequestsRecv + c.ResolvedRecv + c.ControlRecv
}

// Comm is a buffering communicator bound to one transport endpoint.
type Comm struct {
	c Counters

	tr transport.Transport
	// ms is non-nil when tr provides the shared-memory no-serialize
	// path: flushes hand the send buffer across by reference instead of
	// encoding it, and a fresh buffer is leased from the pool.
	ms         transport.MsgSender
	cap        int
	bufs       [][]msg.Message // per-destination send buffers
	requestsTo []int64
	scratch    []msg.Message // the last byte frame's decoded messages
	held       []msg.Message // the last shared-memory batch, until the next receive
}

// New wraps a transport endpoint.
func New(tr transport.Transport, cfg Config) *Comm {
	capacity := cfg.BufferCap
	if capacity <= 0 {
		capacity = DefaultBufferCap
	}
	ms, _ := tr.(transport.MsgSender)
	return &Comm{
		tr:         tr,
		ms:         ms,
		cap:        capacity,
		bufs:       make([][]msg.Message, tr.Size()),
		requestsTo: make([]int64, tr.Size()),
	}
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.tr.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.tr.Size() }

// Counters returns a snapshot of the traffic counters.
func (c *Comm) Counters() Counters { return c.c }

// RequestsTo returns a copy of the per-destination request counts — one
// row of the cluster's request-traffic matrix. Under consecutive
// partitioning the matrix is strictly lower-triangular (Section 4.6.2:
// processor i requests only from processors 0..i-1).
func (c *Comm) RequestsTo() []int64 {
	return append([]int64(nil), c.requestsTo...)
}

// RequestsToView returns the live per-destination request counts without
// copying. The slice aliases the communicator's internal state: it is
// only stable once no further Sends will occur (the engine takes it when
// its run ends and the Comm is discarded). Callers that need a snapshot
// mid-run use RequestsTo.
func (c *Comm) RequestsToView() []int64 { return c.requestsTo }

// count tallies one outgoing message.
func (c *Comm) count(to int, m msg.Message) {
	switch m.Kind {
	case msg.KindRequest:
		c.c.RequestsSent++
		c.requestsTo[to]++
	case msg.KindResolved:
		c.c.ResolvedSent++
	default:
		c.c.ControlSent++
	}
}

// Send buffers m for destination to, flushing automatically when the
// buffer reaches capacity.
func (c *Comm) Send(to int, m msg.Message) error {
	if to < 0 || to >= len(c.bufs) {
		return fmt.Errorf("comm: send to rank %d outside [0,%d)", to, len(c.bufs))
	}
	c.count(to, m)
	c.bufs[to] = append(c.bufs[to], m)
	if len(c.bufs[to]) >= c.cap {
		return c.flush(to)
	}
	return nil
}

// SendNow sends m immediately, flushing anything already buffered for the
// destination first so per-pair ordering is preserved. Used for control
// messages that must not linger in a buffer.
func (c *Comm) SendNow(to int, m msg.Message) error {
	if to < 0 || to >= len(c.bufs) {
		return fmt.Errorf("comm: send to rank %d outside [0,%d)", to, len(c.bufs))
	}
	c.count(to, m)
	c.bufs[to] = append(c.bufs[to], m)
	return c.flush(to)
}

// flush transmits destination to's buffered messages as one frame.
func (c *Comm) flush(to int) error {
	buf := c.bufs[to]
	if len(buf) == 0 {
		return nil
	}
	c.c.FramesSent++
	if c.ms != nil {
		// Shared-memory fast path: the buffered batch crosses by
		// reference — ownership of the slice transfers to the receiver
		// (its next receive releases it) and a fresh buffer is leased for the
		// destination. No bytes are serialized, so BytesSent stays put;
		// FramesSent still counts the transfer.
		c.bufs[to] = transport.LeaseMsgs(c.cap)
		return c.ms.SendMsgs(to, buf)
	}
	// Lease the frame buffer from the transport pool (the receiving
	// decode path releases it) and encode compactly: at steady state a
	// flush allocates nothing.
	frame := transport.LeaseFrame(1 + len(buf)*10)
	frame = msg.AppendEncodeBatchV3(frame, buf)
	c.bufs[to] = buf[:0]
	c.c.BytesSent += int64(len(frame))
	return c.tr.Send(to, frame)
}

// Flush transmits the buffered messages for rank to, if any, as one frame.
func (c *Comm) Flush(to int) error {
	if to < 0 || to >= len(c.bufs) {
		return fmt.Errorf("comm: flush rank %d outside [0,%d)", to, len(c.bufs))
	}
	return c.flush(to)
}

// FlushAll transmits every non-empty buffer.
func (c *Comm) FlushAll() error {
	for to := range c.bufs {
		if err := c.flush(to); err != nil {
			return err
		}
	}
	return nil
}

// Buffered returns the number of messages currently buffered for to.
func (c *Comm) Buffered(to int) int { return len(c.bufs[to]) }

// decode returns the messages of f, updating counters. A shared-memory
// batch is returned as it arrived and held until the next receive call
// releases it; a byte frame is decoded into scratch, which grows only to
// the largest frame, and its buffer returns to the transport pool at once.
func (c *Comm) decode(f transport.Frame) ([]msg.Message, error) {
	ms := f.Msgs
	if ms != nil {
		c.held = ms
	} else {
		var err error
		c.scratch, err = msg.DecodeBatch(c.scratch[:0], f.Data)
		size := int64(len(f.Data))
		transport.ReleaseFrame(f.Data)
		if err != nil {
			return nil, fmt.Errorf("comm: frame from rank %d: %w", f.From, err)
		}
		c.c.BytesRecv += size
		ms = c.scratch
	}
	c.c.FramesRecv++
	for _, m := range ms {
		switch m.Kind {
		case msg.KindRequest:
			c.c.RequestsRecv++
		case msg.KindResolved:
			c.c.ResolvedRecv++
		default:
			c.c.ControlRecv++
		}
	}
	return ms, nil
}

// release returns the batch the previous receive call handed out, if it
// arrived by reference, to the pool.
func (c *Comm) release() {
	if c.held != nil {
		transport.ReleaseMsgs(c.held)
		c.held = nil
	}
}

// Poll returns the messages of one immediately available frame, or nil
// if none is waiting. The returned slice is valid until the next
// Poll/Wait call.
func (c *Comm) Poll() ([]msg.Message, error) {
	c.release()
	f, ok, err := c.tr.TryRecv()
	if err != nil || !ok {
		return nil, err
	}
	return c.decode(f)
}

// Wait blocks for one frame and returns its messages. The returned slice
// is valid until the next Poll/Wait call.
func (c *Comm) Wait() ([]msg.Message, error) {
	c.release()
	f, err := c.tr.Recv()
	if err != nil {
		return nil, err
	}
	return c.decode(f)
}

// Close closes the underlying transport.
func (c *Comm) Close() error { return c.tr.Close() }
