package transport

import (
	"sync"

	"pagen/internal/msg"
)

// Frame-buffer pooling. The hot path sends one frame per flushed message
// batch; leasing the byte buffers from a pool instead of allocating per
// frame makes the steady-state send/receive path allocation-free.
//
// Ownership rule (the lease/release protocol):
//
//   - The producer of a frame leases its buffer with LeaseFrame and hands
//     ownership to Transport.Send.
//   - Whoever consumes the frame bytes releases the buffer exactly once
//     with ReleaseFrame: the decoding endpoint for locally-delivered
//     frames (internal/comm does this after DecodeBatch), or TCP.Send
//     itself, on the caller's goroutine, once the bytes are copied
//     towards the socket (whoever drains the remote socket then leases a
//     fresh buffer for the incoming copy).
//   - After release the buffer must not be touched; a released buffer may
//     be handed out by the next LeaseFrame anywhere in the process.
//
// Buffers that never get released (e.g. frames dropped at shutdown) are
// simply garbage collected — the pool tolerates leaks, never double
// frees.

// frameBuf boxes a pooled buffer so Put never allocates: fullFrames holds
// boxes with data, emptyBoxes recycles the boxes themselves.
type frameBuf struct{ b []byte }

var (
	fullFrames sync.Pool // *frameBuf with b != nil
	emptyBoxes = sync.Pool{New: func() any { return new(frameBuf) }}
)

// LeaseFrame returns a zero-length buffer with capacity at least capHint,
// reusing a released buffer when one is available.
func LeaseFrame(capHint int) []byte {
	if v := fullFrames.Get(); v != nil {
		fb := v.(*frameBuf)
		b := fb.b[:0]
		fb.b = nil
		emptyBoxes.Put(fb)
		if cap(b) >= capHint {
			return b
		}
	}
	return make([]byte, 0, capHint)
}

// ReleaseFrame returns a buffer to the pool. Zero-capacity buffers are
// dropped (nothing to reuse).
func ReleaseFrame(b []byte) {
	if cap(b) == 0 {
		return
	}
	fb := emptyBoxes.Get().(*frameBuf)
	fb.b = b
	fullFrames.Put(fb)
}

// Message-slice pooling for the MsgSender fast path: the same
// lease/release ownership rule as frame buffers, applied to decoded
// []msg.Message batches handed across ranks by reference. The producer
// leases with LeaseMsgs and hands ownership to SendMsgs; the consumer
// reads the messages in place and releases exactly once with
// ReleaseMsgs when done with them; leaked slices (shutdown drops) are
// garbage collected.

// msgBuf boxes a pooled message slice so Put never allocates.
type msgBuf struct{ ms []msg.Message }

var (
	fullMsgs      sync.Pool // *msgBuf with ms != nil
	emptyMsgBoxes = sync.Pool{New: func() any { return new(msgBuf) }}
)

// LeaseMsgs returns a zero-length message slice with capacity at least
// capHint, reusing a released slice when one is available.
func LeaseMsgs(capHint int) []msg.Message {
	if v := fullMsgs.Get(); v != nil {
		mb := v.(*msgBuf)
		ms := mb.ms[:0]
		mb.ms = nil
		emptyMsgBoxes.Put(mb)
		if cap(ms) >= capHint {
			return ms
		}
	}
	return make([]msg.Message, 0, capHint)
}

// ReleaseMsgs returns a message slice to the pool. Zero-capacity slices
// are dropped.
func ReleaseMsgs(ms []msg.Message) {
	if cap(ms) == 0 {
		return
	}
	mb := emptyMsgBoxes.Get().(*msgBuf)
	mb.ms = ms
	fullMsgs.Put(mb)
}
