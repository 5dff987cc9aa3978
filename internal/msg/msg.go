// Package msg defines the wire protocol of the parallel generator: the
// request/resolved messages of Algorithms 3.1 and 3.2, the control
// messages of the termination protocol, and a compact varint binary
// codec with batch framing so buffered sends travel as a single transport
// frame (the paper's "message buffering", Section 3.5.1).
package msg

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Kind discriminates message types.
type Kind uint8

const (
	// KindRequest asks the owner of node K for F_K(L), on behalf of
	// slot (T, E): Algorithm 3.2 line 14.
	KindRequest Kind = iota + 1
	// KindResolved answers a request: F_K(L) = V for slot (T, E):
	// Algorithm 3.2 line 18.
	KindResolved
	// KindDone tells the coordinator that the sender rank (in T) has
	// resolved all of its local slots.
	KindDone
	// KindStop broadcasts global termination from the coordinator.
	KindStop
	// KindColl carries a collective-operation step (internal/coll):
	// T = sender rank, K = operation tag, V = payload.
	KindColl
	// KindCkpt carries a checkpoint-epoch protocol step (internal/core's
	// consistent-cut machinery): T = sender rank, E = CkptOp, L = probe
	// round, K/V = op-dependent payloads (epoch number, or the sender's
	// sent/received data-message counters).
	KindCkpt
	// KindPublish replicates a freshly resolved hub-prefix slot to peer
	// ranks: F_T(E) = V. Application is idempotent (slots are write-once),
	// so duplicated publishes are harmless.
	KindPublish
	// KindFence marks the end of the sender rank's (in T) publish stream:
	// once a rank has received a fence from every peer, no further
	// publishes can arrive and the channel is quiet for post-run
	// collectives.
	KindFence
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindResolved:
		return "resolved"
	case KindDone:
		return "done"
	case KindStop:
		return "stop"
	case KindColl:
		return "coll"
	case KindCkpt:
		return "ckpt"
	case KindPublish:
		return "publish"
	case KindFence:
		return "fence"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// CkptOp identifies the checkpoint-protocol step a KindCkpt message
// carries in its E field.
type CkptOp uint16

const (
	// CkptBegin (rank 0 -> all) opens epoch K: pause generation, keep
	// serving the resolution cascade, report when locally quiescent.
	CkptBegin CkptOp = 1 + iota
	// CkptReport (any -> rank 0) is the sender's round-L quiescence
	// report: K = data messages sent, V = data messages received.
	CkptReport
	// CkptProbe (rank 0 -> all) starts counter round L: report again
	// when locally quiescent.
	CkptProbe
	// CkptCut (rank 0 -> all, itself included) declares global
	// quiescence for epoch K: capture the snapshot, then resume. Every
	// other rank relays it to its peers at its own cut, ahead of its
	// post-cut traffic; the first copy a rank receives executes the cut.
	CkptCut
	// CkptVote (any -> rank 0) is the sender's asynchronous commit vote
	// for epoch K (V = 1 captured, 0 failed), sent at its cut just
	// before generation resumes. Rank 0 tallies votes off the pause
	// path; per-destination FIFO ordering guarantees a rank's vote for
	// epoch K precedes anything it sends about epoch K+1.
	CkptVote
	// CkptAbandon (rank 0 -> others) declares epoch K abandoned: some
	// rank voted 0 (capture or latched background-write failure).
	// Receivers uncount the epoch, delete their snapshot file, and
	// force their next epoch to be a full snapshot.
	CkptAbandon
)

// Message is one protocol message. Field use by kind:
//
//	request:  T, E = requesting slot; K, L = queried slot
//	resolved: T, E = requesting slot; V = resolved attachment
//	publish:  T, E = published slot (node, index); V = resolved attachment
//	done:     T = reporting rank
//	fence:    T = reporting rank
//	stop:     no fields
type Message struct {
	Kind Kind
	T    int64
	K    int64
	V    int64
	E    uint16
	L    uint16
}

// Request constructs a request message.
func Request(t int64, e int, k int64, l int) Message {
	return Message{Kind: KindRequest, T: t, E: uint16(e), K: k, L: uint16(l)}
}

// Resolved constructs a resolved message.
func Resolved(t int64, e int, v int64) Message {
	return Message{Kind: KindResolved, T: t, E: uint16(e), V: v}
}

// Done constructs a done message for the reporting rank.
func Done(rank int) Message {
	return Message{Kind: KindDone, T: int64(rank)}
}

// Stop constructs a stop broadcast.
func Stop() Message {
	return Message{Kind: KindStop}
}

// Coll constructs a collective-operation message from the given rank
// with an operation tag and payload.
func Coll(rank int, tag int64, payload int64) Message {
	return Message{Kind: KindColl, T: int64(rank), K: tag, V: payload}
}

// Ckpt constructs a checkpoint-protocol message from the given rank:
// op selects the step, round the counter round (reports and probes),
// and k/v carry the op's payloads.
func Ckpt(rank int, op CkptOp, round int, k, v int64) Message {
	return Message{Kind: KindCkpt, T: int64(rank), E: uint16(op), L: uint16(round), K: k, V: v}
}

// Publish constructs a hub-prefix publish message: F_k(l) = v.
func Publish(k int64, l int, v int64) Message {
	return Message{Kind: KindPublish, T: k, E: uint16(l), V: v}
}

// Fence constructs a publish-stream fence for the reporting rank.
func Fence(rank int) Message {
	return Message{Kind: KindFence, T: int64(rank)}
}

// EncodedSize is a per-message buffer-sizing hint in bytes, the raw
// width of a message's fields: kind(1) + T(8) + K(8) + V(8) + E(2) +
// L(2). The v2/v3 codecs varint-code every field and drop the ones a
// kind does not carry, so real traffic takes a fraction of it per
// message; it is a capacity to preallocate, not a frame-size rule.
const EncodedSize = 1 + 8 + 8 + 8 + 2 + 2

// FrameV2Magic is the version byte that opens a compact (v2) frame. No
// message Kind uses this value (nor FrameV3Magic's), so a frame's first
// byte names its format.
const FrameV2Magic = 0xC2

// Compact (v2) frame layout, after the magic byte: a sequence of kind
// groups, each
//
//	kind(1) | uvarint(count) | count × fields
//
// where the fields per message are, by kind:
//
//	request:  varint(ΔT) varint(K)  uvarint(E) uvarint(L)
//	resolved: varint(ΔT) varint(V)  uvarint(E)
//	publish:  varint(ΔT) varint(V)  uvarint(E)
//	coll:     varint(ΔT) varint(K)  varint(V)
//	ckpt:     varint(ΔT) uvarint(E) uvarint(L) varint(K) varint(V)
//	done:     varint(ΔT)
//	stop:     varint(ΔT)
//	fence:    varint(ΔT)
//
// ΔT is the difference from the previous message's T within the group
// (starting from 0). Buffered requests carry near-monotone t values, so
// ΔT is usually one zigzag-varint byte and a request takes ~6-10 bytes.
// Fields a kind does not carry (V for requests, K and L for resolved,
// everything but T for done/stop) are dropped on the wire and decode as
// zero — exactly the values the constructors set.

// FrameV3Magic is the version byte that opens a v3 frame. v3 is v2
// with one change: publish groups are slot-delta coded. A publish
// identifies an attachment slot (T, E) with E < x; v3 packs the two
// into one integer slotcode = T<<s | E (s sized to the group's widest
// E, carried in a header byte) and delta-codes consecutive slotcodes.
// Owners publish a node's x slots back-to-back, so the slot delta is
// usually exactly 1 — one byte where v2 spent ΔT + E per message. A
// shift byte of V3ShiftFallback marks a group whose T values cannot be
// shifted without overflow (never real traffic; arbitrary messages
// from tests or forged frames): its fields use the v2 layout.
const FrameV3Magic = 0xC3

// V3ShiftFallback is the publish-group shift sentinel selecting the v2
// field layout (see FrameV3Magic).
const V3ShiftFallback = 0xFF

// publishShift returns the slotcode shift for a v3 publish group: the
// bit width of the widest E, or V3ShiftFallback when some T<<s would
// not round-trip through an int64.
func publishShift(ms []Message) int {
	s := 0
	for _, m := range ms {
		if w := bits.Len16(m.E); w > s {
			s = w
		}
	}
	for _, m := range ms {
		if m.T > maxInt64>>s || m.T < minInt64>>s {
			return V3ShiftFallback
		}
	}
	return s
}

const (
	maxInt64 = int64(1<<63 - 1)
	minInt64 = -1 << 63
)

// AppendEncodeBatchV2 appends the compact (v2) encoding of ms to dst and
// returns the extended slice. Adjacent messages of equal kind share one
// group header.
func AppendEncodeBatchV2(dst []byte, ms []Message) []byte {
	return appendBatch(dst, ms, false)
}

// AppendEncodeBatchV3 appends the v3 encoding of ms to dst and returns
// the extended slice: the v2 format with slot-delta-coded publish
// groups (see FrameV3Magic).
func AppendEncodeBatchV3(dst []byte, ms []Message) []byte {
	return appendBatch(dst, ms, true)
}

func appendBatch(dst []byte, ms []Message, v3 bool) []byte {
	if v3 {
		dst = append(dst, FrameV3Magic)
	} else {
		dst = append(dst, FrameV2Magic)
	}
	for i := 0; i < len(ms); {
		kind := ms[i].Kind
		j := i + 1
		for j < len(ms) && ms[j].Kind == kind {
			j++
		}
		dst = append(dst, byte(kind))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		if v3 && kind == KindPublish {
			dst = appendPublishGroupV3(dst, ms[i:j])
			i = j
			continue
		}
		prevT := int64(0)
		for _, m := range ms[i:j] {
			dst = binary.AppendVarint(dst, m.T-prevT)
			prevT = m.T
			switch kind {
			case KindRequest:
				dst = binary.AppendVarint(dst, m.K)
				dst = binary.AppendUvarint(dst, uint64(m.E))
				dst = binary.AppendUvarint(dst, uint64(m.L))
			case KindResolved, KindPublish:
				dst = binary.AppendVarint(dst, m.V)
				dst = binary.AppendUvarint(dst, uint64(m.E))
			case KindColl:
				dst = binary.AppendVarint(dst, m.K)
				dst = binary.AppendVarint(dst, m.V)
			case KindCkpt:
				dst = binary.AppendUvarint(dst, uint64(m.E))
				dst = binary.AppendUvarint(dst, uint64(m.L))
				dst = binary.AppendVarint(dst, m.K)
				dst = binary.AppendVarint(dst, m.V)
			}
		}
		i = j
	}
	return dst
}

// appendPublishGroupV3 encodes one v3 publish group (after the kind and
// count): shift byte, then per message the slotcode delta and V.
func appendPublishGroupV3(dst []byte, ms []Message) []byte {
	s := publishShift(ms)
	dst = append(dst, byte(s))
	if s == V3ShiftFallback {
		prevT := int64(0)
		for _, m := range ms {
			dst = binary.AppendVarint(dst, m.T-prevT)
			prevT = m.T
			dst = binary.AppendVarint(dst, m.V)
			dst = binary.AppendUvarint(dst, uint64(m.E))
		}
		return dst
	}
	prev := int64(0)
	for _, m := range ms {
		code := m.T<<s | int64(m.E)
		dst = binary.AppendVarint(dst, code-prev)
		prev = code
		dst = binary.AppendVarint(dst, m.V)
	}
	return dst
}

// DecodeBatch decodes a v3 or compact v2 frame (told apart by the magic
// first byte), appending to dst and returning it. An empty frame holds
// no messages; any other first byte is an error.
func DecodeBatch(dst []Message, frame []byte) ([]Message, error) {
	if len(frame) > 0 && frame[0] == FrameV3Magic {
		return decodeBatchCompact(dst, frame[1:], true)
	}
	if len(frame) > 0 && frame[0] == FrameV2Magic {
		return decodeBatchCompact(dst, frame[1:], false)
	}
	if len(frame) > 0 {
		return dst, fmt.Errorf("msg: unknown frame magic %#x", frame[0])
	}
	return dst, nil
}

func decodeBatchCompact(dst []Message, b []byte, v3 bool) ([]Message, error) {
	for len(b) > 0 {
		kind := Kind(b[0])
		if kind < KindRequest || kind > KindFence {
			return dst, fmt.Errorf("msg: bad group kind %d", b[0])
		}
		b = b[1:]
		count, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, fmt.Errorf("msg: bad group count")
		}
		b = b[n:]
		// Every message costs at least one byte (the ΔT varint), so a
		// count beyond the remaining bytes is corrupt — reject before
		// growing dst.
		if count > uint64(len(b)) {
			return dst, fmt.Errorf("msg: group count %d exceeds frame", count)
		}
		if v3 && kind == KindPublish {
			var err error
			if dst, b, err = decodePublishGroupV3(dst, b, count); err != nil {
				return dst, err
			}
			continue
		}
		prevT := int64(0)
		for i := uint64(0); i < count; i++ {
			m := Message{Kind: kind}
			var ok bool
			var d int64
			if d, b, ok = takeVarint(b); !ok {
				return dst, fmt.Errorf("msg: truncated T")
			}
			m.T = prevT + d
			prevT = m.T
			switch kind {
			case KindRequest:
				if m.K, b, ok = takeVarint(b); !ok {
					return dst, fmt.Errorf("msg: truncated K")
				}
				if m.E, b, ok = takeUint16(b); !ok {
					return dst, fmt.Errorf("msg: truncated E")
				}
				if m.L, b, ok = takeUint16(b); !ok {
					return dst, fmt.Errorf("msg: truncated L")
				}
			case KindResolved, KindPublish:
				if m.V, b, ok = takeVarint(b); !ok {
					return dst, fmt.Errorf("msg: truncated V")
				}
				if m.E, b, ok = takeUint16(b); !ok {
					return dst, fmt.Errorf("msg: truncated E")
				}
			case KindColl:
				if m.K, b, ok = takeVarint(b); !ok {
					return dst, fmt.Errorf("msg: truncated K")
				}
				if m.V, b, ok = takeVarint(b); !ok {
					return dst, fmt.Errorf("msg: truncated V")
				}
			case KindCkpt:
				if m.E, b, ok = takeUint16(b); !ok {
					return dst, fmt.Errorf("msg: truncated E")
				}
				if m.L, b, ok = takeUint16(b); !ok {
					return dst, fmt.Errorf("msg: truncated L")
				}
				if m.K, b, ok = takeVarint(b); !ok {
					return dst, fmt.Errorf("msg: truncated K")
				}
				if m.V, b, ok = takeVarint(b); !ok {
					return dst, fmt.Errorf("msg: truncated V")
				}
			}
			dst = append(dst, m)
		}
	}
	return dst, nil
}

// decodePublishGroupV3 decodes one v3 publish group body (after the
// kind and count).
func decodePublishGroupV3(dst []Message, b []byte, count uint64) ([]Message, []byte, error) {
	if len(b) == 0 {
		return dst, b, fmt.Errorf("msg: truncated publish shift")
	}
	s := int(b[0])
	b = b[1:]
	if s == V3ShiftFallback {
		prevT := int64(0)
		for i := uint64(0); i < count; i++ {
			m := Message{Kind: KindPublish}
			var ok bool
			var d int64
			if d, b, ok = takeVarint(b); !ok {
				return dst, b, fmt.Errorf("msg: truncated T")
			}
			m.T = prevT + d
			prevT = m.T
			if m.V, b, ok = takeVarint(b); !ok {
				return dst, b, fmt.Errorf("msg: truncated V")
			}
			if m.E, b, ok = takeUint16(b); !ok {
				return dst, b, fmt.Errorf("msg: truncated E")
			}
			dst = append(dst, m)
		}
		return dst, b, nil
	}
	if s > 16 {
		return dst, b, fmt.Errorf("msg: bad publish shift %d", s)
	}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		m := Message{Kind: KindPublish}
		var ok bool
		var d int64
		if d, b, ok = takeVarint(b); !ok {
			return dst, b, fmt.Errorf("msg: truncated slotcode")
		}
		code := prev + d
		prev = code
		m.T = code >> s
		m.E = uint16(code & (1<<s - 1))
		if m.V, b, ok = takeVarint(b); !ok {
			return dst, b, fmt.Errorf("msg: truncated V")
		}
		dst = append(dst, m)
	}
	return dst, b, nil
}

func takeVarint(b []byte) (int64, []byte, bool) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

func takeUint16(b []byte) (uint16, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > 0xffff {
		return 0, b, false
	}
	return uint16(v), b[n:], true
}
