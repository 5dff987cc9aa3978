package transport

import (
	"fmt"

	"pagen/internal/msg"
)

// ShmGroup is the shared-memory variant of LocalGroup: co-located ranks
// in one process exchange decoded message batches by reference through
// the MsgSender fast path, skipping the v2/v3 codec on both ends. Byte
// frames (Send) still work, so an ShmGroup endpoint is a drop-in
// Transport; only the communicator's batch flush takes the no-serialize
// path.
//
// Ownership follows the pool's lease/release rule: the sender leases a
// message slice (LeaseMsgs), fills it, and hands it over in SendMsgs;
// from that point the slice belongs to the receiving endpoint, whose
// consumer reads the messages in place and releases it exactly once
// (ReleaseMsgs) when done with them. Mailbox depth is bounded at
// DefaultQueueLimit, same as LocalGroup.
type ShmGroup struct {
	boxes []*mailbox
}

// NewShmGroup returns a group of p connected shared-memory endpoints.
func NewShmGroup(p int) (*ShmGroup, error) {
	if p < 1 {
		return nil, fmt.Errorf("transport: group size %d, want >= 1", p)
	}
	g := &ShmGroup{boxes: make([]*mailbox, p)}
	for i := range g.boxes {
		g.boxes[i] = newMailboxLimited(DefaultQueueLimit)
	}
	return g, nil
}

// Endpoint returns rank's transport endpoint.
func (g *ShmGroup) Endpoint(rank int) Transport {
	if rank < 0 || rank >= len(g.boxes) {
		panic(fmt.Sprintf("transport: rank %d outside [0,%d)", rank, len(g.boxes)))
	}
	return &shmEndpoint{group: g, rank: rank}
}

type shmEndpoint struct {
	group *ShmGroup
	rank  int
}

func (e *shmEndpoint) Rank() int { return e.rank }
func (e *shmEndpoint) Size() int { return len(e.group.boxes) }

func (e *shmEndpoint) Send(to int, data []byte) error {
	if to < 0 || to >= len(e.group.boxes) {
		return fmt.Errorf("transport: send to rank %d outside [0,%d)", to, len(e.group.boxes))
	}
	return e.group.boxes[to].push(Frame{From: e.rank, Data: data})
}

// SendMsgs implements MsgSender: the batch crosses by reference, no
// serialization. The callee takes ownership of ms.
func (e *shmEndpoint) SendMsgs(to int, ms []msg.Message) error {
	if to < 0 || to >= len(e.group.boxes) {
		return fmt.Errorf("transport: send to rank %d outside [0,%d)", to, len(e.group.boxes))
	}
	return e.group.boxes[to].push(Frame{From: e.rank, Msgs: ms})
}

func (e *shmEndpoint) Recv() (Frame, error) {
	f, ok, err := e.group.boxes[e.rank].pop(true)
	if err != nil {
		return Frame{}, err
	}
	if !ok {
		return Frame{}, ErrClosed
	}
	return f, nil
}

func (e *shmEndpoint) TryRecv() (Frame, bool, error) {
	return e.group.boxes[e.rank].pop(false)
}

func (e *shmEndpoint) Close() error {
	e.group.boxes[e.rank].close()
	return nil
}
