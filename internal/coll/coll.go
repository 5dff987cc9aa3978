// Package coll provides the collective operations the generator's tools
// use — AllReduce and Gather — implemented over the buffered
// communicator with coordinator-based algorithms. The generator's own
// termination protocol and its checkpoints do not need them; cmd/pa-tcp
// gathers per-rank statistics at rank 0 with Gather, AllReduceMax and
// AllReduceSum after the run, before printing a cluster-wide summary.
//
// # Sequenced tag protocol
//
// Collectives run inside a Seq context. Every operation consumes one or
// two tags from a per-context monotone counter — one tag per
// communication phase, so a reduction's gather-up and broadcast-down
// phases never share a tag. Because every rank executes the same
// collectives in the same order, the counters agree across ranks without
// any negotiation; the tag carried by each message identifies exactly
// which operation (and phase) it belongs to.
//
// The tag makes collectives safe against inter-operation races: ranks
// run asynchronously, so a fast rank's contribution to operation i+1 can
// reach the coordinator while it is still collecting operation i. Such
// early arrivals are buffered by tag and consumed when their operation
// starts. (The previous design treated any unexpected tag as a protocol
// violation, which made back-to-back collectives fail with "coll: tag
// mismatch" from four ranks up — the race is essentially guaranteed once
// two peers race a Gather followed by anything else.) A tag lower than
// the current operation's can never be pending and is reported as the
// protocol violation it is, as is any non-collective message.
//
// Contract: collectives are synchronising operations. Every rank must
// create one Seq and call the same operations in the same order, and no
// point-to-point engine traffic may be in flight while collectives run
// (call them before the generation run, or after it has terminated).
package coll

import (
	"fmt"

	"pagen/internal/comm"
	"pagen/internal/msg"
)

// pendingContrib is a buffered early arrival: a contribution to a
// collective operation this rank has not started yet.
type pendingContrib struct {
	tag  int64
	from int
	val  int64
}

// Seq executes a sequence of collective operations over one
// communicator, assigning each operation phase a unique monotone tag and
// buffering contributions that arrive ahead of their operation. Create
// one per tool run with New; it is not safe for concurrent use (each
// rank's tool loop owns its Seq, like the engine owns its Comm).
type Seq struct {
	cm      *comm.Comm
	next    int64
	pending []pendingContrib
}

// New creates a collective-operation context over cm. All ranks must
// create their contexts at the same protocol point and issue the same
// operations in the same order.
func New(cm *comm.Comm) *Seq {
	return &Seq{cm: cm, next: 1}
}

// nextTag reserves the next operation-phase tag. Ranks stay in agreement
// because they execute identical operation sequences.
func (s *Seq) nextTag() int64 {
	t := s.next
	s.next++
	return t
}

// NextTag returns the tag the next operation phase would consume. A
// checkpoint records it so a restarted run can resume the tag sequence
// instead of reusing tags a peer may still associate with old phases.
func (s *Seq) NextTag() int64 { return s.next }

// SetNextTag moves the tag counter, e.g. to a value restored from a
// checkpoint. Every rank must set the same value at the same protocol
// point or subsequent collectives will disagree on their tags.
func (s *Seq) SetNextTag(tag int64) { s.next = tag }

// takePending removes and returns one buffered contribution with the
// given tag, if any.
func (s *Seq) takePending(tag int64) (pendingContrib, bool) {
	for i, p := range s.pending {
		if p.tag == tag {
			last := len(s.pending) - 1
			s.pending[i] = s.pending[last]
			s.pending = s.pending[:last]
			return p, true
		}
	}
	return pendingContrib{}, false
}

// stash buffers an early arrival for a future operation.
func (s *Seq) stash(tag int64, from int, val int64) {
	s.pending = append(s.pending, pendingContrib{tag: tag, from: from, val: val})
}

// recvColl returns the next contribution to the operation phase wantTag,
// consuming a buffered early arrival first and otherwise blocking on the
// communicator. Messages for later phases are stashed; stale tags and
// non-collective traffic are protocol violations.
func (s *Seq) recvColl(wantTag int64) (from int, payload int64, err error) {
	if p, ok := s.takePending(wantTag); ok {
		return p.from, p.val, nil
	}
	for {
		ms, err := s.cm.Wait()
		if err != nil {
			return 0, 0, err
		}
		found := false
		var got pendingContrib
		for _, m := range ms {
			if m.Kind != msg.KindColl {
				return 0, 0, fmt.Errorf("coll: unexpected %v message during collective", m.Kind)
			}
			switch {
			case m.K == wantTag && !found:
				found = true
				got = pendingContrib{tag: m.K, from: int(m.T), val: m.V}
			case m.K >= wantTag:
				s.stash(m.K, int(m.T), m.V)
			default:
				return 0, 0, fmt.Errorf("coll: stale collective tag %d (current operation %d) from rank %d",
					m.K, wantTag, m.T)
			}
		}
		if found {
			return got.from, got.val, nil
		}
	}
}

// recvCollN receives exactly n contributions to phase wantTag, returning
// payloads indexed by sender rank.
func (s *Seq) recvCollN(wantTag int64, n int) (map[int]int64, error) {
	out := make(map[int]int64, n)
	for len(out) < n {
		from, v, err := s.recvColl(wantTag)
		if err != nil {
			return nil, err
		}
		if _, dup := out[from]; dup {
			return nil, fmt.Errorf("coll: duplicate contribution from rank %d", from)
		}
		out[from] = v
	}
	return out, nil
}

// send transmits one collective contribution immediately.
func (s *Seq) send(to int, tag, value int64) error {
	return s.cm.SendNow(to, msg.Coll(s.cm.Rank(), tag, value))
}

// reduce gathers every rank's value at rank 0, folds it with f, and
// broadcasts the result — the shared body of the AllReduce operations.
func (s *Seq) reduce(value int64, f func(acc, v int64) int64) (int64, error) {
	p, rank := s.cm.Size(), s.cm.Rank()
	up, down := s.nextTag(), s.nextTag()
	if p == 1 {
		return value, nil
	}
	if rank == 0 {
		contribs, err := s.recvCollN(up, p-1)
		if err != nil {
			return 0, err
		}
		acc := value
		for _, v := range contribs {
			acc = f(acc, v)
		}
		for r := 1; r < p; r++ {
			if err := s.send(r, down, acc); err != nil {
				return 0, err
			}
		}
		return acc, nil
	}
	if err := s.send(0, up, value); err != nil {
		return 0, err
	}
	_, v, err := s.recvColl(down)
	return v, err
}

// AllReduceSum returns the sum of every rank's value on every rank.
func (s *Seq) AllReduceSum(value int64) (int64, error) {
	return s.reduce(value, func(acc, v int64) int64 { return acc + v })
}

// AllReduceMax returns the maximum of every rank's value on every rank.
func (s *Seq) AllReduceMax(value int64) (int64, error) {
	return s.reduce(value, func(acc, v int64) int64 {
		if v > acc {
			return v
		}
		return acc
	})
}

// AllReduceMin returns the minimum of every rank's value on every rank.
func (s *Seq) AllReduceMin(value int64) (int64, error) {
	return s.reduce(value, func(acc, v int64) int64 {
		if v < acc {
			return v
		}
		return acc
	})
}

// Gather collects every rank's value at rank 0, which receives the full
// slice indexed by rank; other ranks receive nil.
func (s *Seq) Gather(value int64) ([]int64, error) {
	p, rank := s.cm.Size(), s.cm.Rank()
	tag := s.nextTag()
	if rank == 0 {
		out := make([]int64, p)
		out[0] = value
		if p > 1 {
			contribs, err := s.recvCollN(tag, p-1)
			if err != nil {
				return nil, err
			}
			for r, v := range contribs {
				out[r] = v
			}
		}
		return out, nil
	}
	return nil, s.send(0, tag, value)
}
