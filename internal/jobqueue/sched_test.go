package jobqueue

import (
	"testing"
	"time"
)

// TestFIFOBlockedHeadHoldsQueue: with one slot held, a 2-slot job
// blocks at the head of the queue and a later 1-slot job that would fit
// stays queued behind it — admission is strict FIFO, no backfill — until
// the 2-slot job has been admitted. This is the queue's wait bound
// (DESIGN.md §14). (No explicit release-channel cleanup in these tests:
// q.Close via t.Cleanup cancels every attempt's ctx, which unblocks the
// runner.)
func TestFIFOBlockedHeadHoldsQueue(t *testing.T) {
	r := newBlockingRunner()
	q := newTestQueue(t, r, func(c *Config) { c.Slots = 2 })

	holder, _ := q.Submit(smallSpec()) // 1 slot
	r.waitStart(t, holder.ID)

	bigSpec := smallSpec()
	bigSpec.Ranks = 2
	big, _ := q.Submit(bigSpec) // needs both slots: blocked
	small, _ := q.Submit(smallSpec())

	// Run an admission pass that has certainly seen both submissions.
	q.mu.Lock()
	q.scheduleLocked(time.Now())
	q.mu.Unlock()
	for _, id := range []string{big.ID, small.ID} {
		if j, _ := q.Get(id); j.State != StateQueued {
			t.Fatalf("job %s state = %s, want queued behind the blocked head", id, j.State)
		}
	}

	// Releasing the holder admits the big job first; the small one runs
	// only after the big one has given its slots back (the closed
	// channel releases every later attempt immediately).
	close(r.release)
	r.waitStart(t, big.ID)
	r.waitStart(t, small.ID)
	waitState(t, q, big.ID, StateDone)
	waitState(t, q, small.ID, StateDone)
}

// TestPreemptYieldsSlots: preempting a running job frees its slot for
// the next waiter and re-enqueues the preempted job at the back.
func TestPreemptYieldsSlots(t *testing.T) {
	r := &chunkRunner{chunks: 150, started: make(chan struct{}, 8)}
	q := newTestQueue(t, r, func(c *Config) { c.Slots = 1 })

	first, _ := q.Submit(smallSpec())
	<-r.started
	second, _ := q.Submit(smallSpec())
	if _, err := q.Preempt(first.ID); err != nil {
		t.Fatalf("Preempt: %v", err)
	}
	// With one slot, the freed slot must go to the second job — the
	// preempted first job re-enters at the back. The next start signal
	// is therefore the second job's; both finish eventually.
	waitState(t, q, second.ID, StateDone)
	got := waitState(t, q, first.ID, StateDone)
	if got.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", got.Preemptions)
	}
	if got.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (preempt + resume)", got.Attempts)
	}
}
