package core

import (
	"fmt"
	"sync"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
	"pagen/internal/msg"
	"pagen/internal/obs"
)

// CheckpointOptions enables cooperative checkpointing: each rank
// periodically takes a marker snapshot (a Chandy–Lamport consistent cut —
// see DESIGN.md §9) without stopping the others, captures its mutable
// state into pooled buffers, records the requests and answers still in
// flight to it across the cut, and publishes the snapshot file from a
// per-rank background writer. A checkpointed run streams
// (Options.StreamDir), and the shard is the checkpoint's F: a snapshot
// names the shard's durable prefix and a resume replays it, so no table
// is copied or written. A later run with Resume set restarts from the
// newest epoch every rank holds a restorable snapshot of, producing
// output byte-identical to an uninterrupted run.
type CheckpointOptions struct {
	// Dir is the snapshot directory (one file per rank per epoch).
	Dir string
	// Every triggers an epoch each time rank 0's progress metric
	// (initiated nodes plus received data messages) grows by this much.
	// Zero disables triggering — useful with Resume to restart a run
	// without further checkpoints.
	Every int64
	// Keep is the number of snapshots retained per rank (older ones are
	// pruned). Values below 2 are raised to 2 so one torn latest epoch
	// still leaves a common fallback. 0 selects the default.
	Keep int
	// Resume makes the run restart from the newest epoch all ranks can
	// restore; with no usable snapshots the run starts fresh.
	Resume bool
}

// DefaultCheckpointKeep is the default number of retained snapshots.
const DefaultCheckpointKeep = 2

// ckptRun is the per-rank state of the checkpoint protocol. It belongs
// to the rank goroutine; only the writer has a goroutine of its own.
type ckptRun struct {
	dir   string
	every int64
	keep  int

	initiated   int64 // nodes whose generation has started
	nextTrigger int64 // metric value that opens the next epoch (rank 0)

	// epoch is the newest epoch this rank has cut (or restored from);
	// the next one is epoch+1 on every rank.
	epoch int64

	// writer is the rank's background publisher: encode, CRC, write,
	// fsync, rename and prune all run there, off the rank goroutine.
	writer *ckptWriter

	// owed counts the peers whose marker for epoch has yet to arrive,
	// and marked[r] is set once peer r's has (the rank's own entry is
	// always set). While owed > 0 the epoch is open on this rank:
	// pending, the capture taken at the cut (nil if the capture
	// failed), records what each unmarked peer's channel delivers.
	owed    int
	marked  []bool
	pending *ckpt.Snapshot
	// written is the newest epoch whose capture went to the writer, so
	// an abandon uncounts only an epoch this rank counted.
	written int64

	// tally (rank 0) counts the votes its open epoch still waits for:
	// p from rank 0's cut until the last lands, when bad decides
	// between commit and abandon. No epoch opens while it is non-zero,
	// and no stop goes out, so an abandon precedes stop on every
	// channel and every marker is consumed before it.
	tally int
	bad   bool

	// held parks non-collective frames that arrive while the resume
	// negotiation's collectives own the receive path; restore puts the
	// messages its snapshot recorded in flight at their head, and all of
	// them are delivered once the restored state exists.
	held []heldFrame

	// metrics (cut side; the write side lives in the writer).
	epochs, failed, pauseNanos int64
	pauseHist                  obs.Histogram
}

// heldFrame is one frame parked for ckptFlushHeld, with its sender.
type heldFrame struct {
	from int
	ms   []msg.Message
}

// ckptWriteReq is one background-writer work item: publish a capture
// (c != nil) or remove an abandoned epoch's file (c == nil). Removes
// ride the same FIFO channel as writes so an abandon enqueued after its
// epoch's capture always deletes the file the write produced. A capture
// is a pooled snapshot: two rotate between the open epoch (filled at
// the cut, appended to while it records) and the writer (drain), and each refill reuses its record arrays, so a steady
// cadence allocates nothing epoch over epoch once they have grown to
// the rank's suspension and waiter records.
type ckptWriteReq struct {
	c     *ckpt.Snapshot
	epoch int64
}

// ckptWriter is the per-rank background snapshot publisher. An epoch's
// close hands it a complete capture; the shard fsync
// that makes the sink mark durable, encode, CRC-32C, tmp+fsync+rename
// and pruning all run here. The first error latches and fails the
// *next* epoch's commit vote rather than the run; takeErr consumes the
// latch so one failure abandons exactly one epoch.
type ckptWriter struct {
	dir    string
	rank   int
	keep   int
	stream *esink.Writer

	ch   chan ckptWriteReq
	free chan *ckpt.Snapshot
	done chan struct{}
	once sync.Once

	mu         sync.Mutex
	err        error
	bytes      int64
	writeNanos int64
	writeHist  obs.Histogram
	enc        ckpt.Encoder
	vet        ckpt.PruneBuf
}

func newCkptWriter(dir string, rank, keep int, stream *esink.Writer) *ckptWriter {
	bw := &ckptWriter{
		dir:    dir,
		rank:   rank,
		keep:   keep,
		stream: stream,
		// Two captures bound the overlap: one filling at a cut while
		// one drains in the writer. A third epoch arriving before the
		// writer frees a buffer waits at the cut — back-pressure that
		// shows up honestly in the pause histogram. The channel is
		// deeper than the capture pool so abandon-removes never block
		// the coordinator.
		ch:   make(chan ckptWriteReq, 8),
		free: make(chan *ckpt.Snapshot, 2),
		done: make(chan struct{}),
	}
	bw.free <- &ckpt.Snapshot{}
	bw.free <- &ckpt.Snapshot{}
	go bw.loop()
	return bw
}

func (bw *ckptWriter) loop() {
	defer close(bw.done)
	for req := range bw.ch {
		if req.c == nil {
			// Abandoned epoch: best-effort file removal. Not latched —
			// a stale file is re-validated (and skipped or reused) by
			// resume, so failing a later epoch over it buys nothing.
			ckpt.Remove(bw.dir, bw.rank, req.epoch)
			continue
		}
		t0 := time.Now()
		size, err := bw.publish(req.c)
		dt := time.Since(t0).Nanoseconds()
		bw.mu.Lock()
		bw.writeNanos += dt
		bw.writeHist.Observe(dt)
		if err == nil {
			bw.bytes += size
		} else if bw.err == nil {
			bw.err = err
		}
		bw.mu.Unlock()
		// Return the buffer last: a cut blocked on the free list may
		// otherwise capture into it while publish still reads it.
		bw.free <- req.c
	}
}

// publish makes one captured epoch durable: shard fsync first (the
// snapshot's sink mark must name bytes that are on disk before the
// snapshot carrying it exists), then encode into the pooled scratch,
// write+fsync+rename, then prune superseded epochs. The esink writer
// does not latch a Sync failure: returning it here, which abandons the
// epoch, is the only report.
func (bw *ckptWriter) publish(c *ckpt.Snapshot) (int64, error) {
	if err := bw.stream.Sync(); err != nil {
		return 0, err
	}
	data := bw.enc.Encode(c)
	_, size, err := ckpt.WriteEncoded(bw.dir, bw.rank, c.Epoch, data)
	if err != nil {
		return 0, err
	}
	if err := ckpt.Prune(bw.dir, bw.rank, bw.keep, &bw.vet); err != nil {
		return size, err
	}
	return size, nil
}

// takeErr consumes the latched error, if any. The cut calls it once per
// epoch, so each background failure costs exactly one abandoned epoch.
func (bw *ckptWriter) takeErr() error {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	err := bw.err
	bw.err = nil
	return err
}

// shutdown drains and stops the writer. Idempotent; blocks until every
// queued capture is published (or failed), so callers observe final
// byte counts and the newest epoch's durability before reporting stats.
func (bw *ckptWriter) shutdown() {
	bw.once.Do(func() { close(bw.ch) })
	<-bw.done
}

// ckptMetric is rank 0's monotone progress measure: initiated local
// nodes plus received data messages. The received term keeps epochs
// firing after rank 0 finishes generating while other ranks still run.
func (e *engine) ckptMetric() int64 {
	c := e.cm.Counters()
	return e.ck.initiated + c.RequestsRecv + c.ResolvedRecv
}

// ckptStep opens an epoch on rank 0 when its trigger is due, no epoch
// is open and it has not stopped: rank 0 cuts there, without asking
// any other rank to pause. Every other rank cuts at the first marker it
// receives (ckptOnMsg). The rank goroutine calls it at every poll point
// and receive-loop iteration, where no window is open and no handler is
// running.
func (e *engine) ckptStep() error {
	ck := e.ck
	if !e.ckTrig || e.stopped || ck.tally > 0 || e.ckptMetric() < ck.nextTrigger {
		return nil
	}
	ck.epoch++
	ck.tally = e.p
	return e.ckptCut()
}

// ckptOnMsg handles one received checkpoint-protocol message.
func (e *engine) ckptOnMsg(m msg.Message) error {
	ck := e.ck
	op := msg.CkptOp(m.E)
	if ck == nil {
		return fmt.Errorf("core: rank %d received checkpoint message (op %d) with checkpointing disabled", e.rank, op)
	}
	switch op {
	case msg.CkptCut:
		// The first marker of an epoch cuts here, in receive order: all
		// the sender sent before its cut has been handled, nothing it
		// sent after has. Rank 0 opened the epoch, so it never cuts at a
		// marker, and no epoch opens before the last one closed
		// everywhere.
		from := int(m.T)
		if ck.owed == 0 {
			if e.rank == 0 || m.K != ck.epoch+1 {
				return fmt.Errorf("core: rank %d received rank %d's cut marker for epoch %d after epoch %d closed", e.rank, from, m.K, ck.epoch)
			}
			ck.epoch = m.K
			if err := e.ckptCut(); err != nil {
				return err
			}
		}
		if from < 0 || from >= e.p || ck.marked[from] || m.K != ck.epoch {
			return fmt.Errorf("core: rank %d received an unexpected cut marker from rank %d for epoch %d in epoch %d", e.rank, from, m.K, ck.epoch)
		}
		ck.marked[from] = true
		if ck.owed--; ck.owed == 0 {
			return e.ckptClose()
		}
	case msg.CkptVote:
		if e.rank != 0 {
			return fmt.Errorf("core: rank %d received checkpoint vote", e.rank)
		}
		return e.ckptRecordVote(m.K, m.V == 1)
	case msg.CkptAbandon:
		if e.rank == 0 {
			return fmt.Errorf("core: rank 0 received checkpoint abandon")
		}
		e.ckptAbandon(m.K)
	default:
		return fmt.Errorf("core: unknown checkpoint op %d", op)
	}
	return nil
}

// ckptCut takes this rank's snapshot of the open epoch: write F up to
// the resolved frontier and flush the open block, a short one
// (page-cache writes), so the shard mark names a complete-block prefix
// holding exactly F below the frontier; capture the rest of the rank's
// state into a pooled buffer; then send the marker to every peer.
// SendNow flushes what is buffered for the peer first, so the marker
// divides the channel into what was sent before the cut and after it
// (DESIGN.md §9.1). The fsync that makes the mark durable runs in the
// writer, before the snapshot naming it is published. The pause is the
// capture plus the wait for a free buffer; generation resumes at once.
func (e *engine) ckptCut() error {
	ck := e.ck
	start := time.Now()
	// A latched background failure from an earlier epoch fails this
	// epoch's vote — not the run (DESIGN.md §9: resume negotiation
	// skips epochs any rank failed to persist).
	if ck.writer.takeErr() == nil {
		if err := e.streamFrontier(); err != nil {
			return err
		}
		if mark, err := e.stream.Mark(); err == nil {
			// Waiting for a free capture buffer is real back-pressure (the
			// writer still holds both) and is charged to the pause.
			ck.pending = <-ck.writer.free
			e.buildSnapshotInto(ck.pending, mark)
		}
	}
	pause := time.Since(start).Nanoseconds()
	ck.pauseNanos += pause
	ck.pauseHist.Observe(pause)
	if e.rank == 0 && ck.every > 0 {
		ck.nextTrigger = e.ckptMetric() + ck.every
	}
	clear(ck.marked)
	ck.marked[e.rank] = true
	ck.owed = e.p - 1
	for r := 0; r < e.p; r++ {
		if r == e.rank {
			continue
		}
		if err := e.cm.SendNow(r, msg.Ckpt(e.rank, msg.CkptCut, ck.epoch, 0)); err != nil {
			return err
		}
	}
	if ck.owed == 0 {
		return e.ckptClose()
	}
	return nil
}

// ckptRecord stores the requests and answers of a frame from rank from
// that precede from's marker, while this rank's epoch is open and from's
// channel is not yet marked: they were sent before from's cut and are
// received after this rank's, the channel's state at the cut. Each is
// stored as the record it becomes — a request as a waiter of the slot it
// asks for, an answer as the value held for its edge — and restore feeds
// both back as the messages they were when the slot is already final or
// the edge is its node's frontier (DESIGN.md §9.1). The frame is handled
// as usual afterwards.
func (e *engine) ckptRecord(from int, ms []msg.Message) {
	s := e.ck.pending
	if e.ck.marked[from] {
		return
	}
	for _, m := range ms {
		switch m.Kind {
		case msg.KindRequest:
			s.Waiters = append(s.Waiters, ckpt.WaiterRecord{Slot: e.part.Index(e.rank, m.K)*e.x64 + int64(m.L), T: m.T, E: m.E})
		case msg.KindResolved:
			s.Ahead = append(s.Ahead, ckpt.AheadRecord{Slot: e.part.Index(e.rank, m.T)*e.x64 + int64(m.E), V: m.V})
		case msg.KindCkpt:
			if msg.CkptOp(m.E) == msg.CkptCut {
				return
			}
		}
	}
}

// ckptClose ends the epoch on this rank once every peer's marker is in:
// the recording is complete, so the capture goes to the writer and the
// vote to rank 0. Rank 0 stops only after the tally, so every marker is
// consumed before any rank stops.
func (e *engine) ckptClose() error {
	ck := e.ck
	ok := ck.pending != nil
	if ok {
		// Optimistic local commit: the tally abandons the epoch later if
		// any rank failed. Enqueued before the vote: if the tally
		// completes inside this call and abandons the epoch, the removal
		// request must trail the write in the writer's FIFO.
		ck.epochs++
		ck.written = ck.epoch
		ck.writer.ch <- ckptWriteReq{c: ck.pending}
		ck.pending = nil
	}
	if e.rank == 0 {
		return e.ckptRecordVote(ck.epoch, ok)
	}
	v := int64(0)
	if ok {
		v = 1
	}
	return e.cm.SendNow(0, msg.Ckpt(e.rank, msg.CkptVote, ck.epoch, v))
}

// ckptRecordVote (rank 0) tallies one rank's commit vote for the open
// epoch. When the last vote lands the epoch either stands on every rank
// or is abandoned everywhere: a single abandon broadcast, ordered before
// any later stop and marker on each channel, keeps the ranks' epoch
// accounting aligned.
func (e *engine) ckptRecordVote(epoch int64, ok bool) error {
	ck := e.ck
	if ck.tally == 0 || epoch != ck.epoch {
		return fmt.Errorf("core: checkpoint vote for epoch %d, tallying epoch %d (%d votes due)", epoch, ck.epoch, ck.tally)
	}
	ck.bad = ck.bad || !ok
	if ck.tally--; ck.tally > 0 {
		return nil
	}
	if ck.bad {
		ck.bad = false
		for r := 1; r < e.p; r++ {
			if err := e.cm.SendNow(r, msg.Ckpt(e.rank, msg.CkptAbandon, epoch, 0)); err != nil {
				return err
			}
		}
		e.ckptAbandon(epoch)
	}
	// A completed tally may have been the last thing deferring the stop
	// broadcast.
	return e.maybeBroadcastStop()
}

// ckptAbandon applies an epoch abandonment on this rank: uncount the
// epoch (unless this rank never captured it) and queue its file for
// removal behind the write of it. The abandon arrives after this rank's
// vote and before it can close another epoch, so written names the
// epoch exactly when its capture was counted.
func (e *engine) ckptAbandon(epoch int64) {
	ck := e.ck
	ck.failed++
	if ck.written != epoch {
		return
	}
	ck.epochs--
	ck.writer.ch <- ckptWriteReq{epoch: epoch}
}

// ckptFilter splits a received frame while the resume negotiation's
// collectives own the receive path: collective messages pass through,
// everything else is held (copied — the input is valid only until the
// next receive) for delivery once the restored state exists.
func (e *engine) ckptFilter(ms []msg.Message) []msg.Message {
	var rest []msg.Message
	colls := ms[:0]
	for _, m := range ms {
		if m.Kind == msg.KindColl {
			colls = append(colls, m)
		} else {
			rest = append(rest, m)
		}
	}
	if rest != nil {
		e.ck.held = append(e.ck.held, heldFrame{from: e.cm.From(), ms: rest})
	}
	return colls
}

// ckptFlushHeld delivers the frames parked during the resume
// negotiation, and the messages restore fed back, through the normal
// receive path. A held marker may open an epoch on the way; the frames
// behind it are then recorded like any other.
func (e *engine) ckptFlushHeld() error {
	ck := e.ck
	held := ck.held
	ck.held = nil
	for _, f := range held {
		if err := e.receive(f.from, f.ms); err != nil {
			return err
		}
		if e.err != nil {
			return e.err
		}
	}
	return e.cm.FlushAll()
}
