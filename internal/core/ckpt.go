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

// CheckpointOptions enables cooperative checkpointing: the engine
// periodically pauses generation at a globally quiescent point (a
// consistent cut — see DESIGN.md §9), captures its mutable state into
// pooled buffers, resumes immediately, and publishes the snapshot file
// from a per-rank background writer. A checkpointed run streams
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

// ckptMaxRounds bounds the quiescence-probe rounds per epoch. The
// protocol converges once in-flight traffic drains, so hitting the
// bound means a protocol bug, not a slow network; erroring out beats
// looping forever (and keeps the round number inside its uint16 field).
const ckptMaxRounds = 10000

// ckptRun is the per-rank state of the checkpoint protocol. It belongs
// to the rank goroutine; only the writer has a goroutine of its own.
type ckptRun struct {
	dir   string
	every int64
	keep  int

	// paused: an epoch is active — generation is paused, the rank keeps
	// serving the resolution cascade until globally quiescent.
	paused      bool
	initiated   int64 // nodes whose generation has started
	nextTrigger int64 // metric value that opens the next epoch

	epochNext int64 // next epoch number to open (rank 0)
	epoch     int64 // epoch currently active (all ranks)

	// writer is the rank's background publisher: encode, CRC, write,
	// fsync, rename and prune all run there, off the pause path.
	writer *ckptWriter

	// votes tallies the asynchronous per-epoch commit votes (rank 0
	// only). An entry exists from the first vote until all p arrive;
	// rank 0 defers the stop broadcast while any tally is open so an
	// abandon always precedes stop on every channel.
	votes map[int64]*ckptVoteState
	// voted0 remembers epochs this rank itself voted 0 on (capture
	// skipped), so the arriving abandon does not uncount an epoch that
	// was never counted.
	voted0 map[int64]bool

	// Quiescence-detection state. Rank 0 collects per-rank (sent, recv)
	// data-message counters round by round; two consecutive identical,
	// globally balanced rounds prove no data message is in flight.
	round         int              // current counter round (rank 0)
	pendingRound  int              // newest round this rank must report for
	reportedRound int              // newest round this rank has reported
	cutSent       bool             // rank 0: cut already broadcast
	cur, prev     map[int][2]int64 // per-rank (sent, recv) this/last round

	// markersOwed counts cut markers still due to this rank: each cut
	// adds one per sender (rank 0, itself included, and every relaying
	// peer), each arrival takes one off, so it dips below zero while the
	// copy that triggers a cut is counted before the cut. Relays travel
	// on peer channels, not ahead of rank 0's stop, so finished() waits
	// for zero: a marker left unread would reach whatever runs over the
	// transport next (cmd/pa-tcp's collectives reject it).
	markersOwed int

	// doneRecv counts Done reports received over the wire (rank 0), so
	// the balance counters cover the termination protocol's traffic too.
	doneRecv int64
	// held parks non-collective messages that arrive while the resume
	// negotiation's collectives own the receive path; they are
	// delivered once the restored state exists.
	held []msg.Message

	pauseStart time.Time

	// metrics (pause side; the write side lives in the writer).
	epochs, failed, pauseNanos int64
	pauseHist                  obs.Histogram
}

// ckptVoteState is one epoch's open vote tally (rank 0).
type ckptVoteState struct {
	n   int
	bad bool
}

// ckptWriteReq is one background-writer work item: publish a capture
// (c != nil) or remove an abandoned epoch's file (c == nil). Removes
// ride the same FIFO channel as writes so an abandon enqueued after its
// epoch's capture always deletes the file the write produced. A capture
// is a pooled snapshot: two rotate between the cut (fill) and the
// writer (drain), and each refill reuses its record arrays, so a steady
// cadence allocates nothing epoch over epoch once they have grown to
// the rank's suspension and waiter records.
type ckptWriteReq struct {
	c     *ckpt.Snapshot
	epoch int64
}

// ckptWriter is the per-rank background snapshot publisher. The cut
// hands it a filled capture and resumes generation; the shard fsync
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
	if err := ckpt.Prune(bw.dir, bw.rank, bw.keep); err != nil {
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

// ckptBegin (rank 0) opens a new epoch: pause generation everywhere,
// then detect global quiescence via counter rounds.
func (e *engine) ckptBegin() error {
	ck := e.ck
	ck.epoch = ck.epochNext
	ck.epochNext++
	if ck.every > 0 {
		ck.nextTrigger = e.ckptMetric() + ck.every
	}
	ck.round = 1
	ck.pendingRound = 1
	ck.reportedRound = 0
	ck.cutSent = false
	ck.cur = make(map[int][2]int64, e.p)
	ck.prev = nil
	ck.pauseStart = time.Now()
	ck.paused = true
	for r := 1; r < e.p; r++ {
		if err := e.cm.SendNow(r, msg.Ckpt(e.rank, msg.CkptBegin, 1, ck.epoch, 0)); err != nil {
			return err
		}
	}
	return nil
}

// ckptOnMsg handles one received checkpoint-protocol message.
func (e *engine) ckptOnMsg(m msg.Message) error {
	ck := e.ck
	op := msg.CkptOp(m.E)
	if ck == nil {
		return fmt.Errorf("core: rank %d received checkpoint message (op %d) with checkpointing disabled", e.rank, op)
	}
	switch op {
	case msg.CkptBegin:
		if e.rank == 0 {
			return fmt.Errorf("core: rank 0 received checkpoint begin")
		}
		if ck.paused {
			// The cut executes at its stream marker (see CkptCut), so a
			// begin can only find the epoch still open if the protocol
			// itself broke.
			return fmt.Errorf("core: checkpoint begin for epoch %d while epoch %d active", m.K, ck.epoch)
		}
		ck.epoch = m.K
		ck.pendingRound = int(m.L)
		ck.reportedRound = 0
		ck.pauseStart = time.Now()
		ck.paused = true
	case msg.CkptProbe:
		ck.pendingRound = int(m.L)
	case msg.CkptReport:
		if e.rank != 0 {
			return fmt.Errorf("core: rank %d received checkpoint report", e.rank)
		}
		if int(m.L) != ck.round {
			return fmt.Errorf("core: checkpoint report for round %d in round %d", m.L, ck.round)
		}
		ck.cur[int(m.T)] = [2]int64{m.K, m.V}
	case msg.CkptCut:
		// Execute the cut at its marker, in stream order. With the
		// asynchronous commit, rank 0 resumes generating right after
		// its own capture, so data sent post-cut can share a frame with
		// this marker; deferring the cut past the batch would handle
		// that data first and leak post-cut effects into the epoch.
		// Everything before the marker is fully drained — that is what
		// the quiescence rounds proved — so this rank is quiescent
		// here, exactly as the cut requires, and data later in the
		// frame is handled after the capture.
		//
		// Markers arrive from rank 0 and, relayed, from every peer that
		// cut first (see ckptCut): whichever comes first executes the
		// cut, and the later copies find the rank no longer paused in
		// that epoch.
		ck.markersOwed--
		if !ck.paused || m.K != ck.epoch {
			return nil
		}
		return e.ckptCut()
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

// ckptRecordVote (rank 0) tallies one rank's asynchronous commit vote
// for an epoch. When the last vote lands the epoch either stands on
// every rank or is abandoned everywhere: a single abandon broadcast,
// ordered before any later stop on each channel, keeps the ranks'
// epoch accounting aligned without a blocking collective in any cut.
func (e *engine) ckptRecordVote(epoch int64, ok bool) error {
	ck := e.ck
	if ck.votes == nil {
		ck.votes = make(map[int64]*ckptVoteState)
	}
	st := ck.votes[epoch]
	if st == nil {
		st = &ckptVoteState{}
		ck.votes[epoch] = st
	}
	st.n++
	if !ok {
		st.bad = true
	}
	if st.n < e.p {
		return nil
	}
	delete(ck.votes, epoch)
	if st.bad {
		for r := 1; r < e.p; r++ {
			if err := e.cm.SendNow(r, msg.Ckpt(e.rank, msg.CkptAbandon, 0, epoch, 0)); err != nil {
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
// removal behind any in-flight write of it.
func (e *engine) ckptAbandon(epoch int64) {
	ck := e.ck
	ck.failed++
	if ck.voted0[epoch] {
		delete(ck.voted0, epoch)
		return
	}
	ck.epochs--
	ck.writer.ch <- ckptWriteReq{epoch: epoch}
}

// ckptBalance returns this rank's cumulative data-message (sent, recv)
// counters, including the termination protocol's Done reports — any
// message type that can be in flight between ranks mid-run. (Stop is
// excluded: it is deferred while an epoch is active, so it is never in
// flight during one. Checkpoint-protocol messages — votes and abandons
// included — are excluded too: they are KindCkpt control traffic the
// cut does not wait out.)
func (e *engine) ckptBalance() (sent, recv int64) {
	c := e.cm.Counters()
	sent = c.RequestsSent + c.ResolvedSent
	recv = c.RequestsRecv + c.ResolvedRecv + e.ck.doneRecv
	if e.doneFlag && e.rank != 0 {
		// Rank 0 short-circuits its own report; only other ranks'
		// reports travel.
		sent++
	}
	return sent, recv
}

// ckptReport sends this rank's counter report for the pending round.
// Rank 0 reports to itself over the wire rather than recording directly:
// every round advance then costs a real receive, which keeps the
// coordinator returning to the transport between rounds so in-flight
// traffic (the very thing the rounds are waiting out) gets delivered
// instead of the rounds spinning to the bound against a stale balance.
func (e *engine) ckptReport() error {
	ck := e.ck
	ck.reportedRound = ck.pendingRound
	sent, recv := e.ckptBalance()
	return e.cm.SendNow(0, msg.Ckpt(e.rank, msg.CkptReport, ck.reportedRound, sent, recv))
}

// balancedStable reports whether the current round matches the previous
// one rank for rank and the global sent/recv totals agree — the
// two-consecutive-identical-balanced-rounds criterion for global
// quiescence.
func (ck *ckptRun) balancedStable(p int) bool {
	if ck.prev == nil {
		return false
	}
	var sent, recv int64
	for r := 0; r < p; r++ {
		cur, ok := ck.cur[r]
		if !ok {
			return false
		}
		if prev, ok := ck.prev[r]; !ok || prev != cur {
			return false
		}
		sent += cur[0]
		recv += cur[1]
	}
	return sent == recv
}

// ckptEvaluate (rank 0) advances the quiescence detection once all
// ranks have reported the current round: either declare the cut or
// start another round. Returns whether it made progress.
func (e *engine) ckptEvaluate() (bool, error) {
	ck := e.ck
	if ck.cutSent || len(ck.cur) < e.p {
		return false, nil
	}
	if ck.round >= 2 && ck.balancedStable(e.p) {
		// Global quiescence. The cut goes to every rank including rank
		// 0 itself (a transport self-send) so all ranks process it
		// uniformly on their receive path.
		for r := 0; r < e.p; r++ {
			if err := e.cm.SendNow(r, msg.Ckpt(e.rank, msg.CkptCut, ck.round, ck.epoch, 0)); err != nil {
				return false, err
			}
		}
		ck.cutSent = true
		return true, nil
	}
	if ck.round >= ckptMaxRounds {
		return false, fmt.Errorf("core: checkpoint epoch %d failed to quiesce after %d rounds (cur %v, prev %v)",
			ck.epoch, ck.round, ck.cur, ck.prev)
	}
	ck.prev = ck.cur
	ck.cur = make(map[int][2]int64, e.p)
	ck.round++
	// The probe goes to rank 0 itself as well (see ckptReport): its next
	// report is then paced by the receive path like everyone else's.
	for r := 0; r < e.p; r++ {
		if err := e.cm.SendNow(r, msg.Ckpt(e.rank, msg.CkptProbe, ck.round, ck.epoch, 0)); err != nil {
			return false, err
		}
	}
	return true, nil
}

// ckptStep runs as much of the checkpoint protocol as can proceed
// without receiving: open a due epoch (rank 0), report quiescence,
// evaluate rounds. The cut itself runs from the receive path, at its
// stream marker (see CkptCut in ckptOnMsg). The rank goroutine calls it
// at every poll point and receive-loop iteration, where it is locally
// quiescent by construction: no window is open and no handler is
// running.
func (e *engine) ckptStep() error {
	ck := e.ck
	if ck == nil {
		return nil
	}
	if e.rank == 0 && ck.every > 0 && !e.stopped && !ck.paused &&
		e.ckptMetric() >= ck.nextTrigger {
		if err := e.ckptBegin(); err != nil {
			return err
		}
	}
	if !ck.paused {
		return nil
	}
	for {
		progressed := false
		if ck.reportedRound < ck.pendingRound {
			if err := e.ckptReport(); err != nil {
				return err
			}
			progressed = true
		}
		if e.rank == 0 {
			p, err := e.ckptEvaluate()
			if err != nil {
				return err
			}
			progressed = progressed || p
		}
		if !progressed {
			return nil
		}
	}
}

// ckptFilter splits a received batch while the resume negotiation's
// collectives own the receive path: collective messages pass through,
// everything else is held (copied — the input is valid only until the
// next receive) for delivery once the restored state exists.
func (e *engine) ckptFilter(ms []msg.Message) []msg.Message {
	colls := ms[:0]
	for _, m := range ms {
		if m.Kind == msg.KindColl {
			colls = append(colls, m)
		} else {
			e.ck.held = append(e.ck.held, m)
		}
	}
	return colls
}

// ckptFlushHeld delivers the messages parked during the resume
// negotiation through the normal receive path, as one batch.
func (e *engine) ckptFlushHeld() error {
	ck := e.ck
	if len(ck.held) == 0 {
		return nil
	}
	held := ck.held
	ck.held = nil
	if err := e.handleBatch(held); err != nil {
		return err
	}
	if e.err != nil {
		return e.err
	}
	return e.cm.FlushAll()
}

// ckptCut executes a declared cut: capture the rank's mutable state
// into a pooled buffer, send the asynchronous commit vote, hand the
// capture to the background writer, and resume generation. Every rank
// is globally quiescent here, so the captures form a consistent cut.
// The pause ends when capture does — encode, CRC, fsync, rename and
// prune all happen in the writer, so ckpt_pause_nanos excludes write
// time by construction.
func (e *engine) ckptCut() error {
	ck := e.ck
	// Nothing may sit in a send buffer at the cut, and a snapshot has no
	// place to keep it: Send counts a data message when it buffers it, so
	// the two balanced rounds that declared the cut saw every buffered
	// message received, and the marker relay keeps the rank from handling
	// anything between quiescence and here. A non-empty buffer is a
	// protocol bug, like ckptMaxRounds. Checked before the relay below,
	// whose SendNow would flush it.
	for to := 0; to < e.p; to++ {
		if n := e.cm.Buffered(to); n != 0 {
			return fmt.Errorf("core: rank %d: checkpoint epoch %d cut with %d messages buffered for rank %d", e.rank, ck.epoch, n, to)
		}
	}
	ok := true
	// A latched background failure from an earlier epoch fails this
	// epoch's vote — not the run (DESIGN.md §9: resume negotiation
	// skips epochs any rank failed to persist).
	if werr := ck.writer.takeErr(); werr != nil {
		ok = false
	}
	// Fix the shard mark at the cut: write F up to the resolved frontier
	// and flush the open block, a short one (page-cache writes), so the
	// mark names a complete-block prefix holding exactly F below the
	// frontier; the snapshot carries the window above it. The fsync that
	// makes the mark durable runs in the writer, before the snapshot
	// naming it is published.
	var mark esink.Mark
	if ok {
		if err := e.streamFrontier(); err != nil {
			return err
		}
		var err error
		if mark, err = e.stream.Mark(); err != nil {
			ok = false
		}
	}
	// Relay the marker before this rank sends any post-cut data. Rank 0's
	// markers travel on its own channels only, so without the relay a
	// peer still waiting for one could receive this rank's post-cut
	// traffic first and fold its effects into its capture: a node
	// already past an answer that this rank's snapshot has yet to give,
	// with a request nobody's snapshot holds — a resume from that epoch
	// waits forever. Per-channel FIFO puts the relayed marker ahead of
	// that traffic (Chandy–Lamport). Rank 0's declaration already is its
	// marker on every channel. Every peer sends this rank one copy of
	// this epoch's marker, and rank 0 also sends itself one.
	ck.markersOwed += e.p - 1
	if e.rank == 0 {
		ck.markersOwed++
	} else {
		for r := 0; r < e.p; r++ {
			if r == e.rank {
				continue
			}
			if err := e.cm.SendNow(r, msg.Ckpt(e.rank, msg.CkptCut, 0, ck.epoch, 0)); err != nil {
				return err
			}
		}
	}
	if ok {
		// Waiting for a free capture buffer is real back-pressure (the
		// writer still holds both) and is charged to the pause.
		pending := <-ck.writer.free
		e.buildSnapshotInto(pending, mark)
		// Optimistic local commit: the vote tally abandons the epoch
		// later if any rank failed.
		ck.epochs++
		// Enqueued before the vote: if the tally completes inside this
		// call and abandons the epoch, the removal request must trail
		// the write in the writer's FIFO.
		ck.writer.ch <- ckptWriteReq{c: pending}
	} else {
		ck.voted0[ck.epoch] = true
	}
	if e.rank == 0 {
		if err := e.ckptRecordVote(ck.epoch, ok); err != nil {
			return err
		}
	} else {
		v := int64(0)
		if ok {
			v = 1
		}
		if err := e.cm.SendNow(0, msg.Ckpt(e.rank, msg.CkptVote, 0, ck.epoch, v)); err != nil {
			return err
		}
	}

	// Resume: unpause and retry the stop broadcast the pause may have
	// deferred. The snapshot publish proceeds in the background.
	ck.paused = false
	pauseNs := time.Since(ck.pauseStart).Nanoseconds()
	ck.pauseNanos += pauseNs
	ck.pauseHist.Observe(pauseNs)
	if e.rank == 0 && ck.every > 0 {
		ck.nextTrigger = e.ckptMetric() + ck.every
	}
	if err := e.cm.FlushAll(); err != nil {
		return err
	}
	if e.rank == 0 {
		return e.maybeBroadcastStop()
	}
	return nil
}

// ckptServe drives the rank through an active epoch: alternate protocol
// steps with blocking receives until the cut completes and generation
// may resume.
func (e *engine) ckptServe() error {
	for e.ck.paused {
		if err := e.ckptStep(); err != nil {
			return err
		}
		if !e.ck.paused {
			return nil
		}
		if err := e.drain(true); err != nil {
			return err
		}
	}
	return nil
}
