package core

import (
	"sync"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
	"pagen/internal/obs"
)

// CheckpointOptions enables rank-local checkpointing (DESIGN.md §9):
// each rank, at its own trigger, writes its shard up to its frontier —
// the first node it has not finished, a node boundary — flushes the open
// block and hands a snapshot naming that prefix to a per-rank background
// writer, which fsyncs the shard before it publishes the snapshot. No
// message is sent and no other rank is involved. A checkpointed run
// streams (Options.StreamDir), and the shard is the checkpoint's F: every
// F slot is a pure function of (n, x, p, seed), so a rank's durable
// prefix stays valid whatever its peers have done. A later run with
// Resume set restarts every rank from its own newest restorable snapshot
// — ranks may come back from different epochs, or with none — and
// regenerates everything above it, producing output byte-identical to an
// uninterrupted run.
type CheckpointOptions struct {
	// Dir is the snapshot directory (one file per rank per epoch).
	Dir string
	// Every triggers an epoch each time the rank's own progress metric
	// (its initiated nodes plus the data messages it received) grows by
	// this much. Zero disables triggering — useful with Resume to restart
	// a run without further checkpoints.
	Every int64
	// Keep is the number of snapshots retained per rank (older ones are
	// pruned). Values below 2 are raised to 2 so one torn latest epoch
	// still leaves a fallback. 0 selects the default.
	Keep int
	// Resume makes each rank restart from its newest snapshot that reads
	// back; a rank with none starts fresh.
	Resume bool
}

// DefaultCheckpointKeep is the default number of retained snapshots.
const DefaultCheckpointKeep = 2

// ckptRun is the per-rank checkpoint state. It belongs to the rank
// goroutine; only the writer has a goroutine of its own.
type ckptRun struct {
	every int64

	initiated   int64 // nodes whose generation this process started
	nextTrigger int64 // metric value that cuts the next epoch

	// epoch is the newest epoch this rank has cut (or resumed from).
	epoch int64

	// writer is the rank's background publisher: shard fsync, encode,
	// CRC, write, fsync, rename and prune all run there, off the rank
	// goroutine.
	writer *ckptWriter

	// pause metrics (the write side lives in the writer).
	pauseNanos int64
	pauseHist  obs.Histogram
}

// ckptWriter is the per-rank background snapshot publisher. A cut hands
// it a snapshot; the shard fsync that makes the snapshot's mark durable,
// the encode, the CRC-32C, tmp+fsync+rename and pruning all run here. A
// failed publish fails its epoch, not the run: no file names the mark,
// and a resume falls back to an older epoch.
type ckptWriter struct {
	dir    string
	rank   int
	keep   int
	stream *esink.Writer

	ch   chan ckpt.Snapshot
	done chan struct{}
	once sync.Once

	mu                sync.Mutex
	epochs, failed    int64
	bytes, writeNanos int64
	writeHist         obs.Histogram
}

func newCkptWriter(dir string, rank, keep int, stream *esink.Writer) *ckptWriter {
	bw := &ckptWriter{
		dir:    dir,
		rank:   rank,
		keep:   keep,
		stream: stream,
		// Two snapshots may wait while one publishes; a cut that finds
		// the queue full waits for the writer — back-pressure that shows
		// up honestly in the pause histogram.
		ch:   make(chan ckpt.Snapshot, 2),
		done: make(chan struct{}),
	}
	go bw.loop()
	return bw
}

func (bw *ckptWriter) loop() {
	defer close(bw.done)
	for s := range bw.ch {
		t0 := time.Now()
		size, err := bw.publish(&s)
		dt := time.Since(t0).Nanoseconds()
		bw.mu.Lock()
		bw.writeNanos += dt
		bw.writeHist.Observe(dt)
		if err == nil {
			bw.epochs++
			bw.bytes += size
		} else {
			bw.failed++
		}
		bw.mu.Unlock()
	}
}

// publish makes one epoch durable: shard fsync first (the snapshot's sink
// mark must name bytes that are on disk before the snapshot carrying it
// exists), then encode, write+fsync+rename, then prune superseded
// epochs. The esink writer does not latch a Sync failure: returning it
// here, which fails the epoch, is the only report.
func (bw *ckptWriter) publish(s *ckpt.Snapshot) (int64, error) {
	if err := bw.stream.Sync(); err != nil {
		return 0, err
	}
	_, size, err := ckpt.WriteEncoded(bw.dir, bw.rank, s.Epoch, ckpt.Encode(s))
	if err != nil {
		return 0, err
	}
	return size, ckpt.Prune(bw.dir, bw.rank, bw.keep)
}

// shutdown drains and stops the writer. Idempotent; blocks until every
// queued snapshot is published (or failed), so callers observe final
// counts and the newest epoch's durability before reporting stats.
func (bw *ckptWriter) shutdown() {
	bw.once.Do(func() { close(bw.ch) })
	<-bw.done
}

// ckptMetric is the rank's monotone progress measure: its initiated
// nodes plus the data messages it received. The received term keeps
// epochs coming while a rank that has finished generating still serves
// its peers.
func (e *engine) ckptMetric() int64 {
	c := e.cm.Counters()
	return e.ck.initiated + c.RequestsRecv + c.ResolvedRecv
}

// ckptStep cuts an epoch when the rank's trigger is due and it has not
// stopped. The rank goroutine calls it at every poll point and
// receive-loop iteration, where no window is open and no handler is
// running.
func (e *engine) ckptStep() error {
	if !e.ckTrig || e.stopped || e.ckptMetric() < e.ck.nextTrigger {
		return nil
	}
	return e.ckptCut()
}

// ckptCut takes the rank's next epoch: write every finished node below
// the frontier to the shard and flush the open block, a short one
// (page-cache writes), so the mark names a complete-block prefix holding
// exactly F below the frontier; then queue the snapshot naming it. The
// frontier is written before the mark is taken, so the epoch keeps every
// node finished by the cut. The fsync that makes the mark durable runs
// in the writer, before the snapshot naming it is published. The pause
// is the frontier write plus any wait for the writer's queue.
func (e *engine) ckptCut() error {
	ck := e.ck
	start := time.Now()
	if err := e.streamFrontier(); err != nil {
		return err
	}
	mark, err := e.stream.Mark()
	if err != nil {
		return err
	}
	ck.epoch++
	ck.writer.ch <- ckpt.Snapshot{
		Meta: ckpt.Meta{
			N:       e.opts.Params.N,
			X:       e.x,
			P:       e.prob,
			Seed:    e.seed,
			Ranks:   e.p,
			Rank:    e.rank,
			Scheme:  e.part.Name(),
			Resolve: int(e.opts.Resolve),
		},
		Epoch: ck.epoch,
		Stats: ckpt.Stats{
			Retries:     e.stats.Retries,
			QueuedWaits: e.stats.QueuedWaits,
			LocalWaits:  e.stats.LocalWaits,
		},
		Sink: ckpt.SinkMark{Offset: mark.Offset, Blocks: mark.Blocks, Edges: mark.Edges},
	}
	pause := time.Since(start).Nanoseconds()
	ck.pauseNanos += pause
	ck.pauseHist.Observe(pause)
	ck.nextTrigger = e.ckptMetric() + ck.every
	return nil
}
