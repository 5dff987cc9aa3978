// Package jobqueue is the scheduling core of the pa-serve control
// plane: a multi-tenant queue of generation jobs packed onto an elastic
// pool of rank slots. Each job is one (n, x, p, seed, scheme, ranks,
// workers, resolve, hub-prefix) parameterization of the generator; the
// queue admits jobs strictly FIFO (no job starts ahead of an older one
// that does not fit yet), so a job waits at most for the jobs admitted
// ahead of it to drain — DESIGN.md §14 ties that bound to the Lemma 3.4
// load model.
//
// Every job owns a directory with a checkpoint subdir and a streamed
// shard subdir, so jobs survive both failure modes of a long-lived
// service: a crashed rank process relaunches the job's cluster with
// -resume (counted as a restart, not a job failure), and an operator
// Preempt checkpoints the job off the pool into the "checkpointed"
// state, to be resumed later from exactly where it stopped — with
// output byte-identical to an uninterrupted run, the engine's
// checkpoint/restart guarantee (DESIGN.md §9, §12).
//
// The queue is runner-agnostic: ProcessRunner executes a job as real
// pa-tcp rank processes over localhost TCP (the production path),
// InProcessRunner runs the ranks as goroutines over the shared-memory
// transport (tests, single-binary setups). cmd/pa-serve wraps the
// queue in the HTTP/JSON API documented in docs/API.md.
package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pagen/internal/runcfg"
)

// State is a job's position in the lifecycle state machine:
//
//	queued ──admit──► running ──► done
//	   ▲                │ │ └────► failed     (restarts exhausted)
//	   │                │ └──────► cancelled  (operator cancel)
//	   └── re-admit ── checkpointed           (preempt / rank crash /
//	         (resume)                          daemon shutdown)
//
// plus queued ──► cancelled for jobs cancelled before ever running.
// "checkpointed" means the job is off the pool but its directory holds
// durable progress (checkpoint epochs and shard prefixes); preempted
// and crash-respawned jobs pass through it on their way back to the
// pool, and its next attempt always runs with -resume.
type State string

// The job lifecycle states. Done, failed and cancelled are terminal.
const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateCheckpointed State = "checkpointed"
	StateDone         State = "done"
	StateFailed       State = "failed"
	StateCancelled    State = "cancelled"
)

// Terminal reports whether s is a terminal state (no further
// transitions).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is a job's generation parameterization — the JSON body of
// POST /jobs. It is a run's Config (runcfg.Config, whose JSON tags name
// the keys; docs/API.md): a key for a field a spec does not carry, a
// directory or resume, is unknown and refused. Zero values select
// documented defaults; normalize fills them in, so a stored job's Spec
// shows the effective values. The spec adds only job policy: one
// worker per rank unless asked (the service packs jobs, so
// oversubscription is the queue's job, not the runtime's), a
// checkpoint cadence (checkpoints are what make preemption and crash
// respawn cheap, so they are always on, and every job streams to
// per-rank shards, which bounds each tenant's memory), and the slot
// check.
type Spec runcfg.Config

// normalize fills defaults in place and validates the spec with
// runcfg's Validate, the one every rank runs. A job needing more than
// slots ranks is refused without building a partition, whose tables
// are O(ranks) and ranks is whatever the request says.
func (s *Spec) normalize(slots int) error {
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.CheckpointEvery == 0 {
		// OPERATIONS.md §2's cadence guidance.
		s.CheckpointEvery = max(s.N/20, 20000)
	}
	c, err := runcfg.Config(*s).Validate()
	if err != nil {
		return err
	}
	*s = Spec(c)
	if s.Workers < 0 {
		return fmt.Errorf("workers = %d, want >= 1", s.Workers)
	}
	if s.Ranks > slots {
		return fmt.Errorf("job needs %d rank slots, pool has %d", s.Ranks, slots)
	}
	return nil
}

// Job is the externally visible snapshot of one job — the JSON object
// the API returns. Timestamps are zero until the transition they mark.
type Job struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// Submitted, Started and Finished mark the lifecycle transitions
	// (Started is the first admission to the pool).
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// Attempts counts cluster launches; Restarts the crash-triggered
	// relaunches among them; Preemptions the operator preemptions.
	Attempts    int `json:"attempts"`
	Restarts    int `json:"restarts"`
	Preemptions int `json:"preemptions"`
	// Error carries the fatal error of a failed job, or the most
	// recent crash of a job the queue respawned.
	Error string `json:"error,omitempty"`
	// Dir is the job's directory: checkpoints under Dir/ck, streamed
	// shards under Dir/shards, per-rank process logs as rank<i>.log.
	Dir string `json:"dir"`
	// WaitNanos is cumulative time spent waiting for admission
	// (queued or checkpointed); RunNanos cumulative time on the pool.
	WaitNanos int64 `json:"wait_nanos"`
	RunNanos  int64 `json:"run_nanos"`
}

// JobInfo is what a Runner receives: the job's identity, effective
// spec, directory layout and attempt ordinal.
type JobInfo struct {
	ID      string
	Spec    Spec
	Dir     string
	Attempt int
}

// CheckpointDir is the job's checkpoint directory (shared by all of
// its ranks; pa-tcp's -checkpoint-dir).
func (ji JobInfo) CheckpointDir() string { return filepath.Join(ji.Dir, "ck") }

// ShardDir is the directory the job's ranks stream their edge shards
// into (pa-tcp's -stream-dir; docs/SHARD_FORMAT.md).
func (ji JobInfo) ShardDir() string { return filepath.Join(ji.Dir, "shards") }

// Runner executes one attempt of a job: launch all Spec.Ranks ranks,
// wait for the cluster, and return nil exactly when the job's shard
// output is complete. resume asks the attempt to restart from the
// job's checkpoint directory (a no-op when it holds no usable epoch —
// the run starts fresh). A Runner must watch ctx: cancellation means
// the queue wants the slots back (operator cancel, preemption or
// shutdown), and Run should kill the attempt and return promptly with
// ctx's error. Run is called from a per-job goroutine; implementations
// must be safe for concurrent calls on different jobs.
type Runner interface {
	Run(ctx context.Context, job JobInfo, resume bool) error
}

// Config configures a Queue.
type Config struct {
	// Root is the data directory; each job gets Root/jobs/<id>.
	Root string
	// Slots is the rank-process capacity of the pool. A running job
	// occupies Spec.Ranks slots. Default 8.
	Slots int
	// QueueCap bounds the jobs waiting for admission (queued plus
	// checkpointed); Submit past it fails with ErrQueueFull. Jobs
	// re-entering the queue after a crash or preemption are existing
	// tenants and bypass the cap. Default 64.
	QueueCap int
	// MaxRestarts bounds crash-triggered relaunches per job before it
	// fails for good. Default 3.
	MaxRestarts int
	// Runner executes job attempts (required).
	Runner Runner
}

// Sentinel errors of the queue API, in the order the HTTP layer maps
// them (400, 429, 404, 409).
var (
	ErrBadSpec    = errors.New("jobqueue: invalid job spec")
	ErrQueueFull  = errors.New("jobqueue: queue full")
	ErrNotFound   = errors.New("jobqueue: no such job")
	ErrFinished   = errors.New("jobqueue: job already finished")
	ErrNotRunning = errors.New("jobqueue: job not running")
	ErrClosed     = errors.New("jobqueue: queue closed")
)

// job is the queue's internal record: the public snapshot plus
// scheduling state.
type job struct {
	Job
	// enqueued is when the job last entered the pending queue (zero
	// while running or terminal); admission measures the wait from it.
	enqueued time.Time
	// attemptStart is when the current attempt was admitted.
	attemptStart time.Time
	// waitAccum and runAccum accumulate completed waiting/running
	// stints; snapshots add the live stint.
	waitAccum time.Duration
	runAccum  time.Duration
	// resume is whether the next attempt resumes from the job dirs
	// (true after the first admission).
	resume bool
	// cancel aborts the running attempt (nil when not running).
	cancel context.CancelFunc
	// intent is why the running attempt is being stopped; cancel
	// overrides preempt.
	intent intent
}

type intent int

const (
	intentNone intent = iota
	intentPreempt
	intentCancel
)

// Queue is the multi-tenant job queue. All methods are safe for
// concurrent use.
type Queue struct {
	cfg Config

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for List
	pending []*job   // admission order: crash-respawns first, then FIFO
	free    int      // free rank slots
	nextID  int
	closed  bool
	met     metricCounters

	ctx       context.Context
	stop      context.CancelFunc
	kick      chan struct{}
	wg        sync.WaitGroup
	schedDone chan struct{}
}

// New creates the queue, its jobs directory, and starts the scheduler.
// Close must be called to stop it.
func New(cfg Config) (*Queue, error) {
	if cfg.Runner == nil {
		return nil, errors.New("jobqueue: Config.Runner is required")
	}
	if cfg.Root == "" {
		return nil, errors.New("jobqueue: Config.Root is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 3
	}
	if err := os.MkdirAll(filepath.Join(cfg.Root, "jobs"), 0o755); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	q := &Queue{
		cfg:       cfg,
		jobs:      make(map[string]*job),
		free:      cfg.Slots,
		ctx:       ctx,
		stop:      stop,
		kick:      make(chan struct{}, 1),
		schedDone: make(chan struct{}),
	}
	go q.scheduler()
	return q, nil
}

// Slots returns the pool's total slot count.
func (q *Queue) Slots() int { return q.cfg.Slots }

// Submit validates spec, creates the job's directories and enqueues
// it. Errors wrap ErrBadSpec (invalid or oversized spec), ErrQueueFull
// or ErrClosed.
func (q *Queue) Submit(spec Spec) (Job, error) {
	if err := spec.normalize(q.cfg.Slots); err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, ErrClosed
	}
	if len(q.pending) >= q.cfg.QueueCap {
		q.met.Rejected++
		return Job{}, fmt.Errorf("%w: %d jobs already waiting", ErrQueueFull, len(q.pending))
	}
	id := fmt.Sprintf("j%06d", q.nextID)
	q.nextID++
	dir := filepath.Join(q.cfg.Root, "jobs", id)
	for _, d := range []string{filepath.Join(dir, "ck"), filepath.Join(dir, "shards")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return Job{}, err
		}
	}
	now := time.Now()
	j := &job{
		Job:      Job{ID: id, Spec: spec, State: StateQueued, Submitted: now, Dir: dir},
		enqueued: now,
	}
	q.jobs[id] = j
	q.order = append(q.order, id)
	q.pending = append(q.pending, j)
	q.met.Submitted++
	q.kickLocked()
	return j.snapshot(now), nil
}

// Get returns the snapshot of one job.
func (q *Queue) Get(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return j.snapshot(time.Now()), nil
}

// List returns snapshots of all jobs in submission order.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.jobs[id].snapshot(now))
	}
	return out
}

// Cancel stops a job for good: a waiting job leaves the queue, a
// running job's attempt is killed. Cancel overrides an in-flight
// preemption (a job caught mid-checkpoint by a cancel ends cancelled,
// not checkpointed). Cancelling a terminal job returns ErrFinished.
func (q *Queue) Cancel(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	now := time.Now()
	switch {
	case j.State.Terminal():
		return j.snapshot(now), ErrFinished
	case j.State == StateRunning:
		j.intent = intentCancel
		if j.cancel != nil {
			j.cancel()
		}
		// State flips to cancelled when the runner returns.
	default: // queued or checkpointed: still in the pending queue
		q.dropPendingLocked(j)
		j.waitAccum += now.Sub(j.enqueued)
		j.enqueued = time.Time{}
		j.State = StateCancelled
		j.Finished = now
		q.met.Cancelled++
		q.kickLocked()
	}
	return j.snapshot(now), nil
}

// Preempt checkpoints a running job off the pool: its attempt is
// killed (the engine's next resume regenerates, rank by rank, exactly
// what lies past each rank's newest epoch), the job moves to checkpointed and
// re-enters the queue at the back — yielding its slots to older
// waiters. Only running jobs can be preempted.
func (q *Queue) Preempt(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	if j.State != StateRunning {
		return j.snapshot(time.Now()), ErrNotRunning
	}
	if j.intent == intentNone {
		j.intent = intentPreempt
	}
	if j.cancel != nil {
		j.cancel()
	}
	return j.snapshot(time.Now()), nil
}

// Close stops the scheduler and kills every running attempt (their
// jobs end checkpointed: the directories hold their progress). Waiting
// jobs stay queued in memory but will never run. Close blocks until
// all runner goroutines have returned.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.stop()
	q.wg.Wait()
	<-q.schedDone
}

// kickLocked wakes the scheduler (non-blocking; the channel holds one
// pending wakeup).
func (q *Queue) kickLocked() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// dropPendingLocked removes j from the pending queue.
func (q *Queue) dropPendingLocked(j *job) {
	for i, p := range q.pending {
		if p == j {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

// scheduler is the admission loop: one goroutine, woken on every
// submit/finish/cancel, scanning the pending queue under the lock.
func (q *Queue) scheduler() {
	defer close(q.schedDone)
	for {
		select {
		case <-q.ctx.Done():
			return
		case <-q.kick:
		}
		q.mu.Lock()
		q.scheduleLocked(time.Now())
		q.mu.Unlock()
	}
}

// scheduleLocked admits from the head of the pending queue while the
// head fits the free slots and stops at the first job that does not:
// strict FIFO, crash-respawns first. Combined with Submit's Ranks <=
// Slots bound this caps queue wait (DESIGN.md §14): a job waits at most
// for the jobs admitted ahead of it to drain.
func (q *Queue) scheduleLocked(now time.Time) {
	if q.closed {
		// Close is (or will be) waiting on the runner WaitGroup; no
		// new attempts may start.
		return
	}
	for len(q.pending) > 0 && q.pending[0].Spec.Ranks <= q.free {
		j := q.pending[0]
		q.pending = q.pending[1:]
		q.admitLocked(j, now)
	}
}

// admitLocked moves a pending job onto the pool and launches its
// runner goroutine.
func (q *Queue) admitLocked(j *job, now time.Time) {
	wait := now.Sub(j.enqueued)
	j.waitAccum += wait
	q.met.QueueWait.Observe(wait.Nanoseconds())
	j.enqueued = time.Time{}
	j.State = StateRunning
	if j.Started.IsZero() {
		j.Started = now
	}
	j.attemptStart = now
	j.Attempts++
	j.intent = intentNone
	resume := j.resume
	j.resume = true // later attempts always resume from the job dirs
	ctx, cancel := context.WithCancel(q.ctx)
	j.cancel = cancel
	q.free -= j.Spec.Ranks
	info := JobInfo{ID: j.ID, Spec: j.Spec, Dir: j.Dir, Attempt: j.Attempts}
	q.wg.Add(1)
	go q.runJob(j, ctx, info, resume)
}

// runJob executes one attempt and applies the state transition its
// outcome selects.
func (q *Queue) runJob(j *job, ctx context.Context, info JobInfo, resume bool) {
	defer q.wg.Done()
	err := q.cfg.Runner.Run(ctx, info, resume)
	// Fold the attempt's per-rank checkpoint telemetry (file reads —
	// off the lock) into the pool-wide histograms below.
	ckptPause, ckptWrite := collectCkptTelemetry(info)
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	j.runAccum += now.Sub(j.attemptStart)
	q.free += j.Spec.Ranks
	q.met.CkptPause.Merge(ckptPause)
	q.met.CkptWrite.Merge(ckptWrite)
	switch {
	case j.intent == intentCancel:
		j.State = StateCancelled
		j.Finished = now
		q.met.Cancelled++
	case q.closed:
		// Daemon shutdown: leave the job checkpointed; its directory
		// holds everything a future run needs.
		j.State = StateCheckpointed
	case j.intent == intentPreempt:
		j.State = StateCheckpointed
		j.Preemptions++
		q.met.Preempted++
		j.enqueued = now
		q.pending = append(q.pending, j) // back of the queue: it yields
	case err == nil:
		j.State = StateDone
		j.Finished = now
		j.Error = ""
		q.met.Completed++
		q.met.RunTime.Observe(j.runAccum.Nanoseconds())
	case j.Restarts < q.cfg.MaxRestarts:
		// A crashed cluster is respawned from the job's checkpoint
		// directory — a restart, not a job failure.
		j.Restarts++
		j.Error = fmt.Sprintf("attempt %d crashed (respawning): %v", j.Attempts, err)
		q.met.Restarts++
		j.State = StateCheckpointed
		j.enqueued = now
		// Front of the queue: its slots were just freed, so it
		// usually re-admits immediately.
		q.pending = append([]*job{j}, q.pending...)
	default:
		j.State = StateFailed
		j.Finished = now
		j.Error = fmt.Sprintf("attempt %d: %v (after %d restarts)", j.Attempts, err, j.Restarts)
		q.met.Failed++
	}
	j.intent = intentNone
	q.kickLocked()
}

// snapshot returns the public view of j, folding the live waiting or
// running stint into the cumulative durations.
func (j *job) snapshot(now time.Time) Job {
	s := j.Job
	wait, run := j.waitAccum, j.runAccum
	switch s.State {
	case StateQueued, StateCheckpointed:
		if !j.enqueued.IsZero() {
			wait += now.Sub(j.enqueued)
		}
	case StateRunning:
		run += now.Sub(j.attemptStart)
	}
	s.WaitNanos = wait.Nanoseconds()
	s.RunNanos = run.Nanoseconds()
	return s
}
