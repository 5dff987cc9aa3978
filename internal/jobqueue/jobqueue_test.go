package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// runnerFunc adapts a function to the Runner interface.
type runnerFunc func(ctx context.Context, job JobInfo, resume bool) error

func (f runnerFunc) Run(ctx context.Context, job JobInfo, resume bool) error {
	return f(ctx, job, resume)
}

// newTestQueue builds a queue over a temp root with test-friendly
// timing. Callers override cfg fields before use via the setup func.
func newTestQueue(t *testing.T, r Runner, setup func(*Config)) *Queue {
	t.Helper()
	cfg := Config{
		Root:        t.TempDir(),
		Slots:       2,
		QueueCap:    8,
		MaxRestarts: 3,
		Runner:      r,
	}
	if setup != nil {
		setup(&cfg)
	}
	q, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(q.Close)
	return q
}

func smallSpec() Spec { return Spec{N: 100, X: 2, Seed: 1} }

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, q *Queue, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := q.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if j.State == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: state = %s, want %s (job: %+v)", id, j.State, want, j)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockingRunner parks every attempt until released (or its ctx is
// cancelled), reporting each start on starts.
type blockingRunner struct {
	starts  chan string
	release chan struct{}
	// holdAfterCancel simulates an attempt that needs time to drain
	// (e.g. committing a final checkpoint) after the queue kills it:
	// Run ignores ctx and returns only on release.
	holdAfterCancel bool
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{starts: make(chan string, 16), release: make(chan struct{})}
}

func (r *blockingRunner) Run(ctx context.Context, job JobInfo, resume bool) error {
	r.starts <- job.ID
	if r.holdAfterCancel {
		<-r.release
		return ctx.Err()
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-r.release:
		return nil
	}
}

func (r *blockingRunner) waitStart(t *testing.T, want string) {
	t.Helper()
	select {
	case id := <-r.starts:
		if id != want {
			t.Fatalf("started job %s, want %s", id, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never started", want)
	}
}

func TestSubmitValidation(t *testing.T) {
	q := newTestQueue(t, runnerFunc(func(context.Context, JobInfo, bool) error { return nil }), nil)
	cases := []Spec{
		{N: 0, X: 2},                     // n <= x
		{N: 100, X: 0},                   // x < 1
		{N: 100, X: 2, P: 2},             // p outside [0,1]
		{N: 100, X: 2, Scheme: "bogus"},  // unknown scheme
		{N: 100, X: 2, Resolve: "bogus"}, // unknown resolve mode
		{N: 100, X: 2, Ranks: 99},        // more ranks than slots
		{N: 100, X: 2, StreamBlockEdges: -1},
	}
	for _, spec := range cases {
		if _, err := q.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(%+v) = %v, want ErrBadSpec", spec, err)
		}
	}
	if got := q.Metrics().Submitted; got != 0 {
		t.Errorf("rejected specs counted as submitted: %d", got)
	}
}

// A spec asking for more ranks than the pool has is refused before any
// O(ranks) partition table is built: 2²⁵ LCP ranks cost nothing, not
// half a GB of cut tables and a second of cut searches.
func TestSubmitOversizedRanksAllocatesNothing(t *testing.T) {
	q := newTestQueue(t, runnerFunc(func(context.Context, JobInfo, bool) error { return nil }), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := q.Submit(Spec{N: 100, X: 2, Scheme: "LCP", Ranks: 1 << 25})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Submit = %v, want ErrBadSpec", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing the spec allocated %d bytes", grew)
	}
}

func TestSpecDefaults(t *testing.T) {
	q := newTestQueue(t, runnerFunc(func(context.Context, JobInfo, bool) error { return nil }), nil)
	j, err := q.Submit(Spec{N: 100, X: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s := j.Spec
	if s.P == 0 || s.Scheme != "RRP" || s.Ranks != 1 || s.Workers != 1 ||
		s.Resolve != "wire" || s.CheckpointEvery != 20000 {
		t.Errorf("defaults not applied: %+v", s)
	}
	if j.Dir == "" || !strings.HasSuffix(j.Dir, filepath.Join("jobs", j.ID)) {
		t.Errorf("job dir = %q, want .../jobs/%s", j.Dir, j.ID)
	}
	for _, sub := range []string{"ck", "shards"} {
		if st, err := os.Stat(filepath.Join(j.Dir, sub)); err != nil || !st.IsDir() {
			t.Errorf("job subdir %s missing: %v", sub, err)
		}
	}
}

func TestHappyPath(t *testing.T) {
	var mu sync.Mutex
	var resumes []bool
	q := newTestQueue(t, runnerFunc(func(_ context.Context, job JobInfo, resume bool) error {
		mu.Lock()
		resumes = append(resumes, resume)
		mu.Unlock()
		// The runner sees the job's directory layout.
		if job.CheckpointDir() != filepath.Join(job.Dir, "ck") ||
			job.ShardDir() != filepath.Join(job.Dir, "shards") {
			return fmt.Errorf("bad dirs: %+v", job)
		}
		return nil
	}), nil)
	j, err := q.Submit(smallSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitState(t, q, j.ID, StateDone)
	if got.Attempts != 1 || got.Restarts != 0 || got.Error != "" {
		t.Errorf("done job: %+v", got)
	}
	if got.Started.IsZero() || got.Finished.IsZero() {
		t.Errorf("timestamps missing: %+v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(resumes) != 1 || resumes[0] {
		t.Errorf("resume flags = %v, want [false]", resumes)
	}
}

func TestQueueFullRejection(t *testing.T) {
	r := newBlockingRunner()
	q := newTestQueue(t, r, func(c *Config) { c.Slots = 1; c.QueueCap = 2 })
	defer close(r.release)

	first, err := q.Submit(smallSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r.waitStart(t, first.ID) // occupies the only slot; queue now empty
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(smallSpec()); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := q.Submit(smallSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over cap = %v, want ErrQueueFull", err)
	}
	m := q.Metrics()
	if m.Rejected != 1 || m.Submitted != 3 {
		t.Errorf("metrics = %+v, want rejected 1, submitted 3", m)
	}
}

func TestCancelQueued(t *testing.T) {
	r := newBlockingRunner()
	q := newTestQueue(t, r, func(c *Config) { c.Slots = 1 })
	defer close(r.release)

	first, _ := q.Submit(smallSpec())
	r.waitStart(t, first.ID)
	second, _ := q.Submit(smallSpec())

	j, err := q.Cancel(second.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if j.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", j.State)
	}
	// Cancelling again reports the job is finished.
	if _, err := q.Cancel(second.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second Cancel = %v, want ErrFinished", err)
	}
	if _, err := q.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestCancelRunning(t *testing.T) {
	r := newBlockingRunner()
	q := newTestQueue(t, r, nil)
	defer close(r.release)

	j, _ := q.Submit(smallSpec())
	r.waitStart(t, j.ID)
	if _, err := q.Cancel(j.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	got := waitState(t, q, j.ID, StateCancelled)
	if got.Finished.IsZero() {
		t.Errorf("cancelled job has no Finished: %+v", got)
	}
	if m := q.Metrics(); m.Cancelled != 1 {
		t.Errorf("cancelled counter = %d, want 1", m.Cancelled)
	}
}

// TestCancelWhileCheckpointing preempts a job whose attempt takes time
// to drain after the kill, then cancels it while the runner is still
// "checkpointing". Cancel must override the preemption: the job ends
// cancelled, never re-enqueued.
func TestCancelWhileCheckpointing(t *testing.T) {
	r := newBlockingRunner()
	r.holdAfterCancel = true
	q := newTestQueue(t, r, nil)

	j, _ := q.Submit(smallSpec())
	r.waitStart(t, j.ID)
	if _, err := q.Preempt(j.ID); err != nil {
		t.Fatalf("Preempt: %v", err)
	}
	// The attempt is now draining (runner ignores ctx until released);
	// the job is still formally running, so Cancel upgrades the intent.
	if _, err := q.Cancel(j.ID); err != nil {
		t.Fatalf("Cancel during drain: %v", err)
	}
	close(r.release)
	got := waitState(t, q, j.ID, StateCancelled)
	if got.Preemptions != 0 {
		t.Errorf("cancel-overridden preemption was counted: %+v", got)
	}
	m := q.Metrics()
	if m.Cancelled != 1 || m.Preempted != 0 {
		t.Errorf("metrics = %+v, want cancelled 1 preempted 0", m)
	}
}

// TestCrashRespawn verifies a crashing attempt is respawned with
// resume=true — a restart, not a job failure.
func TestCrashRespawn(t *testing.T) {
	var mu sync.Mutex
	var resumes []bool
	q := newTestQueue(t, runnerFunc(func(_ context.Context, job JobInfo, resume bool) error {
		mu.Lock()
		resumes = append(resumes, resume)
		n := len(resumes)
		mu.Unlock()
		if n == 1 {
			return errors.New("rank 1: connection reset")
		}
		return nil
	}), nil)
	j, _ := q.Submit(smallSpec())
	got := waitState(t, q, j.ID, StateDone)
	if got.Attempts != 2 || got.Restarts != 1 {
		t.Errorf("attempts/restarts = %d/%d, want 2/1", got.Attempts, got.Restarts)
	}
	if got.Error != "" {
		t.Errorf("done job kept error %q", got.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(resumes) != 2 || resumes[0] || !resumes[1] {
		t.Errorf("resume flags = %v, want [false true]", resumes)
	}
	m := q.Metrics()
	if m.Restarts != 1 || m.Completed != 1 || m.Failed != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestRestartsExhausted verifies a job that keeps crashing eventually
// fails with the restart budget spent and the last error recorded.
func TestRestartsExhausted(t *testing.T) {
	q := newTestQueue(t, runnerFunc(func(context.Context, JobInfo, bool) error {
		return errors.New("segfault")
	}), func(c *Config) { c.MaxRestarts = 2 })
	j, _ := q.Submit(smallSpec())
	got := waitState(t, q, j.ID, StateFailed)
	if got.Attempts != 3 || got.Restarts != 2 {
		t.Errorf("attempts/restarts = %d/%d, want 3/2", got.Attempts, got.Restarts)
	}
	if !strings.Contains(got.Error, "segfault") || !strings.Contains(got.Error, "after 2 restarts") {
		t.Errorf("error = %q", got.Error)
	}
	if m := q.Metrics(); m.Failed != 1 || m.Restarts != 2 {
		t.Errorf("metrics = %+v", m)
	}
}

// chunkRunner is a deterministic stand-in for the engine's
// checkpoint/resume contract: it writes a known byte stream to
// out.bin in chunks, persists a progress counter to the job's
// checkpoint dir after every chunk, honours ctx between chunks, and on
// resume continues from the recorded chunk. An interrupted-and-resumed
// run therefore produces output byte-identical to an uninterrupted
// one iff the queue wires resume correctly.
type chunkRunner struct {
	chunks int
	// started signals each attempt once its first chunk is durable.
	started chan struct{}
}

func (r *chunkRunner) Run(ctx context.Context, job JobInfo, resume bool) error {
	prog := filepath.Join(job.CheckpointDir(), "progress")
	out := filepath.Join(job.ShardDir(), "out.bin")
	from := 0
	if resume {
		if b, err := os.ReadFile(prog); err == nil {
			from, _ = strconv.Atoi(strings.TrimSpace(string(b)))
		}
	} else {
		os.Remove(out)
	}
	f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(int64(from*8), 0); err != nil {
		return err
	}
	for i := from; i < r.chunks; i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if _, err := fmt.Fprintf(f, "chunk%02d\n", i); err != nil {
			return err
		}
		if err := os.WriteFile(prog, []byte(strconv.Itoa(i+1)), 0o644); err != nil {
			return err
		}
		if i == from && r.started != nil {
			r.started <- struct{}{}
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// TestPreemptResumeByteIdentical preempts a mid-flight job, waits for
// it to be re-admitted and finish, and compares its output to an
// uninterrupted run of the same spec.
func TestPreemptResumeByteIdentical(t *testing.T) {
	r := &chunkRunner{chunks: 200, started: make(chan struct{}, 8)}
	q := newTestQueue(t, r, nil)

	// Reference: uninterrupted. Consume its start signal so the next
	// receive really observes the second job's first chunk.
	ref, _ := q.Submit(smallSpec())
	<-r.started
	waitState(t, q, ref.ID, StateDone)

	j, _ := q.Submit(smallSpec())
	<-r.started // first chunk durable: safe to preempt
	if _, err := q.Preempt(j.ID); err != nil {
		t.Fatalf("Preempt: %v", err)
	}
	got := waitState(t, q, j.ID, StateDone) // re-admitted automatically
	if got.Preemptions != 1 || got.Attempts != 2 {
		t.Errorf("preemptions/attempts = %d/%d, want 1/2", got.Preemptions, got.Attempts)
	}
	refBytes, err := os.ReadFile(filepath.Join(ref.Dir, "shards", "out.bin"))
	if err != nil {
		t.Fatalf("read reference: %v", err)
	}
	gotBytes, err := os.ReadFile(filepath.Join(got.Dir, "shards", "out.bin"))
	if err != nil {
		t.Fatalf("read preempted output: %v", err)
	}
	if string(refBytes) != string(gotBytes) {
		t.Fatalf("resumed output differs from uninterrupted run:\nref %d bytes, got %d bytes", len(refBytes), len(gotBytes))
	}
	// Drain any extra start signals so the buffered channel can't block
	// a later attempt (defensive; capacity covers the attempts here).
	for {
		select {
		case <-r.started:
		default:
			return
		}
	}
}

func TestPreemptNotRunning(t *testing.T) {
	r := newBlockingRunner()
	q := newTestQueue(t, r, func(c *Config) { c.Slots = 1 })
	defer close(r.release)
	first, _ := q.Submit(smallSpec())
	r.waitStart(t, first.ID)
	second, _ := q.Submit(smallSpec())
	if _, err := q.Preempt(second.ID); !errors.Is(err, ErrNotRunning) {
		t.Errorf("Preempt queued job = %v, want ErrNotRunning", err)
	}
	if _, err := q.Preempt("j424242"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Preempt unknown = %v, want ErrNotFound", err)
	}
}

// TestCloseCheckpointsRunning verifies daemon shutdown leaves running
// jobs checkpointed (not failed): their directories hold the progress
// a future queue needs.
func TestCloseCheckpointsRunning(t *testing.T) {
	r := newBlockingRunner()
	q := newTestQueue(t, r, nil)
	j, _ := q.Submit(smallSpec())
	r.waitStart(t, j.ID)
	q.Close() // kills the attempt via ctx
	got, err := q.Get(j.ID)
	if err != nil {
		t.Fatalf("Get after close: %v", err)
	}
	if got.State != StateCheckpointed {
		t.Errorf("state after close = %s, want checkpointed", got.State)
	}
	if _, err := q.Submit(smallSpec()); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after close = %v, want ErrClosed", err)
	}
}

// TestMetricsReconcile drives a mixed workload and checks the /metrics
// invariant: submitted == completed + failed + cancelled + queued +
// running + checkpointed.
func TestMetricsReconcile(t *testing.T) {
	var calls int64
	var mu sync.Mutex
	fails := map[string]bool{}
	q := newTestQueue(t, runnerFunc(func(_ context.Context, job JobInfo, _ bool) error {
		mu.Lock()
		calls++
		first := !fails[job.ID]
		fails[job.ID] = true
		mu.Unlock()
		if job.Spec.Seed == 7 && first {
			return errors.New("boom") // one job crashes once, then succeeds
		}
		return nil
	}), nil)

	var ids []string
	for i := 0; i < 6; i++ {
		s := smallSpec()
		if i == 3 {
			s.Seed = 7
		}
		j, err := q.Submit(s)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitState(t, q, id, StateDone)
	}
	m := q.Metrics()
	total := m.Completed + m.Failed + m.Cancelled + int64(m.Queued) + int64(m.Running) + int64(m.Checkpointed)
	if m.Submitted != total {
		t.Errorf("invariant broken: submitted %d != sum %d (%+v)", m.Submitted, total, m)
	}
	if m.Completed != 6 || m.Restarts != 1 || m.SlotsFree != m.SlotsTotal {
		t.Errorf("metrics = %+v", m)
	}
	if m.QueueWait.Count != int64(len(ids))+1 { // +1: the respawn re-admission
		t.Errorf("queue-wait observations = %d, want %d", m.QueueWait.Count, len(ids)+1)
	}
	if got := len(q.List()); got != 6 {
		t.Errorf("List = %d jobs, want 6", got)
	}
}

func TestStateTerminal(t *testing.T) {
	for s, want := range map[State]bool{
		StateQueued: false, StateRunning: false, StateCheckpointed: false,
		StateDone: true, StateFailed: true, StateCancelled: true,
	} {
		if s.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", s, !want, want)
		}
	}
}
