package jobqueue

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"pagen/internal/core"
	"pagen/internal/obs"
	"pagen/internal/runcfg"
)

// PortAlloc hands out listen addresses for rank clusters from a fixed
// host:port range. Concurrently running jobs hold disjoint port sets;
// Acquire fails (rather than colliding) if the range is exhausted —
// size the span to at least the pool's slot count, since at most Slots
// ranks run at once.
type PortAlloc struct {
	host string
	base int

	mu   sync.Mutex
	used []bool
}

// NewPortAlloc creates an allocator over [base, base+span) on host
// (default 127.0.0.1).
func NewPortAlloc(host string, base, span int) *PortAlloc {
	if host == "" {
		host = "127.0.0.1"
	}
	return &PortAlloc{host: host, base: base, used: make([]bool, span)}
}

// Acquire reserves k ports and returns their addresses in rank order
// plus a release function. The addresses are not necessarily
// contiguous.
func (a *PortAlloc) Acquire(k int) ([]string, func(), error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var picked []int
	for i := range a.used {
		if !a.used[i] {
			picked = append(picked, i)
			if len(picked) == k {
				break
			}
		}
	}
	if len(picked) < k {
		return nil, nil, fmt.Errorf("jobqueue: port range exhausted (%d ports, %d wanted)", len(a.used), k)
	}
	addrs := make([]string, k)
	for i, p := range picked {
		a.used[p] = true
		addrs[i] = fmt.Sprintf("%s:%d", a.host, a.base+p)
	}
	release := func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		for _, p := range picked {
			a.used[p] = false
		}
	}
	return addrs, release, nil
}

// ProcessRunner executes a job attempt as a cluster of pa-tcp rank
// processes on this host — the control plane's production path, and
// with the queue's respawn the one single-host supervisor: every rank
// gets the full address list and the job's Config as flags (checkpoint
// and shard directories included), and a crashed attempt is relaunched
// by the queue with -resume so the cluster restarts from the newest
// epoch all ranks committed. Rank stdout/stderr append to rank<i>.log
// in the job directory across attempts.
type ProcessRunner struct {
	// Binary is the pa-tcp executable path.
	Binary string
	// Ports allocates the cluster's listen addresses.
	Ports *PortAlloc
}

// config is the run one attempt of job makes: the spec with the job's
// checkpoint and shard directories, resuming when resume is set.
func (ji JobInfo) config(resume bool) runcfg.Config {
	c := runcfg.Config(ji.Spec)
	c.CheckpointDir = ji.CheckpointDir()
	c.StreamDir = ji.ShardDir()
	c.Resume = resume
	return c
}

// rankArgs builds the pa-tcp argument vector for one rank of a job
// attempt: -rank and -addrs first (scripts find a job's ranks by that
// prefix), this rank's metrics drop, then the attempt's Config.
func rankArgs(job JobInfo, addrs []string, rank int, resume bool) []string {
	args := []string{
		"-rank", strconv.Itoa(rank),
		"-addrs", strings.Join(addrs, ","),
		// Each rank drops its metrics record in the job directory; the
		// queue folds the checkpoint histograms into /metrics.
		"-metrics", rankMetricsFile(job.Dir, rank),
	}
	return append(args, job.config(resume).Args()...)
}

// Run launches one rank process per slot and waits for the cluster.
// On ctx cancellation every rank is killed and ctx's error returned;
// on any rank failure the survivors are killed (a rank cannot finish
// without its peers) and the first failure returned after all
// processes are reaped.
func (r *ProcessRunner) Run(ctx context.Context, job JobInfo, resume bool) error {
	ranks := job.Spec.Ranks
	addrs, release, err := r.Ports.Acquire(ranks)
	if err != nil {
		return err
	}
	defer release()

	cmds := make([]*exec.Cmd, 0, ranks)
	logs := make([]*os.File, 0, ranks)
	defer func() {
		for _, lf := range logs {
			lf.Close()
		}
	}()
	killAll := func() {
		for _, c := range cmds {
			c.Process.Kill()
		}
	}
	for i := 0; i < ranks; i++ {
		lf, err := os.OpenFile(filepath.Join(job.Dir, fmt.Sprintf("rank%d.log", i)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			killAll()
			for _, c := range cmds {
				c.Wait()
			}
			return err
		}
		logs = append(logs, lf)
		cmd := exec.Command(r.Binary, rankArgs(job, addrs, i, resume)...)
		cmd.Stdout, cmd.Stderr = lf, lf
		if err := cmd.Start(); err != nil {
			killAll()
			for _, c := range cmds {
				c.Wait()
			}
			return fmt.Errorf("spawn rank %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
	}

	// Kill the cluster the moment the queue revokes the slots.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			killAll()
		case <-watchDone:
		}
	}()

	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, ranks)
	for i, cmd := range cmds {
		go func(i int, cmd *exec.Cmd) {
			exits <- exit{i, cmd.Wait()}
		}(i, cmd)
	}
	var firstErr error
	for done := 0; done < ranks; done++ {
		e := <-exits
		if e.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", e.rank, e.err)
			killAll()
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return firstErr
}

// InProcessRunner runs a job's ranks as goroutines inside the calling
// process over the shared-memory transport — no child processes, no
// TCP. It produces the identical shard output ProcessRunner does (the
// byte-identity contract across transports), and the same checkpoint/
// resume behaviour. Limitation: the in-process engine has no kill
// switch, so ctx is only honoured between attempts — Cancel or Preempt
// of a running in-process job takes effect when the generation
// finishes. Intended for tests and small single-binary deployments;
// production pools use ProcessRunner.
type InProcessRunner struct{}

// Run generates the job's shards in-process, resuming from the job's
// checkpoint directory when resume is set.
func (InProcessRunner) Run(ctx context.Context, job JobInfo, resume bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	opts, err := runcfg.Options(job.config(resume))
	if err != nil {
		return err
	}
	res, err := core.Run(opts, false)
	if res != nil {
		writeRankMetricsFiles(job, res)
	}
	return err
}

// writeRankMetricsFiles leaves the same per-rank metrics drops a
// pa-tcp cluster writes via -metrics, so the queue's checkpoint
// telemetry merge is runner-agnostic. Best-effort: a drop that fails
// to write is skipped (telemetry never fails a job).
func writeRankMetricsFiles(job JobInfo, res *core.Result) {
	for _, st := range res.Ranks {
		m := runcfg.Metrics(runcfg.Config(job.Spec))
		m.ElapsedNanos = res.Elapsed.Nanoseconds()
		m.PerRank = []obs.RankMetrics{st.Metrics()}
		_ = m.WriteFile(rankMetricsFile(job.Dir, st.Rank)) // best-effort, as above
	}
}
