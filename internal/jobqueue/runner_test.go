package jobqueue

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pagen/internal/core"
	"pagen/internal/esink"
	"pagen/internal/model"
	"pagen/internal/partition"
	"pagen/internal/runcfg"
)

func TestPortAllocAcquireRelease(t *testing.T) {
	a := NewPortAlloc("", 42000, 4)
	addrs, rel1, err := a.Acquire(3)
	if err != nil {
		t.Fatalf("Acquire(3): %v", err)
	}
	want := []string{"127.0.0.1:42000", "127.0.0.1:42001", "127.0.0.1:42002"}
	if !reflect.DeepEqual(addrs, want) {
		t.Errorf("addrs = %v, want %v", addrs, want)
	}
	// One port left: a 2-port acquire fails without corrupting state.
	if _, _, err := a.Acquire(2); err == nil {
		t.Fatal("Acquire(2) with 1 free port succeeded")
	}
	if got, rel, err := a.Acquire(1); err != nil || got[0] != "127.0.0.1:42003" {
		t.Errorf("Acquire(1) = %v, %v", got, err)
	} else {
		rel()
	}
	rel1()
	// All released: the full span is available again.
	if got, rel, err := a.Acquire(4); err != nil || len(got) != 4 {
		t.Errorf("Acquire(4) after release = %v, %v", got, err)
	} else {
		rel()
	}
}

func TestPortAllocHost(t *testing.T) {
	a := NewPortAlloc("10.0.0.5", 9000, 1)
	addrs, rel, err := a.Acquire(1)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer rel()
	if addrs[0] != "10.0.0.5:9000" {
		t.Errorf("addr = %s", addrs[0])
	}
}

// TestRankArgs pins the pa-tcp invocation ProcessRunner uses: -rank
// and -addrs first (the smoke and load-test scripts find a job's ranks
// by that prefix), the rank's metrics drop, then the attempt's Config
// serialised through the flags pa-tcp registers, which parse back into
// exactly that Config.
func TestRankArgs(t *testing.T) {
	spec := Spec{
		N: 50000, X: 4, P: 0.25, Seed: 99, Scheme: "CP", Ranks: 2,
		Workers: 3, Resolve: "recompute", HubPrefix: 128,
		CheckpointEvery:  5000,
		StreamBlockEdges: 1024,
	}
	job := JobInfo{ID: "j000007", Spec: spec, Dir: "/data/jobs/j000007", Attempt: 2}
	addrs := []string{"127.0.0.1:42000", "127.0.0.1:42001"}
	got := rankArgs(job, addrs, 1, true)
	want := []string{
		"-rank", "1",
		"-addrs", "127.0.0.1:42000,127.0.0.1:42001",
		"-metrics", filepath.Join("/data/jobs/j000007", "metrics-rank1.json"),
		"-checkpoint-dir=" + filepath.Join("/data/jobs/j000007", "ck"),
		"-checkpoint-every=5000",
		"-hub-prefix=128",
		"-n=50000",
		"-p=0.25",
		"-resolve=recompute",
		"-resume=true",
		"-scheme=CP",
		"-seed=99",
		"-stream-block-edges=1024",
		"-stream-dir=" + filepath.Join("/data/jobs/j000007", "shards"),
		"-workers=3",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rankArgs:\n got %q\nwant %q", got, want)
	}

	var parsed runcfg.Config
	fs := flag.NewFlagSet("pa-tcp", flag.ContinueOnError)
	parsed.Flags(fs)
	fs.Int("rank", 0, "")
	fs.String("addrs", "", "")
	fs.String("metrics", "", "")
	if err := fs.Parse(got); err != nil {
		t.Fatal(err)
	}
	parsed.Ranks = len(addrs)
	if wantCfg := job.config(true); parsed != wantCfg {
		t.Errorf("rank argv parses to %+v, want %+v", parsed, wantCfg)
	}

	// No -resume on a fresh attempt.
	for _, a := range rankArgs(job, addrs, 0, false) {
		if strings.HasPrefix(a, "-resume") {
			t.Error("fresh attempt carries -resume")
		}
	}
}

// TestInProcessRunnerEndToEnd runs a real generation through the queue
// with the in-process runner and verifies the streamed shards: the
// esink metadata pins the spec, and the decoded edge stream is
// identical to a direct core.Run of the same parameters — the service
// adds scheduling without touching the output. (The comparison is at
// the edge level, not raw shard bytes: checkpoint-epoch cut records
// are interleaved with the edge blocks at timing-dependent points, and
// the reader elides them.)
func TestInProcessRunnerEndToEnd(t *testing.T) {
	const (
		n     = 4000
		x     = 2
		seed  = 42
		ranks = 2
	)
	spec := Spec{N: n, X: x, Seed: seed, Ranks: ranks, Workers: 2, CheckpointEvery: 1000}
	q := newTestQueue(t, InProcessRunner{}, nil)
	j, err := q.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitState(t, q, j.ID, StateDone)

	// The attempt checkpointed (CheckpointEvery 1000 over 4000 nodes),
	// so its per-epoch pause/publish telemetry must have reached the
	// pool histograms, and the per-rank drops must be consumed.
	if m := q.Metrics(); m.CkptPause.Count == 0 || m.CkptWrite.Count == 0 {
		t.Errorf("queue checkpoint histograms empty after checkpointed job: pause=%d write=%d",
			m.CkptPause.Count, m.CkptWrite.Count)
	}
	for rank := 0; rank < ranks; rank++ {
		if _, err := os.Stat(rankMetricsFile(got.Dir, rank)); !os.IsNotExist(err) {
			t.Errorf("metrics drop for rank %d not consumed (err=%v)", rank, err)
		}
	}

	shardDir := filepath.Join(got.Dir, "shards")
	dr, err := esink.OpenDir(shardDir, ranks)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer dr.Close()
	meta := dr.Meta()
	if meta.N != n || meta.Seed != seed || meta.Ranks != ranks {
		t.Errorf("shard meta = %+v", meta)
	}

	// Reference: the same parameters straight through the engine,
	// without the service or checkpointing in the way.
	refDir := t.TempDir()
	part, err := partition.New(partition.KindRRP, n, ranks)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if _, err := core.Run(core.Options{
		Params:    model.Params{N: n, X: x, P: model.DefaultP},
		Part:      part,
		Seed:      seed,
		Workers:   2,
		StreamDir: refDir,
	}, false); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refReader, err := esink.OpenDir(refDir, ranks)
	if err != nil {
		t.Fatalf("OpenDir(ref): %v", err)
	}
	defer refReader.Close()
	if dr.Edges() != refReader.Edges() {
		t.Fatalf("edge counts differ: service %d, direct %d", dr.Edges(), refReader.Edges())
	}
	svcIt, refIt := dr.Iter(0), refReader.Iter(0)
	for i := int64(0); ; i++ {
		se, sok := svcIt.Next()
		re, rok := refIt.Next()
		if sok != rok {
			t.Fatalf("edge stream lengths diverge at %d", i)
		}
		if !sok {
			break
		}
		if se != re {
			t.Fatalf("edge %d differs: service %v, direct %v", i, se, re)
		}
	}
	if err := svcIt.Err(); err != nil {
		t.Fatalf("service iter: %v", err)
	}
	if err := refIt.Err(); err != nil {
		t.Fatalf("reference iter: %v", err)
	}
}

// TestInProcessRunnerBadSpecFields exercises the runner's own parsing
// (the queue normally validates first; a Runner must still fail cleanly
// on a spec it cannot execute).
func TestInProcessRunnerBadSpecFields(t *testing.T) {
	dir := t.TempDir()
	job := JobInfo{ID: "x", Dir: dir, Spec: Spec{N: 100, X: 2, P: 0.5, Ranks: 1, Workers: 1, Scheme: "nope", Resolve: "wire"}}
	if err := (InProcessRunner{}).Run(context.Background(), job, false); err == nil {
		t.Error("unknown scheme accepted")
	}
	job.Spec.Scheme = "RRP"
	job.Spec.Resolve = "nope"
	if err := (InProcessRunner{}).Run(context.Background(), job, false); err == nil {
		t.Error("unknown resolve mode accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job.Spec.Resolve = "wire"
	if err := (InProcessRunner{}).Run(ctx, job, false); err == nil {
		t.Error("cancelled ctx accepted")
	}
}
