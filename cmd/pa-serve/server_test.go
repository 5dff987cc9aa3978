package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"pagen/internal/core"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/jobqueue"
	"pagen/internal/model"
	"pagen/internal/partition"
)

// newTestServer wires a queue with the given runner into an httptest
// server.
func newTestServer(t *testing.T, runner jobqueue.Runner, mutate func(*jobqueue.Config)) *httptest.Server {
	t.Helper()
	cfg := jobqueue.Config{
		Root:        t.TempDir(),
		Slots:       4,
		QueueCap:    8,
		MaxRestarts: 2,
		Runner:      runner,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	q, err := jobqueue.New(cfg)
	if err != nil {
		t.Fatalf("jobqueue.New: %v", err)
	}
	t.Cleanup(q.Close)
	ts := httptest.NewServer(newServer(q))
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, v
}

func waitDone(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, j := doJSON(t, "GET", base+"/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("GET job: %d %v", code, j)
		}
		switch j["state"] {
		case "done":
			return j
		case "failed", "cancelled":
			t.Fatalf("job %s ended %s: %v", id, j["state"], j["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j["state"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeEndToEnd drives the full lifecycle over HTTP with a real
// in-process generation: submit, poll to done, check /metrics and
// /healthz, and verify the downloaded binary graph is byte-identical
// to the same shards framed directly — and that the raw shard
// endpoint serves the exact on-disk shard bytes.
func TestServeEndToEnd(t *testing.T) {
	ts := newTestServer(t, jobqueue.InProcessRunner{}, nil)

	code, j := doJSON(t, "POST", ts.URL+"/jobs",
		`{"n": 3000, "x": 2, "seed": 7, "ranks": 2, "workers": 2, "checkpoint_every": 1000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, j)
	}
	id := j["id"].(string)
	if j["state"] != "queued" && j["state"] != "running" {
		t.Errorf("fresh job state = %v", j["state"])
	}
	done := waitDone(t, ts.URL, id)
	dir := done["dir"].(string)

	// Reference framing of the job's own shards.
	dr, err := esink.OpenDir(dir+"/shards", 2)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer dr.Close()
	var want bytes.Buffer
	if err := graph.WriteBinaryStream(&want, dr.Meta().N, dr.Edges(), dr.Iter(0)); err != nil {
		t.Fatalf("reference framing: %v", err)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/download")
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("download: %d %v", resp.StatusCode, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("download differs from direct framing: %d vs %d bytes", len(got), want.Len())
	}

	// And the same bytes again as a cross-check against a direct
	// engine run of the same spec — the service changed nothing.
	refDir := t.TempDir()
	part, _ := partition.New(partition.KindRRP, 3000, 2)
	if _, err := core.Run(core.Options{
		Params: model.Params{N: 3000, X: 2, P: model.DefaultP}, Part: part,
		Seed: 7, Workers: 2, StreamDir: refDir,
	}, false); err != nil {
		t.Fatalf("direct run: %v", err)
	}
	refRd, err := esink.OpenDir(refDir, 2)
	if err != nil {
		t.Fatalf("OpenDir(ref): %v", err)
	}
	defer refRd.Close()
	var ref bytes.Buffer
	if err := graph.WriteBinaryStream(&ref, refRd.Meta().N, refRd.Edges(), refRd.Iter(0)); err != nil {
		t.Fatalf("ref framing: %v", err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("download differs from direct engine run: %d vs %d bytes", len(got), ref.Len())
	}

	// Raw shard endpoint returns a parseable shard.
	resp, err = http.Get(ts.URL + "/jobs/" + id + "/shards/1")
	if err != nil {
		t.Fatalf("shard: %v", err)
	}
	shardBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(shardBytes) == 0 {
		t.Fatalf("shard: %d, %d bytes", resp.StatusCode, len(shardBytes))
	}

	// /metrics reconciles; /healthz reports the idle pool.
	code, m := doJSON(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK || m["completed"].(float64) != 1 || m["submitted"].(float64) != 1 {
		t.Errorf("metrics: %d %v", code, m)
	}
	code, h := doJSON(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || h["status"] != "ok" || h["slots_free"].(float64) != 4 {
		t.Errorf("healthz: %d %v", code, h)
	}

	// Listing includes the job.
	code, l := doJSON(t, "GET", ts.URL+"/jobs", "")
	if code != http.StatusOK || len(l["jobs"].([]any)) != 1 {
		t.Errorf("list: %d %v", code, l)
	}
}

// corruptFirstBlock sets every bit of the first stored value in the first
// block of the shard at path — a value past n, since n is not a power of
// two — and re-seals the block's CRC-32C, so the damage passes every
// checksum OpenDir verifies and only surfaces when the merge decodes the
// payload (docs/SHARD_FORMAT.md is the layout).
func corruptFirstBlock(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(esink.Magic)
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			t.Fatalf("bad uvarint at offset %d of %s", off, path)
		}
		off += n
		return v
	}
	uvarint() // version
	n := int64(uvarint())
	uvarint()                 // x
	off += 16                 // p, seed
	uvarint()                 // rank
	uvarint()                 // ranks
	off += int(uvarint()) + 4 // scheme name, header CRC
	block := off
	if b[off] != 'B' {
		t.Fatalf("no block marker at offset %d of %s", off, path)
	}
	off++
	uvarint() // sequence
	uvarint() // first key
	count, explicit, exceptions := uvarint(), uvarint(), uvarint()
	w := uint64(esink.ValueBits(n))
	end := off + int((explicit*w+7)/8) + int((exceptions*(uint64(esink.ValueBits(int64(count)))+w)+7)/8)
	if explicit == 0 {
		t.Fatalf("the first block of %s stores no value", path)
	}
	if n&(n-1) == 0 {
		t.Fatalf("n = %d is a power of two: every %d-bit value lies below it", n, w)
	}
	for bit := uint64(0); bit < w; bit++ { // the first stored value: all ones
		b[off+int(bit/8)] |= 1 << (bit % 8)
	}
	binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[block:end], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServeDownloadFailureIsVisible: a shard that goes bad after the
// job finished must not download as a complete graph. The damage here
// is CRC-clean, so it is found only after the 200 status line is out;
// the server then has to break the transfer instead of ending the body
// cleanly. The raw shard endpoint keeps serving the file as it is.
func TestServeDownloadFailureIsVisible(t *testing.T) {
	ts := newTestServer(t, jobqueue.InProcessRunner{}, nil)
	code, j := doJSON(t, "POST", ts.URL+"/jobs", `{"n": 3000, "x": 2, "seed": 7, "ranks": 2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, j)
	}
	id := j["id"].(string)
	dir := waitDone(t, ts.URL, id)["dir"].(string)
	shard := esink.ShardPath(dir+"/shards", 1, 2)
	corruptFirstBlock(t, shard)

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/download")
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			t.Fatal("download of a job with a corrupt shard completed successfully")
		}
	}

	want, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/jobs/" + id + "/shards/1")
	if err != nil {
		t.Fatalf("shard: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("raw shard endpoint: status %d, err %v, %d bytes (file has %d)", resp.StatusCode, err, len(got), len(want))
	}
}

// stuckRunner parks until its context is cancelled.
type stuckRunner struct{}

func (stuckRunner) Run(ctx context.Context, _ jobqueue.JobInfo, _ bool) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestServeErrorContract pins the HTTP status for every documented
// error class (docs/API.md "Error codes").
func TestServeErrorContract(t *testing.T) {
	ts := newTestServer(t, stuckRunner{}, func(c *jobqueue.Config) {
		c.Slots = 1
		c.QueueCap = 1
	})

	// 400: invalid spec and malformed JSON.
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", `{"n": 1, "x": 5}`); code != http.StatusBadRequest {
		t.Errorf("bad spec: %d, want 400", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", `{"n": `); code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", `{"n": 100, "x": 2, "bogus": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", code)
	}
	// Every job streams, so its snapshots carry no table to delta: the
	// spec field that chose the delta cadence is gone, not ignored.
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", `{"n": 100, "x": 2, "checkpoint_full_every": 4}`); code != http.StatusBadRequest {
		t.Errorf("retired checkpoint_full_every: %d, want 400", code)
	}
	// The recompute depth cap is derived from n (2·log₂ n), not
	// configured: the spec field that set it is gone, not ignored.
	if code, _ := doJSON(t, "POST", ts.URL+"/jobs", `{"n": 100, "x": 2, "resolve": "recompute", "recompute_depth": 9}`); code != http.StatusBadRequest {
		t.Errorf("retired recompute_depth: %d, want 400", code)
	}

	// Fill the pool (job runs forever) and the queue.
	code, j1 := doJSON(t, "POST", ts.URL+"/jobs", `{"n": 100, "x": 2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: %d", code)
	}
	running := j1["id"].(string)
	// Wait until it occupies the slot so the next submit queues.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, j := doJSON(t, "GET", ts.URL+"/jobs/"+running, "")
		if j["state"] == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ = doJSON(t, "POST", ts.URL+"/jobs", `{"n": 100, "x": 2}`); code != http.StatusAccepted {
		t.Fatalf("submit 2: %d", code)
	}

	// 429: queue full.
	if code, _ = doJSON(t, "POST", ts.URL+"/jobs", `{"n": 100, "x": 2}`); code != http.StatusTooManyRequests {
		t.Errorf("queue full: %d, want 429", code)
	}

	// 404: unknown job, and shard rank out of range.
	if code, _ = doJSON(t, "GET", ts.URL+"/jobs/j999999", ""); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if code, _ = doJSON(t, "DELETE", ts.URL+"/jobs/j999999", ""); code != http.StatusNotFound {
		t.Errorf("cancel unknown: %d, want 404", code)
	}

	// 409: download before done, preempt a non-running job, cancel a
	// finished job.
	if code, _ = doJSON(t, "GET", ts.URL+"/jobs/"+running+"/download", ""); code != http.StatusConflict {
		t.Errorf("early download: %d, want 409", code)
	}
	if code, _ = doJSON(t, "POST", ts.URL+"/jobs/"+running+"/preempt", ""); code != http.StatusOK {
		t.Errorf("preempt running: %d, want 200", code)
	}
	// The preempted job left the pool; it re-queues. Cancel it for good.
	if code, _ = doJSON(t, "POST", ts.URL+"/jobs/"+running+"/cancel", ""); code != http.StatusOK {
		t.Errorf("cancel: %d, want 200", code)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, j := doJSON(t, "GET", ts.URL+"/jobs/"+running, "")
		if j["state"] == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never landed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ = doJSON(t, "POST", ts.URL+"/jobs/"+running+"/cancel", ""); code != http.StatusConflict {
		t.Errorf("cancel finished: %d, want 409", code)
	}
	if code, _ = doJSON(t, "POST", ts.URL+"/jobs/"+running+"/preempt", ""); code != http.StatusConflict {
		t.Errorf("preempt finished: %d, want 409", code)
	}

	// Metrics reflect the rejection.
	_, m := doJSON(t, "GET", ts.URL+"/metrics", "")
	if m["rejected"].(float64) != 1 {
		t.Errorf("rejected = %v, want 1", m["rejected"])
	}
}

// crashOnceRunner fails its first attempt per job, then parks a moment
// and succeeds — enough for the API to surface restart accounting.
type crashOnceRunner struct {
	seen map[string]bool
}

func (r *crashOnceRunner) Run(ctx context.Context, job jobqueue.JobInfo, resume bool) error {
	if !r.seen[job.ID] {
		r.seen[job.ID] = true
		return errors.New("rank 0: simulated crash")
	}
	if !resume {
		return fmt.Errorf("respawn of %s did not resume", job.ID)
	}
	return nil
}

func TestServeCrashRespawnVisible(t *testing.T) {
	ts := newTestServer(t, &crashOnceRunner{seen: map[string]bool{}}, func(c *jobqueue.Config) {
		c.Slots = 1 // one job at a time: the runner's map is unsynchronized
	})
	code, j := doJSON(t, "POST", ts.URL+"/jobs", `{"n": 100, "x": 2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitDone(t, ts.URL, j["id"].(string))
	if done["restarts"].(float64) != 1 || done["attempts"].(float64) != 2 {
		t.Errorf("restarts/attempts = %v/%v, want 1/2", done["restarts"], done["attempts"])
	}
	_, m := doJSON(t, "GET", ts.URL+"/metrics", "")
	if m["restarts"].(float64) != 1 || m["failed"].(float64) != 0 {
		t.Errorf("metrics: %v", m)
	}
}
