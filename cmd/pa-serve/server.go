package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strconv"

	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/jobqueue"
)

// server routes the HTTP/JSON API of docs/API.md onto a jobqueue.
// Route literals below are audited against docs/API.md by
// scripts/check_flags.sh, so every served endpoint stays documented.
type server struct {
	q *jobqueue.Queue
}

// newServer builds the API handler for q.
func newServer(q *jobqueue.Queue) http.Handler {
	s := &server{q: q}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("POST /jobs", s.submit)
	mux.HandleFunc("GET /jobs", s.list)
	mux.HandleFunc("GET /jobs/{id}", s.get)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.cancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.cancel)
	mux.HandleFunc("POST /jobs/{id}/preempt", s.preempt)
	mux.HandleFunc("GET /jobs/{id}/download", s.download)
	mux.HandleFunc("GET /jobs/{id}/shards/{rank}", s.shard)
	return mux
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps a queue error onto the API's error contract
// (docs/API.md "Error codes"): a JSON {"error": ...} body with 400 for
// invalid specs, 429 queue full, 404 unknown job, 409 for operations
// the job's state forbids, 503 when shutting down.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, jobqueue.ErrBadSpec):
		status = http.StatusBadRequest
	case errors.Is(err, jobqueue.ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, jobqueue.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, jobqueue.ErrFinished), errors.Is(err, jobqueue.ErrNotRunning):
		status = http.StatusConflict
	case errors.Is(err, jobqueue.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	m := s.q.Metrics()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"slots_total": m.SlotsTotal,
		"slots_free":  m.SlotsFree,
	})
}

func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.q.Metrics())
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var spec jobqueue.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, fmt.Errorf("%w: bad JSON body: %v", jobqueue.ErrBadSpec, err))
		return
	}
	job, err := s.q.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.q.List()})
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	job, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.q.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *server) preempt(w http.ResponseWriter, r *http.Request) {
	job, err := s.q.Preempt(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// finishedJob fetches a job and enforces the download precondition:
// shards are only complete — and only byte-stable — once the job is
// done.
func (s *server) finishedJob(w http.ResponseWriter, id string) (jobqueue.Job, bool) {
	job, err := s.q.Get(id)
	if err != nil {
		writeErr(w, err)
		return jobqueue.Job{}, false
	}
	if job.State != jobqueue.StateDone {
		writeErr(w, fmt.Errorf("%w: job %s is %s, downloads need state done",
			jobqueue.ErrNotRunning, job.ID, job.State))
		return jobqueue.Job{}, false
	}
	return job, true
}

// download streams the job's merged edge list in the pagen binary
// graph format: the esink DirReader merges the per-rank shards in
// canonical order and graph.WriteBinaryStream frames them, so the body
// is byte-identical to `pagen -format binary` with the same
// parameters.
func (s *server) download(w http.ResponseWriter, r *http.Request) {
	job, ok := s.finishedJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	dr, err := esink.OpenDir(filepath.Join(job.Dir, "shards"), job.Spec.Ranks)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer dr.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s.pag", job.ID))
	if err := graph.WriteBinaryStream(w, dr.Meta().N, dr.Edges(), dr.Iter(0)); err != nil {
		// The status is out; only a broken transfer can still say so.
		log.Printf("pa-serve: job %s: download: %v", job.ID, err)
		panic(http.ErrAbortHandler)
	}
}

// shard serves one raw per-rank shard file (docs/SHARD_FORMAT.md) for
// clients that want the partitioned output without merging.
func (s *server) shard(w http.ResponseWriter, r *http.Request) {
	job, ok := s.finishedJob(w, r.PathValue("id"))
	if !ok {
		return
	}
	rank, err := strconv.Atoi(r.PathValue("rank"))
	if err != nil || rank < 0 || rank >= job.Spec.Ranks {
		writeErr(w, fmt.Errorf("%w: rank %q outside [0,%d)",
			jobqueue.ErrNotFound, r.PathValue("rank"), job.Spec.Ranks))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, esink.ShardPath(filepath.Join(job.Dir, "shards"), rank, job.Spec.Ranks))
}
