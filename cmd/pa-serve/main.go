// Command pa-serve is the generation-as-a-service control plane: a
// long-lived daemon exposing the preferential-attachment generator
// through an HTTP/JSON job API (docs/API.md). Clients submit
// parameterizations (n, x, p, seed, scheme, ranks, workers, resolve,
// hub-prefix), poll status, list, cancel or preempt jobs, and download
// a finished job's edges — either the merged binary graph streamed
// from its shards or the raw per-rank shard files.
//
// Jobs are scheduled by internal/jobqueue onto an elastic pool of rank
// slots strictly FIFO: a job that does not fit yet holds every younger
// job behind it, so it waits at most for the jobs admitted ahead of it
// to drain (DESIGN.md §14).
// Every job owns a directory under -data-dir with its checkpoint
// epochs and streamed shards, so jobs survive rank crashes (the queue
// relaunches the job's cluster with -resume; this is the one
// single-host supervisor) and operator preemption (the job resumes
// later, every rank from its own newest epoch, with byte-identical final
// output). A job spec is a run's Config (internal/runcfg): the
// settings pagen and pa-tcp take as flags, as JSON keys.
//
// Flags:
//
//	-listen        HTTP listen address (default 127.0.0.1:8080)
//	-data-dir      root for per-job directories (default pa-serve-data)
//	-slots         rank-process capacity of the pool (default 8)
//	-queue-cap     max jobs waiting for admission; Submit past it gets
//	               429 (default 64)
//	-max-restarts  crash respawns per job before it fails (default 3)
//	-runner        job executor: "process" spawns pa-tcp rank processes,
//	               "inprocess" runs ranks as goroutines over the
//	               shared-memory transport (default process)
//	-pa-tcp        pa-tcp binary for -runner=process (default: found in
//	               PATH)
//	-port-base     first TCP port for rank meshes (default 42000)
//	-port-span     size of the rank-mesh port range; must be >= -slots
//	               (default 128)
//
// Operations guidance (capacity planning, deployment, troubleshooting)
// is in docs/OPERATIONS.md §9.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"

	"pagen/internal/jobqueue"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		dataDir     = flag.String("data-dir", "pa-serve-data", "root directory for per-job state")
		slots       = flag.Int("slots", 8, "rank-process capacity of the pool")
		queueCap    = flag.Int("queue-cap", 64, "max jobs waiting for admission")
		maxRestarts = flag.Int("max-restarts", 3, "crash respawns per job before it fails")
		runnerKind  = flag.String("runner", "process", "job executor: process | inprocess")
		paTCP       = flag.String("pa-tcp", "pa-tcp", "pa-tcp binary (for -runner=process)")
		portBase    = flag.Int("port-base", 42000, "first TCP port for rank meshes")
		portSpan    = flag.Int("port-span", 128, "size of the rank-mesh port range")
	)
	flag.Parse()

	var runner jobqueue.Runner
	switch *runnerKind {
	case "process":
		bin, err := exec.LookPath(*paTCP)
		if err != nil {
			log.Fatalf("pa-serve: -runner=process needs the pa-tcp binary: %v", err)
		}
		if *portSpan < *slots {
			log.Fatalf("pa-serve: -port-span %d < -slots %d: concurrent ranks would collide", *portSpan, *slots)
		}
		runner = &jobqueue.ProcessRunner{
			Binary: bin,
			Ports:  jobqueue.NewPortAlloc("127.0.0.1", *portBase, *portSpan),
		}
	case "inprocess":
		runner = jobqueue.InProcessRunner{}
	default:
		log.Fatalf("pa-serve: unknown -runner %q (want process or inprocess)", *runnerKind)
	}

	q, err := jobqueue.New(jobqueue.Config{
		Root:        *dataDir,
		Slots:       *slots,
		QueueCap:    *queueCap,
		MaxRestarts: *maxRestarts,
		Runner:      runner,
	})
	if err != nil {
		log.Fatalf("pa-serve: %v", err)
	}

	srv := &http.Server{Addr: *listen, Handler: newServer(q)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("pa-serve: listening on %s (%d slots, %s runner, data in %s)",
		*listen, *slots, *runnerKind, *dataDir)

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting, let in-flight requests
		// finish, then checkpoint the running jobs off the pool. Their
		// directories keep everything a restarted daemon needs.
		log.Print("pa-serve: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("pa-serve: http shutdown: %v", err)
		}
		q.Close()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			q.Close()
			log.Fatalf("pa-serve: %v", err)
		}
	}
	fmt.Println("pa-serve: stopped")
}
