// Distributed-memory demo: spawns pa-tcp worker processes — one OS
// process per rank, exactly like MPI ranks in the paper — connected over
// localhost TCP, each writing its own esink shard into one directory,
// then merges the shards with pagen.ReadStreamDir and validates the
// result.
//
//	go run ./examples/distributed
//
// The same worker binary runs across real machines by listing each
// host's address in -addrs.
package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"pagen"
	"pagen/internal/stats"
)

const (
	ranks = 3
	n     = 50_000
	x     = 4
)

func main() {
	workDir, err := os.MkdirTemp("", "pagen-distributed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(workDir)

	// Build the worker binary.
	worker := filepath.Join(workDir, "pa-tcp")
	build := exec.Command("go", "build", "-o", worker, "pagen/cmd/pa-tcp")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		log.Fatal("building pa-tcp: ", err)
	}

	addrs := make([]string, ranks)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", 42800+i)
	}
	addrList := strings.Join(addrs, ",")

	fmt.Printf("spawning %d worker processes (n=%d, x=%d, RRP partitioning)...\n", ranks, n, x)
	shardDir := filepath.Join(workDir, "shards")
	// Every rank runs the same Config; Args writes it as the flags
	// pa-tcp shares with pagen, so the command line cannot drift from
	// the flag names.
	cfg := pagen.Config{N: n, X: x, Seed: 17, StreamDir: shardDir}
	procs := make([]*exec.Cmd, ranks)
	for r := 0; r < ranks; r++ {
		args := append([]string{"-rank", fmt.Sprint(r), "-addrs", addrList, "-stats"}, cfg.Args()...)
		procs[r] = exec.Command(worker, args...)
		procs[r].Stderr = os.Stderr
		if err := procs[r].Start(); err != nil {
			log.Fatal(err)
		}
	}
	for r, p := range procs {
		if err := p.Wait(); err != nil {
			log.Fatalf("rank %d failed: %v", r, err)
		}
	}

	// Merge the shards into one graph, in the order an in-process run
	// of the same configuration produces.
	g, err := pagen.ReadStreamDir(shardDir, ranks)
	if err != nil {
		log.Fatal(err)
	}

	wantM := int64(x*(x-1)/2 + (n-x)*x)
	fmt.Printf("merged graph: %d edges (expected %d)\n", g.M(), wantM)
	if g.M() != wantM {
		log.Fatal("edge count mismatch")
	}
	if err := g.Validate(); err != nil {
		log.Fatal("validation failed: ", err)
	}
	fit, err := stats.PowerLawMLE(g.Degrees(), int64(2*x))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validated: no self-loops, no parallel edges; gamma = %.2f\n", fit.Gamma)
	fmt.Println("distributed-memory generation across OS processes succeeded.")
}
