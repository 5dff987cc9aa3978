package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"pagen"
	"pagen/internal/core"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/partition"
	"pagen/internal/transport"
)

// A rung is one generator configuration of the cost ladder: the base
// configuration (one rank, one worker, every other field zero so that a
// changed default moves the number) with the one option the rung names.
type rung struct {
	name string
	// tcp runs the ranks as goroutines on loopback TCP endpoints through
	// core.RunRank instead of pagen.Generate's in-process transports.
	tcp bool
	set func(c *pagen.Config, dir string)
}

func twoRanks(c *pagen.Config, _ string) { c.Ranks = 2 }

func streamed(c *pagen.Config, dir string) {
	c.Ranks = 2
	c.StreamDir = filepath.Join(dir, "shards")
}

// checkpointed sizes the cadence from n so a repetition commits about
// eight epochs (rank 0's progress metric ends near 1.45 n at two
// ranks), which with a full snapshot every fourth epoch exercises both
// full and delta epochs.
func checkpointed(c *pagen.Config, dir string) {
	streamed(c, dir)
	c.CheckpointDir = filepath.Join(dir, "ckpt")
	c.CheckpointEvery = c.N * 3 / 20
	c.CheckpointFullEvery = 4
}

// ladder lists the rungs above L0 (the sequential kernel) in order; each
// changes one option relative to the rung it is compared with.
var ladder = []rung{
	{name: "L1_1x1", set: func(*pagen.Config, string) {}},
	{name: "L2_workers2", set: func(c *pagen.Config, _ string) { c.Workers = 2 }},
	{name: "L3_shm2", set: twoRanks},
	{name: "L3_recompute", set: func(c *pagen.Config, _ string) { c.Ranks = 2; c.Resolve = "recompute" }},
	{name: "L3_hub_off", set: func(c *pagen.Config, _ string) { c.Ranks = 2; c.HubPrefix = -1 }},
	{name: "L4_local_codec", set: func(c *pagen.Config, _ string) { c.Ranks = 2; c.Transport = "local" }},
	{name: "L5_tcp", tcp: true, set: twoRanks},
	{name: "L5_tcp_recompute", tcp: true, set: func(c *pagen.Config, _ string) { c.Ranks = 2; c.Resolve = "recompute" }},
	{name: "L6_esink", set: streamed},
	{name: "L7_ckpt", set: checkpointed},
}

func rungNamed(name string) rung {
	for _, r := range ladder {
		if r.name == name {
			return r
		}
	}
	panic("no ladder rung " + name)
}

// A workload is a ladder rung carried through to a durable graph file.
type workload struct {
	name string
	rung rung
}

var workloads = []workload{
	{"mem-1x1", rungNamed("L1_1x1")},
	{"shm-2x1", rungNamed("L3_shm2")},
	{"tcp-2x1", rungNamed("L5_tcp")},
	{"stream-ckpt-2x1", rungNamed("L7_ckpt")},
}

// genOut is what a generation call hands back. Exactly one of graph,
// shards and streamDir holds the edges.
type genOut struct {
	graph     *graph.Graph
	shards    [][]graph.Edge // per-rank edges not yet merged (TCP ranks)
	streamDir string         // esink shard directory
	ranks     []core.RankStats
	elapsed   time.Duration // the parallel section: core.Result.Elapsed
}

func (r rung) config(in input, dir string) pagen.Config {
	c := pagen.Config{N: in.pr.N, X: in.pr.X, P: in.pr.P, Seed: in.seed, Ranks: 1, Workers: 1}
	r.set(&c, dir)
	return c
}

func (r rung) generate(in input, dir string) (*genOut, error) {
	c := r.config(in, dir)
	if r.tcp {
		return generateTCP(in, c)
	}
	res, err := pagen.Generate(c)
	if err != nil {
		return nil, err
	}
	return &genOut{graph: res.Graph, streamDir: c.StreamDir, ranks: res.Ranks, elapsed: res.Elapsed}, nil
}

// fingerprint hashes the generated edges wherever the rung left them.
func (o *genOut) fingerprint() (fingerprint, error) {
	switch {
	case o.graph != nil:
		return fingerprintEdges(o.graph.Edges), nil
	case o.shards != nil:
		return fingerprintEdges(o.shards...), nil
	}
	d, err := esink.OpenDir(o.streamDir, len(o.ranks))
	if err != nil {
		return fingerprint{}, err
	}
	defer d.Close()
	return fingerprintIter(d.Iter(0))
}

// generateTCP is the distributed-memory configuration inside one
// process: every rank is a goroutine with its own loopback endpoint, so
// each batch crosses the wire codec and a framed socket. Ports come from
// binding :0; a port lost between that probe and the rank's own listen
// is retried with fresh ports.
func generateTCP(in input, c pagen.Config) (*genOut, error) {
	part, err := partition.New(partition.KindRRP, c.N, c.Ranks)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Params: in.pr, Part: part, Seed: c.Seed, Workers: c.Workers}
	if c.Resolve != "" {
		if opts.Resolve, err = core.ParseResolveMode(c.Resolve); err != nil {
			return nil, err
		}
	}
	for attempt := 0; ; attempt++ {
		addrs, err := loopbackAddrs(c.Ranks)
		if err != nil {
			return nil, err
		}
		out, err := runTCPRanks(opts, addrs)
		if err == nil || attempt == 2 || !errors.Is(err, syscall.EADDRINUSE) {
			return out, err
		}
	}
}

func loopbackAddrs(p int) ([]string, error) {
	addrs := make([]string, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		// Closed only after every address is chosen, so two ranks never
		// draw the same port.
		defer ln.Close()
	}
	return addrs, nil
}

func runTCPRanks(opts core.Options, addrs []string) (*genOut, error) {
	p := len(addrs)
	results := make([]*core.RankResult, p)
	walls := make([]time.Duration, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := transport.NewTCP(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			start := time.Now()
			results[r], errs[r] = core.RunRank(tr, opts)
			walls[r] = time.Since(start)
			if err := tr.Close(); err != nil && errs[r] == nil {
				errs[r] = err
			}
		}(r)
	}
	wg.Wait()
	out := &genOut{shards: make([][]graph.Edge, p), ranks: make([]core.RankStats, p)}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tcp rank %d: %w", r, err)
		}
		out.shards[r] = results[r].Edges
		out.ranks[r] = results[r].Stats
		// The ranks start together once the mesh is up, so the slowest
		// rank's run is the parallel section.
		out.elapsed = max(out.elapsed, walls[r])
	}
	return out, nil
}

// repOut describes one finished repetition.
type repOut struct {
	path    string // the durable graph file
	ranks   []core.RankStats
	elapsed time.Duration // genOut.elapsed
	genWall time.Duration // the whole generation call
}

// runRep carries one repetition from the first call into the library to
// a graph file that is fsynced and closed, leaving every file under dir.
// tr may be nil.
func runRep(in input, r rung, dir string, tr *tracer) (*repOut, error) {
	var out *genOut
	genStart := time.Now()
	err := tr.in("core.run", func() (err error) {
		out, err = r.generate(in, dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &repOut{
		path:    filepath.Join(dir, "graph.bin"),
		ranks:   out.ranks,
		elapsed: out.elapsed,
		genWall: time.Since(genStart),
	}
	g := out.graph
	if out.shards != nil {
		tr.in("graph.merge", func() error {
			g = graph.Merge(in.pr.N, out.shards...)
			return nil
		})
	}
	f, err := os.Create(rep.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if out.streamDir != "" {
		// The pa-serve download path: merge the shards back in canonical
		// order and frame them as a binary graph.
		var d *esink.DirReader
		err = tr.in("esink.open", func() (err error) {
			d, err = esink.OpenDir(out.streamDir, len(out.ranks))
			return err
		})
		if err != nil {
			return nil, err
		}
		defer d.Close()
		err = tr.in("graph.write", func() error {
			return graph.WriteBinaryStream(f, d.Meta().N, d.Edges(), d.Iter(0))
		})
	} else {
		err = tr.in("graph.write", func() error { return graph.WriteBinary(f, g) })
	}
	if err != nil {
		return nil, err
	}
	err = tr.in("fsync", func() error {
		if err := f.Sync(); err != nil {
			return err
		}
		return f.Close()
	})
	return rep, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return err
	})
	return total, err
}
