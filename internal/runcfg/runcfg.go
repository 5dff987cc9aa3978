// Package runcfg is the one description of a generation run. Its
// Config is pagen.Config (an alias) and, as the defined type
// jobqueue.Spec, the body of a pa-serve job. Every surface reads a run
// from it:
//
//   - Validate fills the defaults in and refuses what no rank could run;
//   - Options is the only translation of a Config into core.Options
//     (pagen.Generate, pagen.GenerateStream, pa-tcp and the queue's
//     in-process runner);
//   - Flags registers the settings pagen and pa-tcp share, and Args
//     serialises a Config back into those flags (the argv the queue's
//     process runner gives each pa-tcp rank);
//   - the JSON tags name a job spec's keys; a field tagged "-" is not
//     part of a spec, and its key is refused as unknown;
//   - Metrics is the header every exported metrics record starts from.
//
// The graph is a pure function of N, X, P, Seed and the Ranks/Scheme
// partition (DESIGN.md §8.1); every other field changes how it is made,
// never what is made.
package runcfg

import (
	"errors"
	"flag"
	"fmt"
	"strconv"

	"pagen/internal/core"
	"pagen/internal/esink"
	"pagen/internal/model"
	"pagen/internal/obs"
	"pagen/internal/partition"
)

// Config describes one run. The zero value of every field but N and X
// selects a documented default.
type Config struct {
	// N is the number of nodes (required, > X).
	N int64 `json:"n"`
	// X is the number of edges each new node attaches with (>= 1).
	X int `json:"x"`
	// P is the direct-attachment probability; 0 means model.DefaultP
	// (0.5, exact Barabási–Albert), so p = 0 itself cannot be asked for.
	// Other values tune the power-law exponent.
	P float64 `json:"p,omitempty"`
	// Seed makes runs reproducible; x = 1 outputs are identical across
	// any Ranks/Scheme combination for a fixed seed.
	Seed uint64 `json:"seed"`
	// Scheme is the node-partitioning scheme: "RRP" (default), "LCP",
	// "UCP" or "ExactCP".
	Scheme string `json:"scheme,omitempty"`
	// Ranks is the number of parallel processors (default 1): goroutines
	// in-process, pa-tcp processes (the length of -addrs) otherwise.
	Ranks int `json:"ranks,omitempty"`
	// Workers is the width of each rank's batch-kernel parallel-for:
	// the rank's own goroutine plus Workers-1 helpers draw and gather
	// each window of nodes, and the rank's goroutine alone commits it.
	// Zero or negative selects runtime.GOMAXPROCS(0); the engine clamps
	// it to what the rank's node count can keep busy. Output is
	// byte-identical across worker counts.
	Workers int `json:"workers,omitempty"`
	// Resolve selects how non-local copy dependencies are answered:
	// "wire" (the default; the paper's request/resolved message round
	// trip) or "recompute" (replay the owning node's attempts locally
	// — no data messages — falling back to the wire past a chain of
	// ~2*log2(N) nodes, twice Theorem 3.3's O(log n) depth bound). Output
	// is byte-identical in both modes.
	Resolve string `json:"resolve,omitempty"`
	// HubPrefix controls the hub-prefix replica: every rank computes the
	// first H nodes' attachments itself before it generates, and answers
	// copy queries for them locally instead of with a cross-rank round
	// trip. 0 (the default) sizes H automatically to cover a fixed
	// fraction of the expected request mass; a negative value disables
	// the replica; a positive value fixes H. Output is byte-identical for
	// every setting, and the setting is each rank's own.
	HubPrefix int64 `json:"hub_prefix,omitempty"`
	// CheckpointEvery is the approximate number of protocol events
	// between a rank's checkpoint epochs, counted by each rank for
	// itself: the nodes it initiated plus the data messages it
	// received. Every rank cuts at its own trigger. Zero with a
	// CheckpointDir set means snapshots are only read (resume), never
	// written.
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// StreamBlockEdges is the number of edge records per shard block: the
	// unit a rank flushes, CRC-protects and a reader decodes on its own
	// (0 selects the default, 65536). The open block is the writer's
	// only buffer — w = bits.Len64(N−1) bits a record
	// (esink.BufferBytes), 160 KiB per rank at N = 10⁶. Only meaningful
	// with StreamDir.
	StreamBlockEdges int `json:"stream_block_edges,omitempty"`

	// Transport selects how co-located ranks exchange message batches:
	// "shm" (the default; batches move between rank goroutines by
	// reference, no per-message serialization) or "local" (every batch
	// round-trips through the wire codec — the serialization ablation).
	// Output is byte-identical across transports. pa-tcp ranks always
	// talk TCP.
	Transport string `json:"-"`
	// RecordTrace collects the attachment-decision trace in the result
	// (costs ~13 bytes per edge).
	RecordTrace bool `json:"-"`
	// CollectNodeLoad counts copy-resolution queries by the target
	// node's bin (the empirical M_k of Lemma 3.4) in Result.NodeLoad, so
	// Metrics can export the measured-versus-predicted load curve. Costs
	// one bin lookup and increment per copy query.
	CollectNodeLoad bool `json:"-"`
	// CheckpointDir enables rank-local checkpointing: every rank, at its
	// own epochs, writes a small versioned, CRC-protected snapshot into
	// this directory. A snapshot names the durable prefix of the rank's
	// shard file and carries no table or engine state, so a
	// checkpointed run always streams: without a StreamDir it
	// writes its shards under CheckpointDir/shards and Result.Graph is
	// read back from them, byte-identical to an uncheckpointed run's.
	// Restarting from a checkpoint (Resume) reproduces the exact graph
	// an uninterrupted run would have produced. See
	// docs/CHECKPOINT_FORMAT.md and docs/OPERATIONS.md. Incompatible
	// with RecordTrace, CollectNodeLoad and GenerateStream.
	CheckpointDir string `json:"-"`
	// CheckpointKeep is how many snapshots to retain per rank (older
	// ones are pruned after each publish; 0 = keep 2).
	CheckpointKeep int `json:"-"`
	// CheckpointFullEvery has no effect: every snapshot is one kind, a
	// shard mark with no table to take deltas of. It is kept for callers
	// that still set it.
	CheckpointFullEvery int `json:"-"`
	// Resume makes every rank load its own newest restorable snapshot
	// from CheckpointDir before generating, keeping the shard prefix
	// it marks and regenerating everything above it. A rank with no
	// usable snapshot starts fresh, whatever the other ranks resume
	// from.
	Resume bool `json:"-"`
	// StreamDir enables the external-memory edge sink: each rank spills
	// its resolved edges into a compressed per-rank shard file under this
	// directory (docs/SHARD_FORMAT.md) instead of materialising the edge
	// list, so resident memory stays bounded regardless of N.
	// Result.Graph is nil; read the output back with pagen.ReadStreamDir
	// or stream it with cmd/pa-analyze -stream-dir. Composes with
	// CheckpointDir: a killed run resumes without duplicating or dropping
	// edges, and the merged shards stay byte-identical to an
	// uninterrupted run.
	StreamDir string `json:"-"`
}

// Params returns the copy-model parameters of c, P defaulted, and
// whether the model accepts them.
func (c Config) Params() (model.Params, error) {
	p := c.P
	if p == 0 {
		p = model.DefaultP
	}
	pr := model.Params{N: c.N, X: c.X, P: p}
	return pr, pr.Validate()
}

// Checkpointed reports whether c asks for checkpointing: a directory,
// a cadence or a resume.
func (c Config) Checkpointed() bool {
	return c.CheckpointDir != "" || c.CheckpointEvery != 0 || c.Resume
}

// Validate returns c with its defaults filled in — P, Scheme, Ranks
// and Resolve, the values a metrics record or a stored job spec shows —
// or the first reason no rank could run it. It builds nothing of size
// Ranks, so a caller may bound Ranks afterwards.
func (c Config) Validate() (Config, error) {
	pr, err := c.Params()
	if err != nil {
		return c, err
	}
	c.P = pr.P
	if c.Scheme == "" {
		c.Scheme = partition.KindRRP.String()
	}
	if c.Ranks == 0 {
		c.Ranks = 1
	}
	if c.Resolve == "" {
		c.Resolve = core.ResolveWire.String()
	}
	switch {
	case c.N > core.MaxN:
		return c, fmt.Errorf("n = %d exceeds core.MaxN = 2⁵⁷−1, the largest node count the engine takes", c.N)
	case c.Ranks < 0:
		return c, fmt.Errorf("ranks = %d, want >= 1", c.Ranks)
	case c.CheckpointEvery < 0:
		return c, fmt.Errorf("checkpoint every = %d, want >= 0", c.CheckpointEvery)
	case c.StreamBlockEdges < 0 || c.StreamBlockEdges > esink.MaxBlockEdges:
		return c, fmt.Errorf("stream block edges = %d, want 0 to %d", c.StreamBlockEdges, esink.MaxBlockEdges)
	}
	switch c.Transport {
	case "", "shm", "local":
	default:
		return c, fmt.Errorf("transport %q: want shm or local (in-process ranks; pa-tcp runs ranks over TCP)", c.Transport)
	}
	if _, err := partition.ParseKind(c.Scheme); err != nil {
		return c, err
	}
	if _, err := core.ParseResolveMode(c.Resolve); err != nil {
		return c, err
	}
	return c, nil
}

// Options validates c and translates it into the engine's options, the
// partition built over c.Ranks ranks. RecordTrace is core.Run's own
// argument, and a streaming sink is the caller's to add.
func Options(c Config) (opts core.Options, err error) {
	if c, err = c.Validate(); err != nil {
		return opts, err
	}
	// Validate has parsed the scheme, the resolve mode and the params.
	kind, _ := partition.ParseKind(c.Scheme)
	mode, _ := core.ParseResolveMode(c.Resolve)
	pr, _ := c.Params()
	part, err := partition.New(kind, c.N, c.Ranks)
	if err != nil {
		return opts, err
	}
	var ck *core.CheckpointOptions
	if c.Checkpointed() {
		ck = &core.CheckpointOptions{Dir: c.CheckpointDir, Every: c.CheckpointEvery, Keep: c.CheckpointKeep, Resume: c.Resume}
	}
	return core.Options{
		Params:           pr,
		Part:             part,
		Seed:             c.Seed,
		Workers:          c.Workers,
		Transport:        c.Transport,
		HubPrefix:        c.HubPrefix,
		Resolve:          mode,
		CollectNodeLoad:  c.CollectNodeLoad,
		Checkpoint:       ck,
		StreamDir:        c.StreamDir,
		StreamBlockEdges: c.StreamBlockEdges,
	}, nil
}

// Metrics returns the header of a run's metrics record — N, X, P,
// Ranks, Scheme and Seed — for a c that Validate returned.
func Metrics(c Config) *obs.RunMetrics {
	return &obs.RunMetrics{N: c.N, X: c.X, P: c.P, Ranks: c.Ranks, Scheme: c.Scheme, Seed: c.Seed}
}

// Flags registers the flags pagen and pa-tcp share on fs, each bound to
// its field of c and set to its default. This list is the one place a
// flag is named: Args serialises through it, and each CLI adds only its
// own per-process flags (pagen's -ranks and -transport fill Ranks and
// Transport; pa-tcp sets Ranks to the length of -addrs).
func (c *Config) Flags(fs *flag.FlagSet) {
	fs.Int64Var(&c.N, "n", 100000, "number of nodes")
	fs.IntVar(&c.X, "x", 4, "edges per new node")
	c.P = 0
	fs.Var(probFlag{&c.P}, "p", "direct-attachment probability, a `float` in (0, 1]; unset selects 0.5 (exact Barabási–Albert)")
	fs.Uint64Var(&c.Seed, "seed", 1, "random seed")
	fs.StringVar(&c.Scheme, "scheme", "RRP", "partitioning scheme: UCP, LCP, RRP, ExactCP")
	fs.IntVar(&c.Workers, "workers", 0, "generation goroutines per rank (0 = GOMAXPROCS)")
	fs.Int64Var(&c.HubPrefix, "hub-prefix", 0, "hub-prefix replica size H: every rank computes the first H nodes itself (0 = auto, <0 = off); output is identical for every setting")
	fs.StringVar(&c.Resolve, "resolve", "wire", "non-local dependency resolution: wire or recompute; output is identical in both modes, all ranks must agree")
	fs.StringVar(&c.CheckpointDir, "checkpoint-dir", "", "write per-rank snapshots to this directory, shared by the ranks (see docs/OPERATIONS.md)")
	fs.Int64Var(&c.CheckpointEvery, "checkpoint-every", 0, "per-rank protocol events (the rank's initiated nodes plus data messages received) between its checkpoint epochs (requires -checkpoint-dir)")
	fs.IntVar(&c.CheckpointKeep, "checkpoint-keep", 0, "snapshots to retain per rank (0 = default)")
	fs.BoolVar(&c.Resume, "resume", false, "resume from the latest restorable epoch in -checkpoint-dir")
	fs.StringVar(&c.StreamDir, "stream-dir", "", "spill compressed per-rank edge shards to this directory with bounded memory (docs/SHARD_FORMAT.md); composes with -checkpoint-dir, and pa-tcp requires it")
	fs.IntVar(&c.StreamBlockEdges, "stream-block-edges", 0, "edge records per shard block, the unit a rank flushes and a reader decodes on its own (0 = 65536, at most 1048576)")
}

// Args returns the command line that makes a FlagSet registered by
// Flags reproduce c's shared fields: one -name=value for each field
// that differs from its flag's default, in name order.
func (c Config) Args() []string {
	var bound Config
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	bound.Flags(fs)
	bound = c
	var args []string
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			args = append(args, "-"+f.Name+"="+v)
		}
	})
	return args
}

// probFlag is -p: a float that refuses 0, which Config cannot express
// (P == 0 selects the default).
type probFlag struct{ p *float64 }

func (f probFlag) String() string {
	if f.p == nil || *f.p == 0 {
		return "0"
	}
	return strconv.FormatFloat(*f.p, 'g', -1, 64)
}

func (f probFlag) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return errors.New("parse error")
	}
	if v == 0 {
		return errors.New("0 cannot be set: an unset -p selects 0.5, and a run's Config has no other way to say p = 0")
	}
	*f.p = v
	return nil
}
