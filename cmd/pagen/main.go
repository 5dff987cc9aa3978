// Command pagen generates a preferential-attachment network with the
// parallel algorithm and writes it as an edge list.
//
// Usage:
//
//	pagen -n 1000000 -x 4 -ranks 8 -scheme RRP -o graph.txt
//	pagen -n 1000000 -x 4 -format binary -o graph.bin -stats
//	pagen -n 1000000 -x 4 -ranks 8 -metrics metrics.json -o graph.txt
//	pagen -n 1000000 -x 4 -checkpoint-dir ck -checkpoint-every 5000000 -o graph.txt
//	pagen -n 1000000 -x 4 -checkpoint-dir ck -resume -o graph.txt
//	pagen -n 100000000 -x 4 -stream-dir shards -checkpoint-dir ck -checkpoint-every 20000000
//
// -metrics FILE exports the run's observability record (per-rank
// counters, wait-chain histograms, and the received-message load binned
// over node ids with the Lemma 3.4 prediction alongside) as JSON; "-"
// writes it to stderr. A checkpointed run's record has no load curve: a
// snapshot does not carry the load bins.
//
// -checkpoint-dir DIR with -checkpoint-every N snapshots every rank's
// engine state roughly every N protocol events; a later invocation with
// the same parameters plus -resume continues from the newest complete
// epoch and produces the identical graph. A snapshot names the durable
// prefix of the rank's shard, so without -stream-dir the ranks stream
// into DIR/shards and -o is written from their merge. See
// docs/OPERATIONS.md.
//
// -stream-dir DIR is the per-rank output: each rank spills its edges
// into its own compressed, CRC-protected shard file
// (docs/SHARD_FORMAT.md; the same shard a pa-tcp rank writes) with
// bounded resident memory, so n is limited by disk rather than RAM. It
// composes with checkpointing: a killed run resumed with -resume
// truncates each shard to its snapshot's durable mark and regenerates
// exactly the missing suffix. Read the shards with pa-analyze
// -stream-dir.
//
// -transport selects how the in-process ranks exchange message batches:
// shm (the default; batches are handed between rank goroutines by
// reference, no serialization) or local (every batch round-trips
// through the wire codec — the serialization ablation). The output is
// byte-identical for both; tcp is rejected here (use pa-tcp).
package main

import (
	"flag"
	"fmt"
	"os"

	"pagen"
	"pagen/internal/graph"
)

func main() {
	var cfg pagen.Config
	cfg.Flags(flag.CommandLine)
	flag.IntVar(&cfg.Ranks, "ranks", 4, "number of parallel ranks")
	flag.StringVar(&cfg.Transport, "transport", "shm", "in-process transport between ranks: shm (by-reference) or local (serialization ablation); output is identical for both")
	var (
		out     = flag.String("o", "", "output file (default stdout)")
		format  = flag.String("format", "text", "output format: text or binary")
		stats   = flag.Bool("stats", false, "print per-rank statistics to stderr")
		seq     = flag.Bool("seq", false, "use the sequential copy model instead")
		metrics = flag.String("metrics", "", "write run metrics JSON to this file (\"-\" = stderr); a checkpointed run's has no node_load curve")
	)
	flag.Parse()

	if cfg.Ranks < 1 {
		fatal(fmt.Errorf("-ranks %d: need at least 1 rank", cfg.Ranks))
	}
	// The load bins are the one metrics input snapshots do not
	// capture; under checkpointing -metrics still exports everything
	// else (pause/write histograms included), just without the load
	// curve.
	cfg.CollectNodeLoad = *metrics != "" && !cfg.Checkpointed()

	if *seq && (*metrics != "" || cfg.Resolve != "wire" || cfg.Checkpointed() || cfg.StreamDir != "") {
		fatal(fmt.Errorf("-metrics, -resolve, checkpointing and -stream-dir need the parallel engine (drop -seq)"))
	}

	if cfg.StreamDir != "" {
		if *out != "" {
			fatal(fmt.Errorf("-stream-dir writes per-rank shards; it is incompatible with -o (convert with pa-analyze -stream-dir -export-binary)"))
		}
		res, err := pagen.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		if *metrics != "" {
			if err := pagen.Metrics(res, cfg).WriteFile(*metrics); err != nil {
				fatal(err)
			}
		}
		var m, blocks, bytes int64
		for _, st := range res.Ranks {
			m += st.Edges
			blocks += st.SinkBlocks
			bytes += st.SinkBytes
		}
		fmt.Fprintf(os.Stderr, "streamed %d edges (%d blocks, %d bytes) to %s in %v (%.3g edges/s)\n",
			m, blocks, bytes, cfg.StreamDir, res.Elapsed, pagen.EdgesPerSecond(res))
		return
	}

	var g *pagen.Graph
	if *seq {
		var err error
		g, _, err = pagen.GenerateSeq(cfg)
		if err != nil {
			fatal(err)
		}
	} else {
		res, err := pagen.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		g = res.Graph
		if *metrics != "" {
			if err := pagen.Metrics(res, cfg).WriteFile(*metrics); err != nil {
				fatal(err)
			}
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "generated %d edges in %v (%.3g edges/s)\n",
				g.M(), res.Elapsed, pagen.EdgesPerSecond(res))
			for _, st := range res.Ranks {
				fmt.Fprintf(os.Stderr,
					"rank %3d: nodes=%d edges=%d reqS=%d reqR=%d resS=%d resR=%d frames=%d retries=%d load=%d\n",
					st.Rank, st.Nodes, st.Edges,
					st.Comm.RequestsSent, st.Comm.RequestsRecv,
					st.Comm.ResolvedSent, st.Comm.ResolvedRecv,
					st.Comm.FramesSent, st.Retries, st.TotalLoad())
			}
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	var err error
	switch *format {
	case "text":
		err = graph.WriteText(w, g)
	case "binary":
		err = graph.WriteBinary(w, g)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pagen:", err)
	os.Exit(1)
}
