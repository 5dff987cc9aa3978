// Command pa-analyze reads a generated graph (text or binary edge list)
// and prints its structural report: degree distribution and power-law
// fit (the paper's Figure 4 analysis), clustering, assortativity and
// sampled path length.
//
// Usage:
//
//	pagen -n 1000000 -x 4 -format binary -o g.bin
//	pa-analyze -i g.bin -format binary -dist
//
// -dmin sets the power-law tail cutoff (0 = mean degree);
// -path-sources the BFS sample size of the path-length estimate.
//
// With -stream-dir DIR -ranks P it reads a streamed run's shard files
// (docs/SHARD_FORMAT.md) out of core instead: the edge stream is merged
// block by block, so peak memory is 8n bytes (the degree table) plus
// bounded read buffers, never the edge list. Adjacency-based analyses
// (clustering, assortativity, path length, components) need the full
// graph in memory and are skipped in this mode.
//
// -fingerprint prints an order-sensitive FNV-1a hash of the canonical
// edge stream and exits. The fingerprint of a streamed run's merged
// shards equals the fingerprint of the in-memory run's edge list — the
// cheap byte-identity check CI uses after a kill/resume cycle.
//
// -export-binary FILE converts either input into the binary PAGB edge
// list, byte-identical to what pagen -format binary would have written
// for the same run; streamed shards convert without materialising the
// edge list.
package main

import (
	"flag"
	"fmt"
	"os"

	"pagen/internal/analysis"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/xrand"
)

func main() {
	var (
		in        = flag.String("i", "", "input graph file (default stdin)")
		format    = flag.String("format", "text", "input format: text or binary")
		dmin      = flag.Int64("dmin", 0, "power-law tail cutoff (0 = mean degree)")
		dist      = flag.Bool("dist", false, "also print the log-binned degree distribution")
		sources   = flag.Int("path-sources", 8, "BFS sources for the path-length estimate (0 disables)")
		streamDir = flag.String("stream-dir", "", "read a streamed run's shard directory out of core (requires -ranks; see docs/SHARD_FORMAT.md)")
		ranks     = flag.Int("ranks", 0, "rank count of the streamed run (required with -stream-dir)")
		fingerpr  = flag.Bool("fingerprint", false, "print the order-sensitive fingerprint of the canonical edge stream and exit")
		exportBin = flag.String("export-binary", "", "write the edge stream as a binary PAGB file and exit")
	)
	flag.Parse()

	if *streamDir != "" {
		analyzeStream(*streamDir, *ranks, *dmin, *dist, *fingerpr, *exportBin)
		return
	}

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	var g *graph.Graph
	var err error
	switch *format {
	case "text":
		g, err = graph.ReadText(r)
	case "binary":
		g, err = graph.ReadBinary(r)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}

	if *fingerpr {
		fp, err := graph.Fingerprint(graph.IterEdges(g))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fingerprint      %016x (%d edges)\n", fp, g.M())
		return
	}
	if *exportBin != "" {
		exportBinary(*exportBin, g.N, g.M(), graph.IterEdges(g))
		return
	}

	cutoff := *dmin
	if cutoff <= 0 {
		cutoff = int64(g.DegreeHistogram().Mean())
		if cutoff < 1 {
			cutoff = 1
		}
	}
	rep, err := analysis.AnalyzeDegrees(g, cutoff)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("nodes            %d\n", rep.N)
	fmt.Printf("edges            %d\n", rep.M)
	fmt.Printf("degree           min %d, max %d, mean %.3f\n", rep.MinDeg, rep.MaxDeg, rep.MeanDeg)
	fmt.Printf("gamma (MLE)      %.3f (d >= %d, tail n = %d, KS = %.4f)\n",
		rep.Gamma, rep.GammaDMin, rep.TailN, rep.GammaKS)
	fmt.Printf("loglog PMF slope %.3f (R2 = %.4f)\n", rep.LogLogSlope, rep.LogLogR2)
	fmt.Printf("components       %d\n", rep.Components)

	csr := g.ToCSR()
	fmt.Printf("clustering       global %.5f, avg local %.5f\n",
		analysis.GlobalClustering(csr), analysis.AverageLocalClustering(csr))
	fmt.Printf("assortativity    %.4f\n", analysis.DegreeAssortativity(g))
	if *sources > 0 {
		rng := xrand.New(1)
		fmt.Printf("avg path length  %.2f (sampled, %d sources)\n",
			analysis.AverageShortestPathSample(csr, *sources, rng.Int64n), *sources)
	}

	if *dist {
		fmt.Println("\ndegree\tP(degree)")
		if err := rep.WriteDistributionTSV(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// analyzeStream is the out-of-core path: every pass over the edges is a
// fresh block-streaming merge of the shard files, so memory stays at the
// degree table plus read buffers no matter how many edges the run wrote.
func analyzeStream(dir string, ranks int, dmin int64, dist, fingerpr bool, exportBin string) {
	if ranks < 1 {
		fatal(fmt.Errorf("-stream-dir needs -ranks (the streamed run's rank count)"))
	}
	d, err := esink.OpenDir(dir, ranks)
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	meta := d.Meta()
	m := d.Edges()

	if fingerpr {
		fp, err := graph.Fingerprint(d.Iter(0))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fingerprint      %016x (%d edges)\n", fp, m)
		return
	}
	if exportBin != "" {
		exportBinary(exportBin, meta.N, m, d.Iter(0))
		return
	}

	deg, err := graph.DegreesFromIterator(meta.N, d.Iter(0))
	if err != nil {
		fatal(err)
	}
	cutoff := dmin
	if cutoff <= 0 && meta.N > 0 {
		cutoff = 2 * m / meta.N
		if cutoff < 1 {
			cutoff = 1
		}
	}
	rep, err := analysis.AnalyzeDegreeSequence(deg, cutoff)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stream           %d shards (n=%d x=%d p=%g seed=%d scheme=%s)\n",
		ranks, meta.N, meta.X, meta.P, meta.Seed, meta.Scheme)
	fmt.Printf("nodes            %d\n", rep.N)
	fmt.Printf("edges            %d\n", rep.M)
	fmt.Printf("degree           min %d, max %d, mean %.3f\n", rep.MinDeg, rep.MaxDeg, rep.MeanDeg)
	fmt.Printf("gamma (MLE)      %.3f (d >= %d, tail n = %d, KS = %.4f)\n",
		rep.Gamma, rep.GammaDMin, rep.TailN, rep.GammaKS)
	fmt.Printf("loglog PMF slope %.3f (R2 = %.4f)\n", rep.LogLogSlope, rep.LogLogR2)
	fmt.Println("clustering       skipped (adjacency analyses need an in-memory graph; use -export-binary)")

	if dist {
		fmt.Println("\ndegree\tP(degree)")
		if err := rep.WriteDistributionTSV(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// exportBinary writes the edge stream as a PAGB file.
func exportBinary(path string, n, m int64, it graph.EdgeIterator) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := graph.WriteBinaryStream(f, n, m, it); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pa-analyze: wrote %d edges to %s\n", m, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pa-analyze:", err)
	os.Exit(1)
}
