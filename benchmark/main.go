// Command benchmark is the repository's cost ledger. One invocation runs
// one workload in one process, verifies every repetition's output
// against a sequential oracle, and prints every metric by name with its
// unit; the last line of standard output is the result as one JSON
// object. BENCHMARK.json at the repository root lists the workloads,
// the metrics, their direction and their regression bounds, and
// README.md in this directory explains them.
//
//	sh benchmark/run.sh --workload mem-1x1 --seed 3 --seconds 15 --trace 0
//	go run -C benchmark . compare out/a out/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: mem-1x1, shm-2x1, tcp-2x1 or stream-ckpt-2x1")
	seed := fs.Uint64("seed", 3, "generator seed; reaches the program only through Config.Seed")
	seconds := fs.Float64("seconds", 15, "how long the timed loop measures")
	traceFlag := fs.String("trace", "0", "1 runs the traced repetitions, the layer drives and the ladder instead of the timed loop")
	n := fs.Int64("n", defaultN, "nodes; the ledger's numbers are defined at the default")
	tmpdir := fs.String("tmpdir", "out", "directory under which the run creates, and on exit removes, its temporary root")
	outDir := fs.String("out", "out", "directory for the result, layer and span files")
	oracle := fs.Bool("oracle", false, "child mode: print the edge count and multiset hash of seq.CopyModel's graph")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	in := newInput(*n, *seed)
	if *oracle {
		return oracleMain(in)
	}
	trace, err := strconv.ParseBool(*traceFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q: want 0 or 1\n", *traceFlag)
		return 2
	}
	b := &bench{in: in, seconds: *seconds, rep: runRep}
	for _, w := range workloads {
		if w.name == *name {
			b.w = w
		}
	}
	if b.w.name == "" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if err := b.run(trace, *tmpdir, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if b.failed > 0 {
		return 1
	}
	return 0
}

// result is the record a run leaves in the -out directory; compare
// reads the untraced ones.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Trace     bool    `json:"trace"`
	N         int64   `json:"n"`
	X         int     `json:"x"`
	P         float64 `json:"p"`
	Host      host    `json:"host"`
	Ops       int     `json:"ops"`
	FailedOps int     `json:"failed_ops"`
	// Unresolved names metrics this host cannot measure: with fewer than
	// two CPUs a two-rank run's wall time is overhead, not speed.
	Unresolved []string `json:"unresolved,omitempty"`
	// Claim is null: a run of the benchmark supports no performance claim
	// by itself, only a comparison does.
	Claim   *string `json:"claim"`
	Metrics metrics `json:"metrics"`
}

// run performs the workload and emits the result. Every file the run
// creates lives under one temporary root, removed on return and on
// SIGINT or SIGTERM.
func (b *bench) run(trace bool, tmpdir, outDir string) error {
	for _, dir := range []string{tmpdir, outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var err error
	if b.tmp, err = os.MkdirTemp(tmpdir, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(b.tmp)
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	defer close(done)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(b.tmp)
			os.Exit(130)
		case <-done:
		}
	}()

	res := result{
		Workload: b.w.name, Seed: b.in.seed, Trace: trace,
		N: b.in.pr.N, X: b.in.pr.X, P: b.in.pr.P, Host: hostFingerprint(),
	}
	defs, file := endToEnd, fmt.Sprintf(".seed%d.json", b.in.seed)
	if trace {
		defs, file = perLayer, ".layers.json"
		res.Metrics, err = b.traced(b.outPath(outDir, ".trace.json"))
	} else {
		res.Metrics, err = b.timed()
	}
	if err != nil {
		return err
	}
	if ranks := b.w.rung.config(b.in, "").Ranks; ranks > runtime.NumCPU() {
		res.Unresolved = []string{"ns_per_edge"}
		fmt.Fprintf(os.Stderr, "%s: %d ranks on %d CPU: wall-clock figures are overhead, not speed; read the counts and cpu_ns_per_edge only\n",
			b.w.name, ranks, runtime.NumCPU())
	}
	res.Ops, res.FailedOps = b.ops, b.failed
	return emit(res, defs, b.outPath(outDir, file))
}

// emit prints every metric of defs by name with its unit, stores the
// record in file, and prints the one-line JSON summary last.
func emit(res result, defs []metricDef, file string) error {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{res.FailedOps == 0, res.Ops, res.FailedOps, map[string]reading{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		m.Unit = d.unit
		res.Metrics[d.name] = m
		summary.Metrics[d.name] = reading{m.Value, m.Unit}
		fmt.Printf("%-36s %16.6g %-7s min %.6g max %.6g n %d\n", d.name, m.Value, m.Unit, m.Min, m.Max, m.N)
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d defined", len(res.Metrics), len(defs))
	}
	fmt.Printf("%-36s %16d\n%-36s %16d\n", "ops", res.Ops, "failed_ops", res.FailedOps)
	record, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, record, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "result stored in", filepath.Clean(file))
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
