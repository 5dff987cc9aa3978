package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// compareMain implements "compare A B": A and B are directories of
// untraced result files (any number of runs per workload, as written by
// -out). For every workload and end-to-end metric it prints both
// medians, B's change relative to A, the bound and a verdict.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	specPath := fs.String("spec", filepath.Join("..", "BENCHMARK.json"), "benchmark definition holding the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] A B")
		return 2
	}
	var sp spec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	var a, b map[string][]result
	if err == nil {
		a, err = loadSet(fs.Arg(0))
	}
	if err == nil {
		b, err = loadSet(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 1
	}
	fmt.Printf("%-16s %-24s %12s %12s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "A", "B", "change", "bound", "iqr A", "iqr B", "verdict")
	bad := false
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			pa, pb := pool(a[w.Name], m.Name), pool(b[w.Name], m.Name)
			if len(pa) == 0 || len(pb) == 0 {
				fmt.Printf("%-16s %-24s missing from a set\n", w.Name, m.Name)
				bad = true
				continue
			}
			ma, mb := median(pa), median(pb)
			sa, sb := spread(pa), spread(pb)
			change := (mb - ma) / ma
			v := verdict(change, m.Better == "higher", m.Bound, max(sa, sb))
			bad = bad || v == "worse" || v == "unresolved"
			fmt.Printf("%-16s %-24s %12.5g %12.5g %+7.1f%% %5.0f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*change, 100*m.Bound, 100*sa, 100*sb, v)
		}
	}
	for name, set := range map[string]map[string][]result{"A": a, "B": b} {
		for _, runs := range set {
			for _, r := range runs {
				if r.FailedOps > 0 {
					fmt.Printf("set %s: %s seed %d has %d failed ops of %d\n", name, r.Workload, r.Seed, r.FailedOps, r.Ops)
					bad = true
				}
				for _, u := range r.Unresolved {
					fmt.Printf("set %s: %s seed %d marks %s unresolved on its host (%d CPU)\n", name, r.Workload, r.Seed, u, r.Host.NumCPU)
				}
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// verdict judges B's relative change against A. A metric whose
// run-to-run spread exceeds its bound cannot show a change of the
// bound's size, so it is unresolved rather than unchanged; within the
// bound, a change counts as better only when it exceeds the spread.
func verdict(change float64, higherIsBetter bool, bound, spread float64) string {
	gain := -change
	if higherIsBetter {
		gain = change
	}
	switch {
	case spread > bound:
		return "unresolved"
	case gain < -bound:
		return "worse"
	case gain > spread && gain > 0:
		return "better"
	}
	return "same"
}

// loadSet reads every untraced result under dir, by workload.
func loadSet(dir string) (map[string][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.seed*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s holds no result file (*.seed*.json)", dir)
	}
	set := map[string][]result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	return set, nil
}

// pool returns, sorted, the values a set offers for one metric: each
// run's reported value when the set holds at least four runs of the
// workload, so that quartiles over runs exist, and otherwise the
// per-repetition samples inside the runs it has.
func pool(runs []result, name string) []float64 {
	var vals []float64
	for _, r := range runs {
		m, ok := r.Metrics[name]
		switch {
		case !ok:
		case len(runs) >= 4:
			vals = append(vals, m.Value)
		default:
			vals = append(vals, m.Samples...)
		}
	}
	sort.Float64s(vals)
	return vals
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 when there are too few values to have quartiles.
func spread(sorted []float64) float64 {
	if len(sorted) < 2 {
		return 0
	}
	return (quartile(sorted, 3) - quartile(sorted, 1)) / median(sorted)
}
