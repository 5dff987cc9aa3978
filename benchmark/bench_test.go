package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The tests run the real harness at a small n. The test binary stands
// in for the benchmark binary when the harness starts its oracle child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-oracle" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

const testN = 20_000

func testBench(t *testing.T, w workload) *bench {
	t.Helper()
	return &bench{in: newInput(testN, 7), w: w, tmp: t.TempDir(), rep: runRep}
}

func TestWorkloadsCompleteAndVerify(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := testBench(t, w)
			m, err := b.timed()
			if err != nil {
				t.Fatal(err)
			}
			if b.ops != minReps || b.failed != 0 {
				t.Errorf("ops %d failed %d, want %d and 0", b.ops, b.failed, minReps)
			}
			for _, d := range endToEnd {
				if v, ok := m[d.name]; !ok || !(v.Value > 0) {
					t.Errorf("%s = %v (measured: %v), want a positive value", d.name, v.Value, ok)
				}
			}
			if len(m) != len(endToEnd) {
				t.Errorf("%d metrics measured, %d defined", len(m), len(endToEnd))
			}
			if left, _ := filepath.Glob(filepath.Join(b.tmp, "*")); len(left) != 0 {
				t.Errorf("repetitions left %v behind", left)
			}
		})
	}
}

func TestCorruptedEdgeIsAFailedOp(t *testing.T) {
	b := testBench(t, workloads[0])
	var err error
	if b.oracle, err = runOracle(b.in); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.countedRep(nil); !ok || b.ops != 1 || b.failed != 0 {
		t.Fatalf("clean repetition: ok %v ops %d failed %d", ok, b.ops, b.failed)
	}
	// The file's last byte ends the last edge's varint; flipping its low
	// bit moves that edge's endpoint by one and leaves the count alone.
	b.rep = func(in input, r rung, dir string, tr *tracer) (*repOut, error) {
		rep, err := runRep(in, r, dir, tr)
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(rep.path)
		if err != nil {
			return nil, err
		}
		data[len(data)-1] ^= 1
		return rep, os.WriteFile(rep.path, data, 0o644)
	}
	if _, ok := b.countedRep(nil); ok || b.ops != 2 || b.failed != 1 {
		t.Fatalf("corrupted repetition: ok %v ops %d failed %d, want false 2 1", ok, b.ops, b.failed)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0},
		{Name: "b.child", Start: 50, End: 60, Parent: 2},
	}
	want := []int64{30, 20, 40, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}

	tr := newTracer()
	tr.rep = 0
	tr.in("rep", func() error { return tr.in("core.run", func() error { return nil }) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].End > tr.spans[0].End {
		t.Errorf("nested spans recorded as %+v", tr.spans)
	}
	var off *tracer
	ran := false
	if off.in("rep", func() error { ran = true; return nil }); !ran {
		t.Error("a nil tracer must still run the call")
	}
}

// A traced run measures exactly the per-layer metrics, and BENCHMARK.json
// lists the same workloads and metrics, with the same units, as the code.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := testBench(t, workloads[3])
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	m, err := b.traced(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Errorf("%d of %d operations failed", b.failed, b.ops)
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			t.Errorf("traced run did not measure %s", d.name)
		}
	}
	if len(m) != len(perLayer) {
		t.Errorf("traced run measured %d metrics, %d defined", len(m), len(perLayer))
	}
	if m["ckpt.epochs"].Value < 2 || m["ladder.L7_ckpt"].Value <= 0 {
		t.Errorf("checkpointing workload committed %v epochs", m["ckpt.epochs"].Value)
	}
	if fi, err := os.Stat(traceFile); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}

	var sp struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, code []metricDef, listed []struct{ Name, Unit string }) {
		units := map[string]string{}
		for _, l := range listed {
			units[l.Name] = l.Unit
		}
		for _, d := range code {
			if !valid.MatchString(d.name) {
				t.Errorf("%s metric name %q is not made of letters, digits, _ . -", kind, d.name)
			}
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s metric %s [%s]: BENCHMARK.json has unit %q (listed: %v)", kind, d.name, d.unit, u, ok)
			}
		}
		if len(units) != len(code) || len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics (%d distinct), the code defines %d", kind, len(listed), len(units), len(code))
		}
	}
	same("end_to_end", endToEnd, sp.EndToEnd)
	same("per_layer", perLayer, sp.PerLayer)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || !valid.MatchString(w.name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, sp.Workloads[i].Name, w.name)
		}
	}
}

// compare reads what emit stores: a set against itself is clean, and a
// set whose times are a fifth worse is reported and fails the command.
func TestCompareReadsResultSets(t *testing.T) {
	write := func(dir string, scale float64) {
		for _, w := range workloads {
			m := metrics{}
			for _, d := range endToEnd {
				m.set(d.name, 100*scale, 101*scale, 102*scale, 103*scale)
			}
			res := result{Workload: w.name, Seed: 1, Ops: 4, Metrics: m}
			if err := emit(res, endToEnd, filepath.Join(dir, w.name+".seed1.json")); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := t.TempDir(), t.TempDir()
	write(a, 1)
	write(b, 1.3)
	if code := compareMain([]string{a, a}); code != 0 {
		t.Errorf("compare of a set with itself exited %d", code)
	}
	if code := compareMain([]string{a, b}); code != 1 {
		t.Errorf("compare against a 30%% slower set exited %d, want 1", code)
	}
	if code := compareMain([]string{a, t.TempDir()}); code != 1 {
		t.Errorf("compare against an empty set exited %d, want 1", code)
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		change        float64
		higher        bool
		bound, spread float64
		want          string
	}{
		{+0.12, false, 0.10, 0.02, "worse"},
		{+0.08, false, 0.10, 0.02, "same"},
		{-0.01, false, 0.10, 0.02, "same"},
		{-0.05, false, 0.10, 0.02, "better"},
		{-0.12, true, 0.10, 0.02, "worse"},
		{+0.05, true, 0.10, 0.02, "better"},
		{-0.30, false, 0.10, 0.15, "unresolved"},
	} {
		if got := verdict(c.change, c.higher, c.bound, c.spread); got != c.want {
			t.Errorf("verdict(%+.2f, higher=%v, bound %.2f, spread %.2f) = %s, want %s",
				c.change, c.higher, c.bound, c.spread, got, c.want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{42}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}
