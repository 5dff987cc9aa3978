package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit. BENCHMARK.json repeats these
// lists with each metric's direction and bound; the tests hold the two
// in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ns_per_edge", "ns"},
	{"cpu_ns_per_edge", "ns"},
	{"peak_rss_bytes_per_edge", "B"},
	{"disk_bytes_per_edge", "B"},
}

// metric is one reported number: the median of its samples, with their
// range and count so that a reader can judge the spread.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

type metrics map[string]metric

// set records the median of samples under name. The unit is filled in
// from the metric lists when the result is emitted.
func (m metrics) set(name string, samples ...float64) {
	s := sortedCopy(samples)
	m[name] = metric{Value: median(s), Min: s[0], Max: s[len(s)-1], N: len(s), Samples: samples}
}

// median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartile i (1 to 3) of a sorted, non-empty slice, as Python's
// statistics.quantiles(n=4) computes it.
func quartile(sorted []float64, i int) float64 {
	ld := len(sorted)
	if ld < 2 {
		return sorted[0]
	}
	j := min(max(i*(ld+1)/4, 1), ld-1)
	delta := float64(i*(ld+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, and 0 when the layer did no work at all.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField returns the value of a "Key: value" line of a /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSS is the resident-set high-water mark (VmHWM) in bytes.
func peakRSS() (int64, error) {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseInt(strings.TrimSuffix(v, " kB"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM from /proc/self/status: %q", v)
	}
	return kb << 10, nil
}

// host is the fingerprint stored with every result: numbers from two
// hosts, or two toolchains, are not comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Kernel     string `json:"kernel"`
}

func hostFingerprint() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitCommit = s.Value
			}
		}
	}
	return h
}

// bench is one run of one workload.
type bench struct {
	in      input
	w       workload
	tmp     string  // every file of the run lives under this directory
	seconds float64 // how long the timed loop measures
	oracle  fingerprint
	// rep produces one repetition; runRep, except where a test
	// substitutes a faulty one.
	rep func(in input, r rung, dir string, tr *tracer) (*repOut, error)

	ops, failed int
	traceReps   int
}

// sample is one verified repetition.
type sample struct {
	wall, cpu time.Duration
	disk      int64
	rss       int64 // the repetition's own VmHWM; 0 where the mark cannot be reset
	rep       *repOut
}

// oneRep runs a repetition in a fresh directory, so that no file of an
// earlier one is counted, and verifies the graph file it left against
// the oracle after the clock has stopped. A non-nil tr records the
// repetition's spans.
func (b *bench) oneRep(tr *tracer) (sample, error) {
	var s sample
	dir, err := os.MkdirTemp(b.tmp, "rep-")
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)
	if tr != nil {
		tr.rep = b.traceReps
		b.traceReps++
		defer func() { tr.rep = -1 }()
	}
	// Like a fresh process: garbage collected, the heap handed back to
	// the operating system, the resident-set high-water mark reset.
	debug.FreeOSMemory()
	hwmReset := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	cpu0, start := cpuTime(), time.Now()
	err = tr.in("rep", func() (err error) {
		s.rep, err = b.rep(b.in, b.w.rung, dir, tr)
		return err
	})
	s.wall, s.cpu = time.Since(start), cpuTime()-cpu0
	if err != nil {
		return s, err
	}
	if hwmReset {
		if s.rss, err = peakRSS(); err != nil {
			return s, err
		}
	}
	if s.disk, err = dirBytes(dir); err != nil {
		return s, err
	}
	fp, err := fingerprintFile(s.rep.path)
	if err != nil {
		return s, err
	}
	if fp != b.oracle {
		return s, fmt.Errorf("graph file has fingerprint %v, the oracle %v", fp, b.oracle)
	}
	return s, nil
}

// countedRep is oneRep as an operation: a failure is reported with the
// repetition's index and counted, not returned.
func (b *bench) countedRep(tr *tracer) (sample, bool) {
	s, err := b.oneRep(tr)
	b.ops++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "%s: repetition %d failed: %v\n", b.w.name, b.ops-1, err)
	}
	return s, err == nil
}

// setUp is what a user pays before the first measured repetition: the
// oracle child and one warm-up repetition (directory creation included),
// which also lets caches fill and lazy initialisation finish.
func (b *bench) setUp() error {
	var err error
	if b.oracle, err = runOracle(b.in); err != nil {
		return err
	}
	if _, err := b.oneRep(nil); err != nil {
		return fmt.Errorf("warm-up repetition: %w", err)
	}
	return nil
}

const (
	// setupRounds set-ups are timed per run and the median reported,
	// because a single process start and first repetition is noisy.
	setupRounds = 5
	// minReps repetitions are always timed, however short the run.
	minReps = 3
)

// timed is the untraced run: the end-to-end metrics.
func (b *bench) timed() (metrics, error) {
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if err := b.setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	edges := float64(b.in.pr.M())
	var wall, cpu, disk, rss []float64
	for start := time.Now(); b.ops < minReps || time.Since(start).Seconds() < b.seconds; {
		s, ok := b.countedRep(nil)
		if !ok {
			continue
		}
		wall = append(wall, float64(s.wall.Nanoseconds())/edges)
		cpu = append(cpu, float64(s.cpu.Nanoseconds())/edges)
		disk = append(disk, float64(s.disk)/edges)
		if s.rss > 0 {
			rss = append(rss, float64(s.rss)/edges)
		}
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("%s: every repetition failed", b.w.name)
	}
	if len(rss) < len(wall) {
		// No per-repetition mark on this kernel: the whole run's.
		hwm, err := peakRSS()
		if err != nil {
			return nil, err
		}
		rss = []float64{float64(hwm) / edges}
	}
	m := metrics{}
	m.set("setup_s", setups...)
	m.set("ns_per_edge", wall...)
	m.set("cpu_ns_per_edge", cpu...)
	// Peak memory is the third quartile, not the median: what a
	// repetition's high-water mark reaches depends on when the garbage
	// collector last ran, so its distribution has a hard ceiling and a
	// tail below it, and the upper quartile sits steadily near the ceiling.
	m.set("peak_rss_bytes_per_edge", rss...)
	hwm := m["peak_rss_bytes_per_edge"]
	hwm.Value = quartile(sortedCopy(rss), 3)
	m["peak_rss_bytes_per_edge"] = hwm
	m.set("disk_bytes_per_edge", disk...)
	return m, nil
}

// outPath names a result file of this run under dir.
func (b *bench) outPath(dir, suffix string) string {
	return filepath.Join(dir, b.w.name+suffix)
}
