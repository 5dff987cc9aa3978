package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/msg"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
	"pagen/internal/xrand"
)

// simGroup runs one rank per simNet endpoint, each on its own goroutine
// as Run does: opts(r) configures rank r, and after, when set, runs on
// the rank's endpoint once RunRank returned (cmd/pa-tcp's post-run
// collectives). A failed rank aborts the group, as Run's does. The
// returned error is the root cause: the first rank's that is not the
// ErrClosed the abort hands the others.
func simGroup(p int, sched simSched, opts func(r int) Options, after func(r int, tr transport.Transport, res *RankResult) error) (*simNet, []*RankResult, error) {
	net := newSimNet(p, sched)
	results := make([]*RankResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr := net.endpoint(r)
			results[r], errs[r] = RunRank(tr, opts(r))
			if errs[r] == nil && after != nil {
				errs[r] = after(r, tr, results[r])
			}
			if errs[r] != nil {
				net.abort()
			}
			tr.Close()
		}(r)
	}
	wg.Wait()
	for _, closed := range []bool{false, true} {
		for r, err := range errs {
			if err != nil && errors.Is(err, transport.ErrClosed) == closed {
				return net, results, fmt.Errorf("rank %d: %w", r, err)
			}
		}
	}
	if net.err != nil && !net.aborted {
		return net, results, net.err
	}
	return net, results, nil
}

// simConfig is one point of TestSimProperty's configuration space: the
// run (n, x, p, seed, scheme, ranks, workers, resolve mode and replay
// depth cap, hub prefix, streamed output, checkpoint cadence, poll
// interval, send-buffer capacity), the schedule (seed, arrival rate) and
// a kill: rank KillRank crashes at its Kill-th transport call, and a
// fresh group resumes the run with ResumeWorkers workers under another
// schedule seed. The hub setting is per rank: the ranks whose bit is set
// in AltRanks run with AltHub instead of Hub, and in ResumeAltRanks
// after the kill. A printed simConfig is a Go literal that replays its
// run exactly.
type simConfig struct {
	N              int64
	X              int
	P              float64
	Seed           uint64
	Scheme         partition.Kind
	Ranks          int
	Workers        int
	Resolve        ResolveMode
	Depth          int
	Hub            int64
	Stream         bool
	Every          int64
	Poll           int
	BufCap         int
	Kill           int
	KillRank       int
	ResumeWorkers  int
	Sched          uint64
	Deliver        float64
	AltHub         int64
	AltRanks       uint8
	ResumeAltRanks uint8
}

// literal prints c as the Go literal that replays it.
func (c simConfig) literal() string {
	return strings.TrimPrefix(fmt.Sprintf("%#v", c), "core.")
}

// drawSimConfig draws one configuration. Sizes stay small — a run is a
// few thousand scheduler steps — so the budget buys many interleavings
// rather than a few large runs.
func drawSimConfig(rng *xrand.Rand) simConfig {
	pick := func(vs ...int) int { return vs[rng.Uint64n(uint64(len(vs)))] }
	c := simConfig{
		X:       pick(1, 2, 3, 3, 4, 6, 8),
		P:       float64(5+rng.Uint64n(91)) / 100,
		Seed:    rng.Uint64(),
		Scheme:  allKinds[rng.Uint64n(uint64(len(allKinds)))],
		Ranks:   pick(1, 2, 2, 3, 3, 4, 5, 8),
		Workers: pick(1, 1, 2, 3),
		Hub:     int64(pick(-1, 0, 0, 5, 40)),
		Stream:  rng.Bool(0.3),
		Poll:    pick(0, 0, 1, 5, 32),
		BufCap:  pick(0, 0, 1, 4),
		Sched:   rng.Uint64(),
		Deliver: []float64{0.1, 0.5, 0.9}[rng.Uint64n(3)],
	}
	c.N = int64(c.X) + 2 + int64(rng.Uint64n(uint64(pick(60, 400, 1500, 3000))))
	if rng.Bool(0.25) {
		c.Resolve, c.Depth = ResolveRecompute, pick(0, 0, 1, 2)
	}
	if rng.Bool(0.4) {
		c.Every = max(8, c.N/int64(c.Ranks*pick(2, 3, 5)))
		if rng.Bool(0.6) {
			c.Kill = 1 + int(rng.Uint64n(uint64(pick(20, 150, 600))))
			c.KillRank = int(rng.Uint64n(uint64(c.Ranks)))
			c.ResumeWorkers = pick(1, 2, 3)
		}
	}
	if rng.Bool(0.3) {
		c.AltHub = int64(pick(-1, 0, 5, 40))
		c.AltRanks = uint8(rng.Uint64n(256))
		if c.Kill > 0 {
			c.ResumeAltRanks = uint8(rng.Uint64n(256))
		}
	}
	return c
}

// hub is the HubPrefix of rank r under the given alternate-rank mask.
func (c simConfig) hub(r int, alt uint8) int64 {
	if alt>>r&1 == 1 {
		return c.AltHub
	}
	return c.Hub
}

// hubSize is the replica prefix a rank of c with the given HubPrefix
// holds (0: none), as newEngine sizes it.
func (c simConfig) hubSize(hub int64) int64 {
	if hub < 0 || c.Ranks == 1 || c.P >= 1 {
		return 0
	}
	h := hub
	if h == 0 {
		h = partition.HubPrefixAutoSize(c.N, c.X, c.Ranks)
	}
	h = min(h, c.N)
	if h <= int64(c.X) {
		return 0
	}
	return h
}

// mixedHub reports whether c's ranks hold replicas of different sizes
// on the first run.
func (c simConfig) mixedHub() bool {
	for r := 1; r < c.Ranks; r++ {
		if c.hubSize(c.hub(r, c.AltRanks)) != c.hubSize(c.hub(0, c.AltRanks)) {
			return true
		}
	}
	return false
}

// resumedHub reports whether some rank's replica changes size across
// the kill.
func (c simConfig) resumedHub() bool {
	for r := 0; r < c.Ranks; r++ {
		if c.hubSize(c.hub(r, c.AltRanks)) != c.hubSize(c.hub(r, c.ResumeAltRanks)) {
			return true
		}
	}
	return false
}

// simOutcome is what a passing check saw, for TestSimProperty's
// coverage accounting and TestSimReplaysExactly.
type simOutcome struct {
	crashed bool
	epochs  int
	log     uint64 // the first run's event-log hash
}

// checkSims checks each configuration with checkSim, failing the test
// on the first that fails, and returns their outcomes.
func checkSims(t *testing.T, cs ...simConfig) []simOutcome {
	t.Helper()
	outs := make([]simOutcome, len(cs))
	for i, c := range cs {
		var err error
		if outs[i], err = checkSim(t, c, t.TempDir()); err != nil {
			t.Fatalf("%s: %v", c.literal(), err)
		}
	}
	return outs
}

// checkSim runs c on simulated networks and checks it against the
// sequential model: the edge list, and on runs without checkpoints the
// decision trace, the retry count and (wire resolution) NodeLoad; every
// epoch every rank retained must be a consistent cut; a killed run must
// resume to the same graph. dir is scratch space for shards and
// snapshots.
func checkSim(t *testing.T, c simConfig, dir string) (simOutcome, error) {
	var out simOutcome
	pr := model.Params{N: c.N, X: c.X, P: c.P}
	if err := pr.Validate(); err != nil {
		return out, err
	}
	part, err := partition.New(c.Scheme, c.N, c.Ranks)
	if err != nil {
		return out, err
	}
	ckpted := c.Every > 0
	sg, want, err := seq.CopyModel(pr, c.Seed, seq.CopyModelOptions{RecordTrace: !ckpted})
	if err != nil {
		return out, err
	}
	dir, err = os.MkdirTemp(dir, "sim")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	base := Options{
		Params: pr, Part: part, Seed: c.Seed, Workers: c.Workers, Resolve: c.Resolve,
		recomputeDepth: c.Depth, HubPrefix: c.Hub, pollEvery: c.Poll, bufferCap: c.BufCap,
	}
	if c.Stream || ckpted {
		base.StreamDir, base.StreamBlockEdges = filepath.Join(dir, "shards"), 64
	}
	if ckpted {
		base.Checkpoint = &CheckpointOptions{Dir: filepath.Join(dir, "ckpt"), Every: c.Every, Keep: 1 << 20}
	} else {
		base.Trace, base.CollectNodeLoad = model.NewTrace(pr), true
	}
	sched := simSched{seed: c.Sched, deliver: c.Deliver, crashRank: c.KillRank, crashAt: c.Kill}
	rankOpts := func(o Options, alt uint8) func(int) Options {
		return func(r int) Options {
			ro := o
			ro.HubPrefix = c.hub(r, alt)
			return ro
		}
	}
	net, results, err := simGroup(c.Ranks, sched, rankOpts(base, c.AltRanks), nil)
	out.log, out.crashed = net.log.Sum64(), net.crashed
	if err != nil && !(net.crashed && errors.Is(err, errSimCrash)) {
		return out, err
	}
	if ckpted {
		if out.epochs, err = checkCuts(c, part, base.Checkpoint.Dir); err != nil {
			return out, err
		}
	}
	if c.Kill > 0 {
		resumed := base
		resumed.Workers = c.ResumeWorkers
		ck := *base.Checkpoint
		ck.Resume = true
		resumed.Checkpoint = &ck
		sched = simSched{seed: c.Sched ^ 0x5bd1e995, deliver: c.Deliver}
		if _, results, err = simGroup(c.Ranks, sched, rankOpts(resumed, c.ResumeAltRanks), nil); err != nil {
			return out, fmt.Errorf("resume after the kill: %w", err)
		}
		if _, err = checkCuts(c, part, base.Checkpoint.Dir); err != nil {
			return out, fmt.Errorf("after the resume: %w", err)
		}
	}

	var edges []graph.Edge
	if base.StreamDir != "" {
		g, err := esink.ReadGraph(base.StreamDir, c.Ranks)
		if err != nil {
			return out, err
		}
		edges = g.Edges
	} else {
		for _, res := range results {
			edges = append(edges, res.Edges...)
		}
	}
	// A node's edges are contiguous and in edge order in every rank's
	// output, so sorting by node yields the model's order exactly.
	slices.SortStableFunc(edges, func(a, b graph.Edge) int { return int(a.U - b.U) })
	got, _ := graph.Fingerprint(graph.IterEdges(&graph.Graph{Edges: edges}))
	if fp, _ := graph.Fingerprint(graph.IterEdges(sg)); got != fp {
		if len(edges) != len(sg.Edges) {
			return out, fmt.Errorf("%d edges, the model has %d", len(edges), len(sg.Edges))
		}
		i := 0
		for i < len(edges)-1 && edges[i] == sg.Edges[i] {
			i++
		}
		return out, fmt.Errorf("edge %d is (%d,%d), the model's is (%d,%d)", i, edges[i].U, edges[i].V, sg.Edges[i].U, sg.Edges[i].V)
	}
	if ckpted {
		return out, nil
	}

	tr := base.Trace
	for i := range want.Slots() {
		if tr.Copied[i] != want.Copied[i] || tr.K[i] != want.K[i] || tr.L[i] != want.L[i] {
			return out, fmt.Errorf("trace slot %d = (copied %v, k %d, l %d), the model's (copied %v, k %d, l %d)",
				i, tr.Copied[i], tr.K[i], tr.L[i], want.Copied[i], want.K[i], want.L[i])
		}
	}
	load, retries := modelLoad(t, pr, c.Seed)
	var gotRetries int64
	census := make([]int64, c.N) // load plus elided queries, per node
	for r, res := range results {
		gotRetries += res.Stats.Retries
		for _, s := range NodeLoadSamples(part, r, res.Stats.NodeLoad) {
			census[s.K] += s.Load
		}
		for k, n := range res.Stats.HubElided {
			census[k] += n
		}
	}
	if gotRetries != retries {
		return out, fmt.Errorf("%d duplicate retries, the model retried %d times", gotRetries, retries)
	}
	if c.Resolve == ResolveWire {
		for k := range load {
			if census[k] != load[k] {
				return out, fmt.Errorf("node %d received %d queries (load plus elided), the model's attempts read it %d times", k, census[k], load[k])
			}
		}
	}
	return out, nil
}

// checkCuts checks every epoch all ranks retain in dir with
// cutMismatches and returns how many there were.
func checkCuts(c simConfig, part partition.Scheme, dir string) (int, error) {
	var common []int64
	for r := 0; r < c.Ranks; r++ {
		eps, err := ckpt.Epochs(dir, r)
		if err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		if r > 0 {
			eps = slices.DeleteFunc(eps, func(ep int64) bool { return !slices.Contains(common, ep) })
		}
		common = eps
	}
	for _, ep := range common {
		snaps := make([]*ckpt.Snapshot, c.Ranks)
		for r := range snaps {
			var err error
			if snaps[r], err = ckpt.Read(ckpt.Path(dir, r, ep)); err != nil {
				return 0, err
			}
		}
		if bad := cutMismatches(part, snaps); len(bad) > 0 {
			return 0, fmt.Errorf("epoch %d is not a consistent cut: %d mismatches, e.g. %s", ep, len(bad), bad[0])
		}
	}
	return len(common), nil
}

// simShrinks lists the valid one-step simplifications of c the shrinker
// tries, most aggressive first.
func simShrinks(c simConfig) []simConfig {
	var out []simConfig
	try := func(f func(*simConfig)) {
		d := c
		f(&d)
		if _, err := partition.New(d.Scheme, d.N, d.Ranks); d != c && err == nil &&
			(model.Params{N: d.N, X: d.X, P: d.P}).Validate() == nil {
			out = append(out, d)
		}
	}
	try(func(d *simConfig) { d.N = max(int64(d.X)+2, d.N/2) })
	try(func(d *simConfig) { d.Ranks = max(1, d.Ranks-1); d.KillRank = min(d.KillRank, d.Ranks-1) })
	try(func(d *simConfig) { d.Workers, d.ResumeWorkers = 1, min(d.ResumeWorkers, 1) })
	try(func(d *simConfig) { d.Hub, d.AltHub, d.AltRanks, d.ResumeAltRanks = -1, 0, 0, 0 })
	try(func(d *simConfig) { d.Resolve, d.Depth = ResolveWire, 0 })
	try(func(d *simConfig) { d.Stream = false })
	try(func(d *simConfig) { d.Kill, d.KillRank, d.ResumeWorkers = 0, 0, 0 })
	try(func(d *simConfig) {
		if d.Kill == 0 {
			d.Every = 0
		}
	})
	try(func(d *simConfig) { d.Kill = max(d.Kill/2, min(d.Kill, 1)) })
	try(func(d *simConfig) { d.Poll, d.BufCap = 0, 0 })
	try(func(d *simConfig) { d.AltHub, d.AltRanks, d.ResumeAltRanks = 0, 0, 0 })
	try(func(d *simConfig) { d.X = max(1, d.X-1) })
	return out
}

// shrinkSim greedily simplifies a failing configuration while it keeps
// failing and returns the smallest one found with its error.
func shrinkSim(t *testing.T, c simConfig, err error, dir string) (simConfig, error) {
	for tries := 0; tries < 200; {
		progressed := false
		for _, d := range simShrinks(c) {
			tries++
			if _, e := checkSim(t, d, dir); e != nil {
				c, err, progressed = d, e, true
				break
			}
		}
		if !progressed {
			break
		}
	}
	return c, err
}

// simConfigs is TestSimProperty's default budget, drawn from simSeed.
const (
	simConfigs = 1500
	simSeed    = 0x51ed
)

// The determinism contract, checked as one property (DESIGN.md §8.1):
// for random configurations and schedules the engine's output equals
// the sequential copy model's, every retained epoch is a consistent
// cut, a killed run resumes to the same graph, and the network never
// deadlocks or carries a frame past its receiver's stop. A failure is
// shrunk and printed as a simConfig literal; add it to simRegressions
// to replay it.
func TestSimProperty(t *testing.T) {
	rng := xrand.New(simSeed)
	dir := t.TempDir()
	dims := []string{"multi-rank", "killed mid-run", "checkpointed", "mixed-hub", "resumed under another hub", "recompute", "multi-worker", "streamed"}
	seen := make([]int, len(dims))
	for i := 0; i < simConfigs; i++ {
		c := drawSimConfig(rng)
		o, err := checkSim(t, c, dir)
		if err != nil {
			small, serr := shrinkSim(t, c, err, dir)
			t.Fatalf("config %d fails: %v\nsmallest failing config:\n\t%s,\nits failure: %v", i, err, small.literal(), serr)
		}
		for d, ok := range []bool{c.Ranks > 1, o.crashed, o.epochs > 0, c.mixedHub(), o.crashed && c.resumedHub(),
			c.Resolve == ResolveRecompute && c.Ranks > 1, c.Workers > 1 || c.ResumeWorkers > 1, c.Stream} {
			if ok {
				seen[d]++
			}
		}
	}
	for d, name := range dims {
		t.Logf("%d of %d configs %s", seen[d], simConfigs, name)
		if seen[d] == 0 {
			t.Errorf("no %s config in the budget; the property no longer exercises it", name)
		}
	}
}

// simRegressions are shrunk configurations TestSimProperty failed on,
// replayed exactly. It has found no defect in the engine so far; these
// are the schedules on which it caught deliberately broken copies of
// the engine, one per protocol rule, each commented with the breakage.
var simRegressions = []simConfig{
	// a cut that does not relay its marker (the inconsistent cut behind the restart hang)
	simConfig{N: 901, X: 8, P: 0.64, Seed: 0x83e2b71743294f95, Scheme: 0, Ranks: 2, Workers: 1, Resolve: 0, Depth: 0, Hub: 0, Stream: false, Every: 150, Poll: 32, BufCap: 1, Kill: 1, KillRank: 0, ResumeWorkers: 1, Sched: 0xc1effdfe9542c4b7, Deliver: 0.5, AltHub: 0, AltRanks: 0x0, ResumeAltRanks: 0x0},
	// a rank that leaves its receive loop with cut markers still owed (a relay read after stop)
	simConfig{N: 1313, X: 3, P: 0.25, Seed: 0x46796ac64cfcee14, Scheme: 3, Ranks: 3, Workers: 1, Resolve: 1, Depth: 1, Hub: 5, Stream: false, Every: 145, Poll: 1, BufCap: 1, Kill: 0, KillRank: 0, ResumeWorkers: 0, Sched: 0xf556c6593d1fbe93, Deliver: 0.1, AltHub: 0, AltRanks: 0x0, ResumeAltRanks: 0x0},
	// a straight-line commit of a local copy that skips its trace record
	simConfig{N: 23, X: 6, P: 0.89, Seed: 0xbbb1a2c1d85907fc, Scheme: 0, Ranks: 4, Workers: 1, Resolve: 0, Depth: 0, Hub: -1, Stream: false, Every: 0, Poll: 0, BufCap: 0, Kill: 0, KillRank: 0, ResumeWorkers: 0, Sched: 0x8e1732a3f3ead1ee, Deliver: 0.5, AltHub: 0, AltRanks: 0x0, ResumeAltRanks: 0x0},
	// a node re-suspended on a retry with its retry count reset (a livelock)
	simConfig{N: 12, X: 4, P: 0.49, Seed: 0x5f7caad3db74f296, Scheme: 3, Ranks: 3, Workers: 1, Resolve: 0, Depth: 0, Hub: -1, Stream: false, Every: 0, Poll: 0, BufCap: 0, Kill: 0, KillRank: 0, ResumeWorkers: 0, Sched: 0xceebd9ed6d07003f, Deliver: 0.1, AltHub: 0, AltRanks: 0x0, ResumeAltRanks: 0x0},
	// a restore that drops a waiter record (a resumed run that deadlocks)
	simConfig{N: 60, X: 1, P: 0.67, Seed: 0xadd58cee0f48f41a, Scheme: 1, Ranks: 3, Workers: 1, Resolve: 0, Depth: 0, Hub: -1, Stream: false, Every: 8, Poll: 1, BufCap: 0, Kill: 57, KillRank: 1, ResumeWorkers: 1, Sched: 0x3de8042c05c790b3, Deliver: 0.9, AltHub: 0, AltRanks: 0x0, ResumeAltRanks: 0x0},
}

func TestSimRegressions(t *testing.T) {
	for i, c := range simRegressions {
		if _, err := checkSim(t, c, t.TempDir()); err != nil {
			t.Errorf("regression %d (%s): %v", i, c.literal(), err)
		}
	}
}

// The schedule is the seed: one (config, schedule seed) pair replays
// the same transport events, and another seed interleaves them
// differently.
func TestSimReplaysExactly(t *testing.T) {
	c := simConfig{N: 2_000, X: 3, P: 0.5, Seed: 7, Scheme: partition.KindRRP, Ranks: 3, Workers: 2,
		Hub: 0, Every: 300, BufCap: 4, Sched: 11, Deliver: 0.5}
	var logs []uint64
	for _, sched := range []uint64{11, 11, 12} {
		c.Sched = sched
		o, err := checkSim(t, c, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if o.epochs == 0 {
			t.Fatal("no epoch retained; the replay covers no checkpoint traffic")
		}
		logs = append(logs, o.log)
	}
	if logs[0] != logs[1] {
		t.Fatalf("one schedule seed gave event logs %016x and %016x", logs[0], logs[1])
	}
	if logs[0] == logs[2] {
		t.Fatalf("schedule seeds 11 and 12 gave one event log %016x", logs[0])
	}
}

// A network that loses one request frame — which the protocol does not
// tolerate — must end the run with a deadlock error naming the ranks'
// states, not hang.
func TestSimDroppedRequestDeadlocks(t *testing.T) {
	pr := model.Params{N: 2_000, X: 3, P: 0.5}
	part, err := partition.New(partition.KindRRP, pr.N, 3)
	if err != nil {
		t.Fatal(err)
	}
	dropped := false
	sched := simSched{seed: 3, drop: func(src, dst int, ms []msg.Message) bool {
		if dropped || !slices.ContainsFunc(ms, func(m msg.Message) bool { return m.Kind == msg.KindRequest }) {
			return false
		}
		dropped = true
		return true
	}}
	net, _, err := simGroup(3, sched, func(int) Options {
		return Options{Params: pr, Part: part, Seed: 5, HubPrefix: -1}
	}, nil)
	if !dropped {
		t.Fatal("no request frame crossed the network")
	}
	if err == nil || !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "blocked in Recv") {
		t.Fatalf("run with a lost request: err = %v, want a deadlock naming the blocked ranks", err)
	}
	if net.steps > maxSimSteps {
		t.Fatalf("deadlock found after %d steps, past the bound", net.steps)
	}
}
