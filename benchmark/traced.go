package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"pagen/internal/ckpt"
	"pagen/internal/core"
	"pagen/internal/seq"
)

// perLayer lists the metrics of the traced run, by module.
var perLayer = []metricDef{
	// Self time of each call the repetition makes, per edge: together
	// they add up to the traced repetition's ns per edge.
	{"trace.overhead_frac", "ratio"},
	{"trace.rep_self_ns_per_edge", "ns"},
	{"trace.core_run_ns_per_edge", "ns"},
	{"trace.graph_merge_ns_per_edge", "ns"},
	{"trace.esink_open_ns_per_edge", "ns"},
	{"trace.graph_write_ns_per_edge", "ns"},
	{"trace.fsync_ns_per_edge", "ns"},
	// Counters of this workload's own repetitions.
	{"core.run_ns_per_edge", "ns"},
	{"core.over_seq", "ratio"},
	{"core.post_ns_per_edge", "ns"},
	{"core.busy_frac", "ratio"},
	{"core.retries_per_edge", "1/edge"},
	{"core.local_waits_per_edge", "1/edge"},
	{"core.queued_waits_per_edge", "1/edge"},
	{"core.max_pending_slots", "count"},
	{"core.msgs_per_edge", "1/edge"},
	{"core.hub_hit_ratio", "ratio"},
	{"core.req_coalesced_per_edge", "1/edge"},
	{"comm.msgs_per_frame", "count"},
	{"comm.bytes_per_msg", "B"},
	{"comm.frames_per_kedge", "count"},
	{"esink.bytes_per_edge", "B"},
	{"esink.fsync_ms", "ms"},
	{"ckpt.epochs", "count"},
	{"ckpt.pause_ms_per_epoch", "ms"},
	{"ckpt.write_ms_per_epoch", "ms"},
	{"ckpt.bytes_per_epoch", "B"},
	{"ckpt.pause_frac", "ratio"},
	// Layers driven directly (layers.go).
	{"xrand.ns_per_draw", "ns"},
	{"model.ns_per_attempt", "ns"},
	{"seq.bb_ns_per_edge", "ns"},
	{"comm.send_poll_ns_per_msg", "ns"},
	{"msg.encode_v3_ns_per_msg", "ns"},
	{"msg.decode_ns_per_msg", "ns"},
	{"msg.v3_bytes_per_msg", "B"},
	{"msg.v2_bytes_per_msg", "B"},
	{"transport.shm_ns_per_batch", "ns"},
	{"transport.local_ns_per_batch", "ns"},
	{"transport.tcp_ns_per_frame", "ns"},
	{"transport.tcp_mb_per_s", "MB/s"},
	{"partition.owner_index_ns_per_call", "ns"},
	{"graph.merge_ns_per_edge", "ns"},
	{"graph.write_binary_ns_per_edge", "ns"},
	{"graph.write_stream_ns_per_edge", "ns"},
	{"esink.emit_ns_per_edge", "ns"},
	{"esink.read_ns_per_edge", "ns"},
	// The ladder, and what only one of its rungs can measure.
	{"ladder.L0_seq", "ns"},
	{"ladder.L1_1x1", "ns"},
	{"ladder.L2_workers2", "ns"},
	{"ladder.L2_steals", "count"},
	{"ladder.L3_shm2", "ns"},
	{"ladder.L3_recompute", "ns"},
	{"ladder.L3_hub_off", "ns"},
	{"ladder.L4_local_codec", "ns"},
	{"ladder.L5_tcp", "ns"},
	{"ladder.L5_tcp_recompute", "ns"},
	{"ladder.L6_esink", "ns"},
	{"ladder.L7_ckpt", "ns"},
	{"core.recompute_fallback_ratio", "ratio"},
	{"core.replay_depth_p99", "count"},
	{"ckpt.latest_read_ms", "ms"},
}

// spanMetrics maps the spans of a repetition to their metrics.
var spanMetrics = map[string]string{
	"rep":         "trace.rep_self_ns_per_edge",
	"core.run":    "trace.core_run_ns_per_edge",
	"graph.merge": "trace.graph_merge_ns_per_edge",
	"esink.open":  "trace.esink_open_ns_per_edge",
	"graph.write": "trace.graph_write_ns_per_edge",
	"fsync":       "trace.fsync_ns_per_edge",
}

// ladderReps is the number of repetitions behind each rung's median.
const ladderReps = 3

// tracedBudget is how long a traced run may take before it stops
// repeating: past it, every remaining rung and layer drive runs once
// instead of three times. On a calm host a traced run takes about 45 s;
// a host slowed fourfold by its neighbours would otherwise carry it past
// the 180 s a driver allows, and its medians would mean nothing anyway.
const tracedBudget = 75 * time.Second

// passes is want, or 1 once the traced run has used up its budget.
func passes(start time.Time, want int) int {
	if time.Since(start) > tracedBudget {
		return 1
	}
	return want
}

// traced is the traced run: the per-layer metrics. Its repetitions
// alternate with untraced ones so that the tracing overhead is measured
// within one process, and its spans go to traceFile.
func (b *bench) traced(traceFile string) (metrics, error) {
	start := time.Now()
	if err := b.setUp(); err != nil {
		return nil, err
	}
	tr := newTracer()
	m := metrics{}
	if err := b.tracedReps(tr, m); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.tmp, "layers-")
	if err != nil {
		return nil, err
	}
	if err := driveLayers(b.in, dir, start, tr, m); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := b.runLadder(start, tr, m); err != nil {
		return nil, err
	}
	m.set("core.over_seq", ratio(m["core.run_ns_per_edge"].Value, m["ladder.L0_seq"].Value))
	return m, tr.writeFile(traceFile)
}

// tracedReps runs pairs of untraced and traced repetitions for half the
// run's seconds (at least minReps pairs), and derives the overhead, span
// and counter metrics from them.
func (b *bench) tracedReps(tr *tracer, m metrics) error {
	var overhead []float64
	var reps []*repOut
	for start := time.Now(); len(overhead) < minReps || time.Since(start).Seconds() < b.seconds/2; {
		plain, ok := b.countedRep(nil)
		traced, ok2 := b.countedRep(tr)
		if !ok || !ok2 {
			return fmt.Errorf("%s: a repetition of the traced run failed", b.w.name)
		}
		reps = append(reps, plain.rep, traced.rep)
		// Each traced repetition is compared with its untraced
		// neighbour, so that a drift in the host's speed cancels.
		overhead = append(overhead, float64(traced.wall)/float64(plain.wall)-1)
	}
	m.set("trace.overhead_frac", overhead...)

	edges := float64(b.in.pr.M())
	self := tr.selfByName()
	for spanName, name := range spanMetrics {
		samples := []float64{0} // a call this workload never makes costs nothing
		if s := self[spanName]; len(s) > 0 {
			samples = s
		}
		for i := range samples {
			samples[i] /= edges
		}
		m.set(name, samples...)
	}

	sums := make([]totals, len(reps))
	for i, r := range reps {
		sums[i] = totalOf(r.ranks)
	}
	// per sets name to the median over the repetitions of f.
	per := func(name string, f func(i int) float64) {
		samples := make([]float64, len(reps))
		for i := range reps {
			samples[i] = f(i)
		}
		m.set(name, samples...)
	}
	per("core.run_ns_per_edge", func(i int) float64 { return float64(reps[i].elapsed) / edges })
	per("core.post_ns_per_edge", func(i int) float64 { return float64(reps[i].genWall-reps[i].elapsed) / edges })
	for name, f := range map[string]func(t totals) float64{
		"core.busy_frac":              func(t totals) float64 { return ratio(t.busy, t.wall) },
		"core.retries_per_edge":       func(t totals) float64 { return t.retries / edges },
		"core.local_waits_per_edge":   func(t totals) float64 { return t.localWaits / edges },
		"core.queued_waits_per_edge":  func(t totals) float64 { return t.queuedWaits / edges },
		"core.max_pending_slots":      func(t totals) float64 { return t.maxPending },
		"core.msgs_per_edge":          func(t totals) float64 { return t.msgs / edges },
		"core.hub_hit_ratio":          func(t totals) float64 { return ratio(t.hubHits, t.hubHits+t.hubMisses) },
		"core.req_coalesced_per_edge": func(t totals) float64 { return t.coalesced / edges },
		"comm.msgs_per_frame":         func(t totals) float64 { return ratio(t.msgs, t.frames) },
		"comm.bytes_per_msg":          func(t totals) float64 { return ratio(t.bytes, t.msgs) },
		"comm.frames_per_kedge":       func(t totals) float64 { return t.frames / (edges / 1000) },
		"esink.bytes_per_edge":        func(t totals) float64 { return t.sinkBytes / edges },
		"esink.fsync_ms":              func(t totals) float64 { return t.sinkFsync / 1e6 },
		// Every rank commits the same epochs, so a sum over ranks divided
		// by the summed epoch count is a mean per rank and epoch.
		"ckpt.epochs":             func(t totals) float64 { return t.epochs / t.ranks },
		"ckpt.pause_ms_per_epoch": func(t totals) float64 { return ratio(t.ckptPause/1e6, t.epochs) },
		"ckpt.write_ms_per_epoch": func(t totals) float64 { return ratio(t.ckptWrite/1e6, t.epochs) },
		"ckpt.bytes_per_epoch":    func(t totals) float64 { return ratio(t.ckptBytes, t.epochs) },
		"ckpt.pause_frac":         func(t totals) float64 { return ratio(t.ckptPause, t.wall) },
	} {
		per(name, func(i int) float64 { return f(sums[i]) })
	}
	return nil
}

// totals are one generation's rank statistics added over its ranks
// (durations in nanoseconds); maxPending is the largest rank's.
type totals struct {
	ranks, busy, wall, retries, localWaits, queuedWaits, maxPending float64
	msgs, frames, bytes, hubHits, hubMisses, coalesced              float64
	sinkBytes, sinkFsync, epochs, ckptPause, ckptWrite, ckptBytes   float64
	steals, recomputed, recomputeFallback                           float64
}

func totalOf(ranks []core.RankStats) totals {
	t := totals{ranks: float64(len(ranks))}
	for _, st := range ranks {
		t.busy += float64(st.BusyTime)
		t.wall += float64(st.WallTime)
		t.retries += float64(st.Retries)
		t.localWaits += float64(st.LocalWaits)
		t.queuedWaits += float64(st.QueuedWaits)
		t.maxPending = max(t.maxPending, float64(st.MaxPendingSlots))
		t.msgs += float64(st.Comm.MessagesSent())
		t.frames += float64(st.Comm.FramesSent)
		t.bytes += float64(st.Comm.BytesSent)
		t.hubHits += float64(st.HubCacheHits)
		t.hubMisses += float64(st.HubCacheMisses)
		t.coalesced += float64(st.ReqCoalesced)
		t.sinkBytes += float64(st.SinkBytes)
		t.sinkFsync += float64(st.SinkFsyncTime)
		t.epochs += float64(st.CkptEpochs)
		t.ckptPause += float64(st.CkptPauseTime)
		t.ckptWrite += float64(st.CkptWriteTime)
		t.ckptBytes += float64(st.CkptBytes)
		t.steals += float64(st.Steals)
		t.recomputed += float64(st.RecomputeResolved)
		t.recomputeFallback += float64(st.RecomputeFallback)
	}
	return t
}

// runLadder measures every rung at the run's input: the median over
// ladderReps generations (one, past the traced run's budget) of the
// parallel section's ns per edge, each generation verified against the
// oracle.
func (b *bench) runLadder(start time.Time, tr *tracer, m metrics) error {
	edges := float64(b.in.pr.M())
	var seqNs []float64
	for i, reps := 0, passes(start, ladderReps); i < reps; i++ {
		debug.FreeOSMemory() // as before a workload repetition
		err := tr.in("ladder.L0_seq", func() error {
			t0 := time.Now()
			g, _, err := seq.CopyModel(b.in.pr, b.in.seed, seq.CopyModelOptions{})
			if err != nil {
				return err
			}
			seqNs = append(seqNs, float64(time.Since(t0))/edges)
			return b.check("L0_seq", fingerprintEdges(g.Edges), nil)
		})
		if err != nil {
			return err
		}
	}
	m.set("ladder.L0_seq", seqNs...)

	for _, r := range ladder {
		var ns, steals []float64
		for i, reps := 0, passes(start, ladderReps); i < reps; i++ {
			dir, err := os.MkdirTemp(b.tmp, r.name+"-")
			if err != nil {
				return err
			}
			debug.FreeOSMemory() // as before a workload repetition
			var out *genOut
			err = tr.in("ladder."+r.name, func() (err error) {
				out, err = r.generate(b.in, dir)
				return err
			})
			if err == nil {
				var fp fingerprint
				fp, err = out.fingerprint()
				err = b.check(r.name, fp, err)
			}
			if err != nil {
				return err
			}
			ns = append(ns, float64(out.elapsed)/edges)
			steals = append(steals, totalOf(out.ranks).steals)
			if i == reps-1 {
				if err := b.rungExtras(r, dir, out, tr, m); err != nil {
					return err
				}
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		m.set("ladder."+r.name, ns...)
		if r.name == "L2_workers2" {
			m.set("ladder.L2_steals", steals...)
		}
	}
	return nil
}

// check counts one verified generation of the ladder.
func (b *bench) check(rung string, fp fingerprint, err error) error {
	b.ops++
	if err == nil && fp != b.oracle {
		err = fmt.Errorf("fingerprint %v, the oracle %v", fp, b.oracle)
	}
	if err != nil {
		b.failed++
		return fmt.Errorf("ladder rung %s: %w", rung, err)
	}
	return nil
}

// rungExtras reports what no workload's own counters can: the recompute
// resolver's fallback ratio and replay depth from the rung that turns it
// on, and the cost of reading back the checkpoint chain the
// checkpointing rung retained.
func (b *bench) rungExtras(r rung, dir string, out *genOut, tr *tracer, m metrics) error {
	switch r.name {
	case "L3_recompute":
		t := totalOf(out.ranks)
		m.set("core.recompute_fallback_ratio", ratio(t.recomputeFallback, t.recomputed+t.recomputeFallback))
		depth := out.ranks[0].ReplayDepth
		for _, st := range out.ranks[1:] {
			depth.Merge(st.ReplayDepth)
		}
		m.set("core.replay_depth_p99", float64(depth.Quantile(0.99)))
	case "L7_ckpt":
		ckptDir := r.config(b.in, dir).CheckpointDir
		return tr.in("layer.ckpt.latest", func() error {
			start := time.Now()
			for rank := range out.ranks {
				snap, skipped, err := ckpt.Latest(ckptDir, rank)
				if err != nil {
					return err
				}
				if snap == nil {
					return fmt.Errorf("ckpt.Latest(rank %d): no restorable snapshot (skipped %v)", rank, skipped)
				}
			}
			m.set("ckpt.latest_read_ms", time.Since(start).Seconds()*1e3/float64(len(out.ranks)))
			return nil
		})
	}
	return nil
}
