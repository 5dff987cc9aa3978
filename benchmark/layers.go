package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pagen/internal/comm"
	"pagen/internal/esink"
	"pagen/internal/graph"
	"pagen/internal/msg"
	"pagen/internal/partition"
	"pagen/internal/seq"
	"pagen/internal/transport"
	"pagen/internal/xrand"
)

// layerPasses is how often each direct drive repeats; the median pass is
// reported.
const layerPasses = 3

// sink keeps the compiler from discarding a drive's results.
var sink int64

// layers drives each layer directly through its exported functions, on
// inputs taken from the run's own (n, x, p, seed): the sequential copy
// model's graph, and the request stream rank 0 would send rank 1 under
// the two-rank round-robin partition, synthesised from that run's
// decision trace so that codec and transports see real (t, e, k, l)
// batches of the size comm flushes at.
type layers struct {
	in      input
	dir     string
	start   time.Time // of the traced run, for passes
	tr      *tracer
	m       metrics
	g       *graph.Graph
	part    partition.Scheme
	batches [][]msg.Message
	msgs    int
	v3      [][]byte // the batches as v3 frames, once codec has run
}

func driveLayers(in input, dir string, start time.Time, tr *tracer, m metrics) error {
	part, err := partition.New(partition.KindRRP, in.pr.N, 2)
	if err != nil {
		return err
	}
	g, dec, err := seq.CopyModel(in.pr, in.seed, seq.CopyModelOptions{RecordTrace: true})
	if err != nil {
		return err
	}
	l := &layers{in: in, dir: dir, start: start, tr: tr, m: m, g: g, part: part}
	var reqs []msg.Message
	for t := int64(in.pr.X) + 1; t < in.pr.N; t++ {
		for e := 0; e < in.pr.X; e++ {
			i := dec.Idx(t, e)
			if dec.Copied[i] && part.Owner(t) == 0 && part.Owner(dec.K[i]) == 1 {
				reqs = append(reqs, msg.Request(t, e, dec.K[i], int(dec.L[i])))
			}
		}
	}
	if len(reqs) == 0 {
		return fmt.Errorf("layers: the trace holds no cross-rank request")
	}
	l.msgs = len(reqs)
	for len(reqs) > 0 {
		k := min(len(reqs), comm.DefaultBufferCap)
		l.batches = append(l.batches, reqs[:k])
		reqs = reqs[k:]
	}
	for _, drive := range []func() error{
		l.kernel, l.baseline, l.comm, l.codec, l.inProcess, l.tcp, l.partition, l.graph, l.esink,
	} {
		if err := drive(); err != nil {
			return err
		}
	}
	return nil
}

// perOp runs f layerPasses times (once, past the traced run's budget)
// inside spans and sets name to the
// median nanoseconds per operation; f returns how many operations one
// pass performed.
func (l *layers) perOp(name string, f func() (ops int, err error)) error {
	var ns []float64
	for i, n := 0, passes(l.start, layerPasses); i < n; i++ {
		err := l.tr.in("layer."+name, func() error {
			start := time.Now()
			ops, err := f()
			ns = append(ns, float64(time.Since(start))/float64(ops))
			return err
		})
		if err != nil {
			return fmt.Errorf("layer %s: %w", name, err)
		}
	}
	l.m.set(name, ns...)
	return nil
}

// kernel times the random draws and the attempt drawer in the proportion
// the generation kernel uses them: one stream seeding per node, then x
// attempts of two or three draws each.
func (l *layers) kernel() error {
	pr, seed := l.in.pr, l.in.seed
	err := l.perOp("xrand.ns_per_draw", func() (int, error) {
		var rng xrand.Rand
		draws := 0
		for t := int64(pr.X) + 1; t < pr.N; t++ {
			rng.SeedStream(seed, uint64(t))
			span := uint64(t - int64(pr.X))
			for e := 0; e < pr.X; e++ {
				sink += int64(rng.Uint64n(span))
				draws += 2
				if rng.Float64() >= pr.P {
					sink += int64(rng.Uint64n(uint64(pr.X)))
					draws++
				}
			}
		}
		return draws, nil
	})
	if err != nil {
		return err
	}
	return l.perOp("model.ns_per_attempt", func() (int, error) {
		var rng xrand.Rand
		attempts := 0
		for t := int64(pr.X) + 1; t < pr.N; t++ {
			rng.SeedStream(seed, uint64(t))
			d := pr.NewDrawer(t)
			for e := 0; e < pr.X; e++ {
				sink += d.Next(&rng).K
				attempts++
			}
		}
		return attempts, nil
	})
}

// baseline times Batagelj–Brandes, the floor for any exact BA generator.
func (l *layers) baseline() error {
	return l.perOp("seq.bb_ns_per_edge", func() (int, error) {
		g, err := seq.BatageljBrandes(l.in.pr, xrand.New(l.in.seed))
		if err != nil {
			return 1, err
		}
		return len(g.Edges), nil
	})
}

// comm times Send, the capacity flushes it triggers and Poll over a
// shared-memory pair, polling as often as the engine's default interval.
func (l *layers) comm() error {
	return l.perOp("comm.send_poll_ns_per_msg", func() (int, error) {
		group, err := transport.NewShmGroup(2)
		if err != nil {
			return 1, err
		}
		c0 := comm.New(group.Endpoint(0), comm.Config{})
		c1 := comm.New(group.Endpoint(1), comm.Config{})
		defer c0.Close()
		defer c1.Close()
		got := 0
		poll := func() error {
			ms, err := c1.Poll()
			got += len(ms)
			return err
		}
		for _, b := range l.batches {
			for _, m := range b {
				if err := c0.Send(1, m); err != nil {
					return 1, err
				}
			}
			if err := poll(); err != nil {
				return 1, err
			}
		}
		if err := c0.FlushAll(); err != nil {
			return 1, err
		}
		if err := poll(); err != nil {
			return 1, err
		}
		if got != l.msgs {
			return 1, fmt.Errorf("polled %d of %d messages", got, l.msgs)
		}
		return l.msgs, nil
	})
}

// frames encodes every batch into one arena and returns the frames.
func (l *layers) frames(encode func(dst []byte, ms []msg.Message) []byte) [][]byte {
	arena := make([]byte, 0, l.msgs*msg.EncodedSize)
	frames := make([][]byte, len(l.batches))
	for i, b := range l.batches {
		start := len(arena)
		arena = encode(arena, b)
		frames[i] = arena[start:len(arena):len(arena)]
	}
	return frames
}

func frameBytes(frames [][]byte) (total int) {
	for _, f := range frames {
		total += len(f)
	}
	return total
}

func (l *layers) codec() error {
	err := l.perOp("msg.encode_v3_ns_per_msg", func() (int, error) {
		l.v3 = l.frames(msg.AppendEncodeBatchV3)
		return l.msgs, nil
	})
	if err != nil {
		return err
	}
	l.m.set("msg.v3_bytes_per_msg", float64(frameBytes(l.v3))/float64(l.msgs))
	l.m.set("msg.v2_bytes_per_msg", float64(frameBytes(l.frames(msg.AppendEncodeBatchV2)))/float64(l.msgs))
	var dst []msg.Message
	return l.perOp("msg.decode_ns_per_msg", func() (int, error) {
		for i, f := range l.v3 {
			var err error
			if dst, err = msg.DecodeBatch(dst[:0], f); err != nil {
				return 1, err
			}
			if len(dst) != len(l.batches[i]) || dst[0] != l.batches[i][0] {
				return 1, fmt.Errorf("frame %d decoded to %d messages, first %+v", i, len(dst), dst[0])
			}
		}
		return l.msgs, nil
	})
}

// inProcess times one batch's trip between two co-located endpoints:
// lease, fill, send, receive, release — by reference over shm, as
// encoded bytes over local.
func (l *layers) inProcess() error {
	err := l.perOp("transport.shm_ns_per_batch", func() (int, error) {
		group, err := transport.NewShmGroup(2)
		if err != nil {
			return 1, err
		}
		from, to := group.Endpoint(0), group.Endpoint(1)
		defer from.Close()
		defer to.Close()
		for _, b := range l.batches {
			ms := append(transport.LeaseMsgs(len(b)), b...)
			if err := from.(transport.MsgSender).SendMsgs(1, ms); err != nil {
				return 1, err
			}
			f, err := to.Recv()
			if err != nil {
				return 1, err
			}
			sink += int64(len(f.Msgs))
			transport.ReleaseMsgs(f.Msgs)
		}
		return len(l.batches), nil
	})
	if err != nil {
		return err
	}
	frames := l.v3
	return l.perOp("transport.local_ns_per_batch", func() (int, error) {
		group, err := transport.NewLocalGroup(2)
		if err != nil {
			return 1, err
		}
		from, to := group.Endpoint(0), group.Endpoint(1)
		defer from.Close()
		defer to.Close()
		for _, b := range frames {
			if err := from.Send(1, append(transport.LeaseFrame(len(b)), b...)); err != nil {
				return 1, err
			}
			f, err := to.Recv()
			if err != nil {
				return 1, err
			}
			sink += int64(len(f.Data))
			transport.ReleaseFrame(f.Data)
		}
		return len(frames), nil
	})
}

// tcpPair connects two loopback endpoints.
func tcpPair() (eps [2]*transport.TCP, err error) {
	addrs, err := loopbackAddrs(2)
	if err != nil {
		return eps, err
	}
	errs := make(chan error, len(eps))
	for r := range eps {
		go func(r int) {
			var err error
			eps[r], err = transport.NewTCP(r, addrs)
			errs <- err
		}(r)
	}
	for range eps {
		if e := <-errs; e != nil {
			err = e
		}
	}
	if err != nil {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}
	return eps, err
}

// tcp streams the frames one way between two loopback endpoints; the
// clock stops when the receiver has the last one.
func (l *layers) tcp() error {
	frames := l.v3
	eps, err := tcpPair()
	if err != nil {
		return fmt.Errorf("layer transport.tcp: %w", err)
	}
	defer eps[1].Close()
	defer eps[0].Close()
	err = l.perOp("transport.tcp_ns_per_frame", func() (int, error) {
		received := make(chan error, 1)
		go func() {
			for range frames {
				f, err := eps[1].Recv()
				if err != nil {
					received <- err
					return
				}
				transport.ReleaseFrame(f.Data)
			}
			received <- nil
		}()
		for _, b := range frames {
			if err := eps[0].Send(1, append(transport.LeaseFrame(len(b)), b...)); err != nil {
				return 1, err
			}
		}
		return len(frames), <-received
	})
	if err != nil {
		return err
	}
	nsPerFrame := l.m["transport.tcp_ns_per_frame"].Value
	bytesPerFrame := float64(frameBytes(frames)) / float64(len(frames))
	l.m.set("transport.tcp_mb_per_s", bytesPerFrame/nsPerFrame*1e9/1e6)
	return nil
}

func (l *layers) partition() error {
	return l.perOp("partition.owner_index_ns_per_call", func() (int, error) {
		for t := int64(0); t < l.in.pr.N; t++ {
			sink += l.part.Index(l.part.Owner(t), t)
		}
		return int(l.in.pr.N), nil
	})
}

// graph times the gather of two rank shards and both graph writers, to a
// file but without the fsync the workloads time separately.
func (l *layers) graph() error {
	shards := make([][]graph.Edge, 2)
	for _, e := range l.g.Edges {
		r := l.part.Owner(e.U)
		shards[r] = append(shards[r], e)
	}
	edges := len(l.g.Edges)
	err := l.perOp("graph.merge_ns_per_edge", func() (int, error) {
		if got := graph.Merge(l.in.pr.N, shards...).M(); got != int64(edges) {
			return 1, fmt.Errorf("merged %d of %d edges", got, edges)
		}
		return edges, nil
	})
	if err != nil {
		return err
	}
	path := filepath.Join(l.dir, "layer-graph.bin")
	write := func(name string, w func(f *os.File) error) error {
		return l.perOp(name, func() (int, error) {
			f, err := os.Create(path)
			if err != nil {
				return 1, err
			}
			defer f.Close()
			if err := w(f); err != nil {
				return 1, err
			}
			return edges, f.Close()
		})
	}
	err = write("graph.write_binary_ns_per_edge", func(f *os.File) error { return graph.WriteBinary(f, l.g) })
	if err != nil {
		return err
	}
	return write("graph.write_stream_ns_per_edge", func(f *os.File) error {
		return graph.WriteBinaryStream(f, l.in.pr.N, int64(edges), graph.IterEdges(l.g))
	})
}

// esink writes the run's edges through a one-rank shard writer under the
// keys the engine would use (local node index times x, plus the edge's
// position among its node's), then reads the shard back.
func (l *layers) esink() error {
	pr := l.in.pr
	dir := filepath.Join(l.dir, "layer-shards")
	meta := esink.Meta{N: pr.N, X: pr.X, P: pr.P, Seed: l.in.seed, Ranks: 1, Scheme: "RRP"}
	err := l.perOp("esink.emit_ns_per_edge", func() (int, error) {
		w, err := esink.Open(dir, meta, 0)
		if err != nil {
			return 1, err
		}
		if err := w.Reset(); err != nil {
			w.Abort()
			return 1, err
		}
		node, pos := int64(-1), uint64(0)
		for _, e := range l.g.Edges {
			if e.U != node {
				node, pos = e.U, 0
			}
			if err := w.Emit(uint64(e.U)*uint64(pr.X)+pos, e.V); err != nil {
				w.Abort()
				return 1, err
			}
			pos++
		}
		return len(l.g.Edges), w.Close()
	})
	if err != nil {
		return err
	}
	err = l.perOp("esink.read_ns_per_edge", func() (int, error) {
		d, err := esink.OpenDir(dir, 1)
		if err != nil {
			return 1, err
		}
		defer d.Close()
		it, n := d.Iter(0), 0
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			sink += e.V
			n++
		}
		if n != len(l.g.Edges) {
			return 1, fmt.Errorf("read %d of %d edges back (%v)", n, len(l.g.Edges), it.Err())
		}
		return n, it.Err()
	})
	if err != nil {
		return err
	}
	// The hash check runs outside the timed passes.
	d, err := esink.OpenDir(dir, 1)
	if err != nil {
		return err
	}
	defer d.Close()
	got, err := fingerprintIter(d.Iter(0))
	if want := fingerprintEdges(l.g.Edges); err == nil && got != want {
		err = fmt.Errorf("layer esink: shard read back as %v, wrote %v", got, want)
	}
	return err
}
