package ckpt

import (
	"reflect"
	"runtime"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the snapshot parser. The input is
// the file without its CRC trailer — the target seals it, because a
// mutated body under a stale checksum would only ever exercise the
// checksum — and is also parsed raw. Whatever the bytes hold, parse must
// not panic and must not allocate from a count the file's size does not
// back, and a file it accepts must re-encode to bytes that parse back to
// the same Snapshot, so nothing the reader admits is lost or invented by
// the writer. The seeds are real v13 Encode output: an epoch-shaped
// snapshot, one with a zero mark (a cut before the first block
// flushed), one with every field at its widest, an idle one with zero
// counters, and one of a single-rank run.
// testdata/fuzz/FuzzParse keeps an input that broke an earlier parser:
// a NaN p, unequal to itself and so never equal after a round trip.
func FuzzParse(f *testing.F) {
	zero := sample(1, 3)
	zero.Sink = SinkMark{}
	wide := sample(7, 1<<62)
	wide.Meta.N, wide.Meta.Seed, wide.Stats.Retries = 1<<57-1, 1<<64-1, 1<<62
	wide.Sink = SinkMark{Offset: 1<<63 - 1, Blocks: 1 << 40, Edges: 1<<62 + 3}
	idle := &Snapshot{Meta: zero.Meta, Epoch: 1, Sink: SinkMark{Offset: 64, Blocks: 1, Edges: 6}}
	single := epochSnapshot()
	single.Meta.Ranks, single.Meta.Rank, single.Meta.Scheme = 1, 0, "UCP"
	for _, s := range []*Snapshot{epochSnapshot(), zero, wide, idle, single} {
		data := Encode(s)
		f.Add(append([]byte(nil), data[:len(data)-4]...))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = parse(body)
		s, err := parse(reseal(append(body[:len(body):len(body)], 0, 0, 0, 0)))
		runtime.ReadMemStats(&after)
		// Every record and section costs at least one byte of file and at
		// most a few dozen bytes of memory.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(body)) {
			t.Fatalf("parsing %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			return
		}
		again, err := parse(Encode(s))
		if err != nil {
			t.Fatalf("accepted %+v, but its re-encoding does not parse: %v", s, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("re-encoding changed the snapshot:\n was %+v\n now %+v", s, again)
		}
	})
}
