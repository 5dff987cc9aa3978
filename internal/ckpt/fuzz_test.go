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
// the writer. The seeds are real v12 Encoder output: snapshots with
// answers held ahead, waiter queues and a non-empty window of F (one a
// lone suspended node with no waiter, one epoch-shaped, one with what a
// marker cut records in flight — an answer for a node's frontier edge
// and a waiter of a slot the window holds final), and an idle one whose
// 'W' and 'F' sections are empty.
// testdata/fuzz/FuzzParse keeps an input that broke an earlier parser:
// a NaN p, unequal to itself and so never equal after a round trip.
func FuzzParse(f *testing.F) {
	var enc Encoder
	lone := sample(1, 3)
	lone.Susp, lone.Ahead, lone.Waiters = lone.Susp[:1], lone.Ahead[:1], nil
	idle := &Snapshot{Meta: lone.Meta, Epoch: 1, Sink: SinkMark{Offset: 64, Blocks: 1, Edges: 6}}
	// Node 17's frontier edge 2 is slot 70; window slot 4001 holds 0.
	recorded := sample(2, 5)
	recorded.Ahead = append(recorded.Ahead, AheadRecord{Slot: 70, V: 5})
	recorded.Waiters = append(recorded.Waiters, WaiterRecord{Slot: 4001, T: 202, E: 3})
	for _, s := range []*Snapshot{sample(0, 4), lone, epochSnapshot(4, 8), idle, recorded} {
		data := enc.Encode(s)
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
		var enc Encoder
		again, err := parse(enc.Encode(s))
		if err != nil {
			t.Fatalf("accepted %+v, but its re-encoding does not parse: %v", s, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("re-encoding changed the snapshot:\n was %+v\n now %+v", s, again)
		}
	})
}
