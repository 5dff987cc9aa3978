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
// back; a file it accepts must be safe to overlay (delta ranges inside
// the table they claim) and must re-encode to bytes that parse back to
// the same Snapshot, so nothing the reader admits is lost or invented by
// the writer. The seeds are real Encoder output;
// testdata/fuzz/FuzzParse keeps the inputs that broke the v5 parser: a
// NaN p (unequal to itself, so never equal after a round trip) and a
// delta range whose end wraps past int64 and so passed the bounds check.
func FuzzParse(f *testing.F) {
	var enc Encoder
	full := sample(0, 4)
	ranges := deltaSample(full, 5, []DeltaRange{
		{Start: 0, Values: []int64{3}},
		{Start: 2, Values: []int64{9, -1, 8}},
		{Start: 5, Values: []int64{1 << 40}},
	})
	idle := &Snapshot{Meta: full.Meta, Epoch: 1, F: []int64{}}
	for _, s := range []*Snapshot{full, ranges, streamedSample(1, 3), idle} {
		data := enc.Encode(s)
		f.Add(append([]byte(nil), data[:len(data)-4]...))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = parse(body)
		s, err := parse(reseal(append(body[:len(body):len(body)], 0, 0, 0, 0)))
		runtime.ReadMemStats(&after)
		// Every table entry, range, record and section costs at least
		// one byte of file and at most a few dozen bytes of memory.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(body)) {
			t.Fatalf("parsing %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			return
		}
		if s.Kind == KindDelta && s.FLen <= 1<<20 {
			table := make([]int64, s.FLen)
			for _, dr := range s.Delta {
				copy(table[dr.Start:dr.Start+int64(len(dr.Values))], dr.Values)
			}
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
