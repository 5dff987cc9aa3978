package transport

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"
)

// FuzzFrameReader feeds arbitrary bytes through a frameReader in reads of
// at most chunk bytes with a staging buffer of 4+staging bytes, the way a
// peer's socket can deliver them. The frames emitted must be exactly the
// stream's well-formed length-prefixed prefix: nothing past a goodbye
// marker, nothing from a truncated tail, and an oversize prefix is an
// error before anything is leased for it. No input may panic. Inputs
// that end inside a frame announced as over 1 MiB are skipped: the
// reader leases a legal frame whole, and the fuzzer runs in parallel.
func FuzzFrameReader(f *testing.F) {
	stream, _ := splitAnywhereStream()
	f.Add(stream, uint16(1), uint16(0))
	f.Add(stream, uint16(7), uint16(3))
	f.Add(stream, uint16(4096), uint16(60))
	f.Add(stream[:100], uint16(13), uint16(100))
	oversize := binary.LittleEndian.AppendUint32(append([]byte(nil), stream[:5]...), maxFrameSize+1)
	f.Add(oversize, uint16(3), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, chunk, staging uint16) {
		// The reference parse.
		var want [][]byte
		goodbye, bad := false, false
		for rest := data; len(rest) >= 4; {
			size := int(binary.LittleEndian.Uint32(rest))
			if size == 0 {
				goodbye = true
				break
			}
			if size > maxFrameSize {
				bad = true
				break
			}
			if len(rest)-4 < size {
				if size > 1<<20 {
					// A legal length the input cannot back still leases
					// that much; keep each run's memory small.
					t.Skip()
				}
				break
			}
			want = append(want, rest[4:4+size])
			rest = rest[4+size:]
		}

		inbox := newMailbox()
		fr := &frameReader{inbox: inbox, from: 3, buf: make([]byte, 4+int(staging))}
		var counted atomic.Int64
		var emitted int
		var end bool
		var err error
		for b := data; len(b) > 0 && !end; {
			tgt := fr.target()
			if len(tgt) == 0 {
				t.Fatal("target() returned no room")
			}
			n := copy(tgt[:min(len(tgt), max(int(chunk), 1))], b)
			b = b[n:]
			var got int
			got, end, err = fr.advance(n, &counted)
			emitted += got
		}
		switch {
		case bad && err == nil:
			t.Fatal("oversize prefix accepted")
		case !bad && err != nil:
			t.Fatalf("well-formed stream rejected: %v", err)
		case (goodbye || bad) != end:
			t.Fatalf("end = %v, goodbye %v, oversize %v", end, goodbye, bad)
		}
		if emitted != len(want) || counted.Load() != int64(len(want)) {
			t.Fatalf("%d frames emitted, %d counted, want %d", emitted, counted.Load(), len(want))
		}
		for i, w := range want {
			got, ok, _ := inbox.pop(false)
			if !ok || got.From != 3 || !bytes.Equal(got.Data, w) {
				t.Fatalf("frame %d = %d bytes (ok=%v), want %d", i, len(got.Data), ok, len(w))
			}
			ReleaseFrame(got.Data)
		}
		if _, ok, _ := inbox.pop(false); ok {
			t.Fatal("a frame past the well-formed prefix was emitted")
		}
	})
}
