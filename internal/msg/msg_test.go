package msg

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstructors(t *testing.T) {
	r := Request(10, 2, 7, 1)
	if r.Kind != KindRequest || r.T != 10 || r.E != 2 || r.K != 7 || r.L != 1 {
		t.Fatalf("Request = %+v", r)
	}
	v := Resolved(10, 2, 5)
	if v.Kind != KindResolved || v.T != 10 || v.E != 2 || v.V != 5 {
		t.Fatalf("Resolved = %+v", v)
	}
	d := Done(3)
	if d.Kind != KindDone || d.T != 3 {
		t.Fatalf("Done = %+v", d)
	}
	if Stop().Kind != KindStop {
		t.Fatal("Stop kind wrong")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindRequest: "request", KindResolved: "resolved",
		KindDone: "done", KindStop: "stop",
		Kind(0): "Kind(0)", Kind(5): "Kind(5)", Kind(6): "Kind(6)", Kind(7): "Kind(7)", Kind(8): "Kind(8)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Message{
		Request(0, 0, 0, 0),
		Request(1<<60, 65535, -1, 9),
		Resolved(42, 3, 1<<50),
		Resolved(1, 0, -7), // negative sentinel values survive
		Done(767),
		Stop(),
	}
	for _, m := range cases {
		got, err := DecodeBatch(nil, AppendEncodeBatchV3(nil, []Message{m}))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != m {
			t.Fatalf("round trip: %+v -> %+v", m, got)
		}
	}
}

// A non-empty frame must open with the v2 or v3 magic: anything else —
// a bare Kind byte (the retired fixed-width v1 layout), zero, or a
// neighbouring byte value — is rejected, never guessed at.
func TestDecodeErrors(t *testing.T) {
	v1 := make([]byte, EncodedSize)
	v1[0] = byte(KindRequest)
	for _, frame := range [][]byte{
		v1,
		{byte(KindStop)},
		{0},
		{0xff},
		{FrameV2Magic - 1},
		{FrameV3Magic + 1, byte(KindDone), 1, 2},
	} {
		if got, err := DecodeBatch(nil, frame); err == nil {
			t.Errorf("frame % x accepted as %+v", frame, got)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	ms := []Message{
		Request(1, 0, 2, 3),
		Resolved(4, 1, 5),
		Done(2),
		Stop(),
	}
	frame := AppendEncodeBatchV3(nil, ms)
	if frame[0] != FrameV3Magic {
		t.Fatalf("frame opens with %#x, want the v3 magic", frame[0])
	}
	got, err := DecodeBatch(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ms) {
		t.Fatalf("decoded %d messages", len(got))
	}
	for i := range ms {
		if got[i] != ms[i] {
			t.Fatalf("message %d: %+v != %+v", i, got[i], ms[i])
		}
	}
}

// Both empty shapes hold zero messages: no bytes at all, and a frame
// that is only the magic.
func TestBatchEmpty(t *testing.T) {
	for _, frame := range [][]byte{nil, {}, AppendEncodeBatchV3(nil, nil)} {
		got, err := DecodeBatch(nil, frame)
		if err != nil || len(got) != 0 {
			t.Fatalf("empty batch % x: %v, %v", frame, got, err)
		}
	}
}

func TestBatchAppendsToDst(t *testing.T) {
	dst := []Message{Stop()}
	got, err := DecodeBatch(dst, AppendEncodeBatchV3(nil, []Message{Done(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != KindStop || got[1].Kind != KindDone {
		t.Fatalf("append semantics broken: %+v", got)
	}
}

func TestBatchRejectsRaggedFrame(t *testing.T) {
	frame := AppendEncodeBatchV3(nil, []Message{Request(1<<40, 3, 1<<41, 2)})
	if _, err := DecodeBatch(nil, frame[:len(frame)-1]); err == nil {
		t.Error("ragged frame accepted")
	}
}

// clearDeadFields zeroes the fields m's kind does not carry, yielding
// the constructor-shaped form the codecs round-trip.
func clearDeadFields(m Message) Message {
	switch m.Kind {
	case KindRequest:
		m.V = 0
	case KindResolved:
		m.K, m.L = 0, 0
	case KindDone, KindStop:
		m.K, m.V, m.E, m.L = 0, 0, 0, 0
	}
	return m
}

// Property: any constructor-shaped message (dead fields zero) with a
// valid kind round-trips through a v3 frame.
func TestRoundTripProperty(t *testing.T) {
	f := func(kindRaw uint8, tt, k, v int64, e, l uint16) bool {
		m := clearDeadFields(Message{
			Kind: Kind(kindRaw%4) + KindRequest,
			T:    tt, K: k, V: v, E: e, L: l,
		})
		got, err := DecodeBatch(nil, AppendEncodeBatchV3(nil, []Message{m}))
		return err == nil && len(got) == 1 && got[0] == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// genMessages builds a constructor-shaped message batch from raw fuzz
// values — the population both codecs must agree on. Kinds are grouped
// the way the communicator's buffers produce them (runs of requests, a
// run of resolveds, the odd control message).
func genMessages(ts []int64, ks []uint32, es []uint8) []Message {
	var ms []Message
	t := int64(0)
	for i := range ts {
		// Near-monotone t, the request pattern the delta coding targets.
		step := ts[i] % 64
		if step < 0 {
			step = -step
		}
		t += step
		k := int64(ks[i%len(ks)])
		e := int(es[i%len(es)]) % 16
		switch i % 10 {
		case 0, 1, 2, 3, 4:
			ms = append(ms, Request(t, e, k, e%4))
		case 5, 6, 7:
			ms = append(ms, Resolved(t, e, k))
		case 8:
			ms = append(ms, Done(int(k%768)))
		default:
			ms = append(ms, Stop())
		}
	}
	return ms
}

// The compact codec must actually compress: a buffer's worth of typical
// requests (near-monotone t, node-scale k) has to come out at least 2x
// smaller than the messages' raw field width (EncodedSize each).
func TestCompactFrameAtLeastHalvesRequests(t *testing.T) {
	var ms []Message
	tt := int64(500_000)
	for i := 0; i < 256; i++ {
		tt += int64(i % 3)
		ms = append(ms, Request(tt, i%4, tt/2, i%4))
	}
	raw, v2 := len(ms)*EncodedSize, len(AppendEncodeBatchV2(nil, ms))
	if v2*2 > raw {
		t.Fatalf("compact frame %d bytes, raw fields %d: reduction below 2x", v2, raw)
	}
}

func TestCompactBatchEmpty(t *testing.T) {
	got, err := DecodeBatch(nil, AppendEncodeBatchV2(nil, nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty compact batch: %v, %v", got, err)
	}
}

func TestCompactBatchRejectsCorruption(t *testing.T) {
	frame := AppendEncodeBatchV2(nil, []Message{Request(100, 1, 50, 2), Resolved(7, 0, 3)})
	if _, err := DecodeBatch(nil, frame[:len(frame)-1]); err == nil {
		t.Error("truncated compact frame accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[1] = 99 // group kind byte
	if _, err := DecodeBatch(nil, bad); err == nil {
		t.Error("bad group kind accepted")
	}
	// A group count far beyond the frame's bytes must be rejected before
	// any decoding work.
	huge := []byte{FrameV2Magic, byte(KindStop), 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeBatch(nil, huge); err == nil {
		t.Error("oversized group count accepted")
	}
}

// Kinds 5 and 6 carried the retired collective steps and checkpoint
// markers. A frame from an older binary holding one — here the bytes it
// encoded for a collective step or a cut marker — is refused as an
// unknown kind under either magic, never decoded into another kind's
// fields.
func TestDecodeRefusesRetiredCkptKind(t *testing.T) {
	for _, tc := range []struct {
		kind   byte
		fields []byte
	}{
		{5, []byte{0x04, 0xf4, 0x01, 0x54}},
		{6, []byte{0x00, 0x04, 0x00, 0x08, 0x00}},
	} {
		for _, magic := range []byte{FrameV2Magic, FrameV3Magic} {
			frame := append([]byte{magic, tc.kind, 1}, tc.fields...)
			want := fmt.Sprintf("bad group kind %d", tc.kind)
			if ms, err := DecodeBatch(nil, frame); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("magic %#x: DecodeBatch = %+v, %v; want a %s error", magic, ms, err, want)
			}
		}
		if got, want := Kind(tc.kind).String(), fmt.Sprintf("Kind(%d)", tc.kind); got != want {
			t.Errorf("Kind(%d).String() = %q, want an unnamed kind", tc.kind, got)
		}
	}
}

// benchBatch is a buffer's worth of typical requests.
func benchBatch() []Message {
	ms := make([]Message, 256)
	for i := range ms {
		ms[i] = Request(123456789+int64(i), i%4, 987654321-int64(i), i%4)
	}
	return ms
}

func BenchmarkAppendEncodeBatchV3(b *testing.B) {
	ms := benchBatch()
	buf := make([]byte, 0, len(ms)*EncodedSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendEncodeBatchV3(buf[:0], ms)
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	frame := AppendEncodeBatchV3(nil, benchBatch())
	dst := make([]Message, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = DecodeBatch(dst[:0], frame); err != nil {
			b.Fatal(err)
		}
	}
}
