package msg

import (
	"reflect"
	"testing"
)

func TestCkptConstructor(t *testing.T) {
	m := Ckpt(3, CkptVote, 100, 1)
	want := Message{Kind: KindCkpt, T: 3, E: uint16(CkptVote), K: 100, V: 1}
	if m != want {
		t.Fatalf("Ckpt = %+v, want %+v", m, want)
	}
}

// Checkpoint messages must survive both frame versions alongside every
// other kind — they share frames with data traffic on the wire.
func TestCkptCodecRoundTrip(t *testing.T) {
	batch := []Message{
		Ckpt(0, CkptCut, 5, 0),
		Request(1000, 2, 77, 1),
		Ckpt(2, CkptVote, 1<<40, -(1 << 40)),
		Resolved(1000, 2, 55),
		Ckpt(0, CkptAbandon, 5, 0),
		Done(3),
		{Kind: KindCkpt, T: 1, E: uint16(CkptCut), L: 13, K: 5},
		Coll(1, 9, -42),
		Stop(),
	}
	for name, frame := range map[string][]byte{
		"v2": AppendEncodeBatchV2(nil, batch),
		"v3": AppendEncodeBatchV3(nil, batch),
	} {
		got, err := DecodeBatch(nil, frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, batch) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", name, got, batch)
		}
	}
}

func TestCkptSingleCodecRoundTrip(t *testing.T) {
	m := Ckpt(5, CkptCut, 1234567, 7654321)
	got, err := DecodeBatch(nil, AppendEncodeBatchV3(nil, []Message{m}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != m {
		t.Fatalf("DecodeBatch = %+v, want [%+v]", got, m)
	}
}
