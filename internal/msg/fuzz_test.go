package msg

import (
	"bytes"
	"testing"
)

// FuzzDecodeBatch: arbitrary frames must never panic, and any frame the
// decoder accepts must re-encode (v3, the format the transports send) to
// a frame that decodes to the same messages. Varints are not canonical,
// so the check is decode→encode→decode idempotence, not byte equality.
// Two seeds open a group of the former kinds 7 and 8 (publish, fence),
// which the decoder refuses as a bad group kind.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(AppendEncodeBatchV3(nil, []Message{Request(1, 0, 2, 1), Done(3)}))
	f.Add(AppendEncodeBatchV3(nil, []Message{Resolved(9, 2, 1<<40), Coll(1, 2, 3), Stop()}))
	f.Add(AppendEncodeBatchV3(nil, []Message{Ckpt(0, CkptBegin, 1, 4, 0), Ckpt(1, CkptCut, 2, 4, 0)}))
	f.Add(AppendEncodeBatchV3(nil, []Message{Resolved(9, 0, 4), Resolved(9, 1, 6), Resolved(9, 2, 2)}))
	f.Add([]byte{FrameV3Magic, 7, 3, 18, 8, 2, 12, 2, 4})
	f.Add(AppendEncodeBatchV3(nil, nil))
	f.Add([]byte{FrameV3Magic, byte(KindDone), 1, 4, 8, 1, 4})
	f.Fuzz(func(t *testing.T, frame []byte) {
		ms, err := DecodeBatch(nil, frame)
		if err != nil {
			return
		}
		requireIdempotent(t, ms, AppendEncodeBatchV3)
	})
}

// FuzzDecodeBatchV2: the compact decoder must never panic on arbitrary
// bytes, it must reject every non-empty frame without a v2/v3 magic, and
// anything it accepts must survive a v2 re-encode/decode cycle
// unchanged. Seeds cover both codec versions plus junk, so the fuzzer
// explores the version-dispatch boundary too, and groups of the former
// kinds 7 and 8.
func FuzzDecodeBatchV2(f *testing.F) {
	f.Add(AppendEncodeBatchV2(nil, nil))
	f.Add(AppendEncodeBatchV2(nil, []Message{Request(1, 0, 2, 1), Request(2, 1, 2, 0), Done(3)}))
	f.Add(AppendEncodeBatchV2(nil, []Message{Resolved(9, 2, 1<<40), Coll(1, 2, 3), Stop()}))
	f.Add(AppendEncodeBatchV2(nil, []Message{Ckpt(3, CkptProbe, 9, 1<<33, -5), Request(1, 0, 2, 1)}))
	f.Add([]byte{byte(KindRequest), 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(AppendEncodeBatchV3(nil, []Message{Resolved(5, 0, 1), Resolved(5, 1, 3), Request(6, 0, 2, 1)}))
	f.Add([]byte{FrameV2Magic, 7, 1, 10, 2, 0})
	f.Add([]byte{FrameV2Magic})
	f.Add([]byte{FrameV3Magic, 8, 1, 4})
	f.Add([]byte{FrameV2Magic, byte(KindRequest), 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, frame []byte) {
		ms, err := DecodeBatch(nil, frame)
		if err != nil {
			return
		}
		if len(frame) > 0 && frame[0] != FrameV2Magic && frame[0] != FrameV3Magic {
			t.Fatalf("frame without a magic accepted: first byte %#x", frame[0])
		}
		requireIdempotent(t, ms, AppendEncodeBatchV2)
	})
}

// requireIdempotent checks that ms encodes to a frame that decodes back
// to exactly ms.
func requireIdempotent(t *testing.T, ms []Message, encode func([]byte, []Message) []byte) {
	t.Helper()
	again, err := DecodeBatch(nil, encode(nil, ms))
	if err != nil {
		t.Fatalf("re-encoded frame rejected: %v", err)
	}
	if len(again) != len(ms) {
		t.Fatalf("re-decode length %d, want %d", len(again), len(ms))
	}
	for i := range ms {
		if again[i] != ms[i] {
			t.Fatalf("message %d changed across encode cycle: %+v -> %+v", i, ms[i], again[i])
		}
	}
}
