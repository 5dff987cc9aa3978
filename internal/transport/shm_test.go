package transport

import (
	"errors"
	"testing"

	"pagen/internal/msg"
)

func mkShm(t *testing.T, p int) []Transport {
	t.Helper()
	g, err := NewShmGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]Transport, p)
	for i := range eps {
		eps[i] = g.Endpoint(i)
	}
	return eps
}

func TestShmMesh(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		meshTest(t, p, mkShm)
	}
}

// TestShmSendMsgs checks the no-serialize contract: the batch handed to
// SendMsgs arrives as the same backing slice, untouched by any codec.
func TestShmSendMsgs(t *testing.T) {
	g, err := NewShmGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := g.Endpoint(0), g.Endpoint(1)
	ms := LeaseMsgs(4)
	ms = append(ms, msg.Request(7, 3, 1, 0), msg.Resolved(9, 0, 2))
	if err := src.(MsgSender).SendMsgs(1, ms); err != nil {
		t.Fatal(err)
	}
	f, err := dst.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 0 || f.Data != nil {
		t.Fatalf("frame From=%d Data=%v, want From=0 Data=nil", f.From, f.Data)
	}
	if len(f.Msgs) != 2 || &f.Msgs[0] != &ms[0] {
		t.Fatalf("batch was copied: got %d msgs at %p, sent %d at %p",
			len(f.Msgs), &f.Msgs[0], len(ms), &ms[0])
	}
	if f.Msgs[0].T != 7 || f.Msgs[1].T != 9 {
		t.Fatalf("batch content corrupted: %+v", f.Msgs)
	}
	ReleaseMsgs(f.Msgs)
}

// TestShmSendMsgsBounds checks rank validation on the fast path.
func TestShmSendMsgsBounds(t *testing.T) {
	g, _ := NewShmGroup(2)
	s := g.Endpoint(0).(MsgSender)
	if err := s.SendMsgs(2, nil); err == nil {
		t.Fatal("SendMsgs(2) on a 2-rank group succeeded")
	}
	if err := s.SendMsgs(-1, nil); err == nil {
		t.Fatal("SendMsgs(-1) succeeded")
	}
}

// TestMailboxBacklogLimit is the backpressure contract of the bounded
// in-process mailboxes: past the limit, push fails fast with ErrBacklog
// instead of growing the queue, and draining frees capacity again.
func TestMailboxBacklogLimit(t *testing.T) {
	m := newMailboxLimited(4)
	for i := 0; i < 4; i++ {
		if err := m.push(Frame{From: i}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := m.push(Frame{From: 4}); !errors.Is(err, ErrBacklog) {
		t.Fatalf("push past limit: err=%v, want ErrBacklog", err)
	}
	if _, ok, err := m.pop(false); err != nil || !ok {
		t.Fatalf("pop: ok=%v err=%v", ok, err)
	}
	if err := m.push(Frame{From: 5}); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
	// The remaining frames come out in order, the overflow one never
	// entered the queue.
	want := []int{1, 2, 3, 5}
	for _, w := range want {
		f, ok, err := m.pop(false)
		if err != nil || !ok || f.From != w {
			t.Fatalf("pop: got From=%d ok=%v err=%v, want From=%d", f.From, ok, err, w)
		}
	}
}

// TestGroupBacklogLimit checks that both in-process groups actually
// bound their queues at DefaultQueueLimit.
func TestGroupBacklogLimit(t *testing.T) {
	for name, eps := range map[string][]Transport{
		"shm":   mkShm(t, 2),
		"local": mkLocal(t, 2),
	} {
		src := eps[0]
		var err error
		for i := 0; i <= DefaultQueueLimit; i++ {
			if err = src.Send(1, []byte{1}); err != nil {
				break
			}
		}
		if !errors.Is(err, ErrBacklog) {
			t.Fatalf("%s: filling the mailbox: err=%v, want ErrBacklog", name, err)
		}
	}
}

// TestLeaseMsgsRecycles checks the message-slice pool round trip.
func TestLeaseMsgsRecycles(t *testing.T) {
	ms := LeaseMsgs(8)
	if len(ms) != 0 || cap(ms) < 8 {
		t.Fatalf("lease: len=%d cap=%d", len(ms), cap(ms))
	}
	ms = append(ms, msg.Request(1, 0, 0, 0))
	ReleaseMsgs(ms)
	got := LeaseMsgs(1)
	if len(got) != 0 {
		t.Fatalf("recycled lease not reset: len=%d", len(got))
	}
	ReleaseMsgs(nil) // zero-capacity release is a no-op
}
