package comm

import (
	"testing"

	"pagen/internal/msg"
	"pagen/internal/transport"
)

func pair(t *testing.T, cfg Config) (*Comm, *Comm) {
	t.Helper()
	g, err := transport.NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	return New(g.Endpoint(0), cfg), New(g.Endpoint(1), cfg)
}

func TestBufferingCoalesces(t *testing.T) {
	a, b := pair(t, Config{BufferCap: 4})
	for i := 0; i < 3; i++ {
		if err := a.Send(1, msg.Request(int64(i), 0, 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Below capacity: nothing on the wire yet.
	if got, err := b.Poll(); err != nil || got != nil {
		t.Fatalf("premature delivery: %v %v", got, err)
	}
	if a.Buffered(1) != 3 {
		t.Fatalf("Buffered = %d", a.Buffered(1))
	}
	// Fourth message hits capacity and auto-flushes.
	if err := a.Send(1, msg.Request(3, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d messages, want 4", len(got))
	}
	for i, m := range got {
		if m.T != int64(i) {
			t.Fatalf("order broken: %+v", got)
		}
	}
	// One frame carried all four.
	if c := a.Counters(); c.FramesSent != 1 || c.RequestsSent != 4 {
		t.Fatalf("counters = %+v", c)
	}
	if c := b.Counters(); c.FramesRecv != 1 || c.RequestsRecv != 4 {
		t.Fatalf("recv counters = %+v", c)
	}
}

func TestUnbufferedSendsEachFrame(t *testing.T) {
	a, b := pair(t, Config{BufferCap: 1})
	for i := 0; i < 5; i++ {
		if err := a.Send(1, msg.Resolved(int64(i), 0, 9)); err != nil {
			t.Fatal(err)
		}
	}
	if c := a.Counters(); c.FramesSent != 5 || c.ResolvedSent != 5 {
		t.Fatalf("counters = %+v", c)
	}
	got, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("Wait drained %d, want 5", len(got))
	}
}

func TestFlushAllAndExplicitFlush(t *testing.T) {
	a, b := pair(t, Config{BufferCap: 100})
	a.Send(1, msg.Request(1, 0, 2, 0))
	a.Send(0, msg.Done(0)) // self-send also buffered
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if a.Buffered(0) != 0 || a.Buffered(1) != 0 {
		t.Fatal("buffers not emptied")
	}
	if got, err := b.Wait(); err != nil || len(got) != 1 {
		t.Fatalf("peer got %v %v", got, err)
	}
	if got, err := a.Wait(); err != nil || len(got) != 1 || got[0].Kind != msg.KindDone {
		t.Fatalf("self got %v %v", got, err)
	}
	// Flushing empty buffers is a no-op.
	frames := a.Counters().FramesSent
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if a.Counters().FramesSent != frames {
		t.Fatal("empty flush sent a frame")
	}
}

func TestSendNowBypassesBuffer(t *testing.T) {
	a, b := pair(t, Config{BufferCap: 100})
	a.Send(1, msg.Request(7, 0, 1, 0)) // buffered ahead of the control msg
	if err := a.SendNow(1, msg.Stop()); err != nil {
		t.Fatal(err)
	}
	got, err := b.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Ordering preserved: request first, then stop, in one frame.
	if len(got) != 2 || got[0].Kind != msg.KindRequest || got[1].Kind != msg.KindStop {
		t.Fatalf("got %+v", got)
	}
}

func TestCountersByKind(t *testing.T) {
	a, b := pair(t, Config{BufferCap: 1})
	a.Send(1, msg.Request(1, 0, 1, 0))
	a.Send(1, msg.Resolved(1, 0, 1))
	a.Send(1, msg.Done(0))
	a.Send(1, msg.Stop())
	c := a.Counters()
	if c.RequestsSent != 1 || c.ResolvedSent != 1 || c.ControlSent != 2 {
		t.Fatalf("send counters = %+v", c)
	}
	if c.MessagesSent() != 4 {
		t.Fatalf("MessagesSent = %d", c.MessagesSent())
	}
	// Wait drains everything immediately available, so loop on the
	// message count rather than calling it once per frame.
	for got := 0; got < 4; {
		ms, err := b.Wait()
		if err != nil {
			t.Fatal(err)
		}
		got += len(ms)
	}
	cb := b.Counters()
	if cb.RequestsRecv != 1 || cb.ResolvedRecv != 1 || cb.ControlRecv != 2 {
		t.Fatalf("recv counters = %+v", cb)
	}
	if cb.MessagesRecv() != 4 {
		t.Fatalf("MessagesRecv = %d", cb.MessagesRecv())
	}
}

func TestPollNonBlocking(t *testing.T) {
	a, b := pair(t, Config{})
	if got, err := b.Poll(); err != nil || got != nil {
		t.Fatalf("Poll on empty = %v %v", got, err)
	}
	a.SendNow(1, msg.Stop())
	a.SendNow(1, msg.Done(0))
	got, err := b.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Poll drained %d frames' messages, want 2", len(got))
	}
}

func TestSendInvalidRank(t *testing.T) {
	a, _ := pair(t, Config{})
	if err := a.Send(5, msg.Stop()); err == nil {
		t.Error("send to rank 5 accepted")
	}
	if err := a.Flush(-1); err == nil {
		t.Error("flush rank -1 accepted")
	}
}

func TestDefaultBufferCap(t *testing.T) {
	a, _ := pair(t, Config{BufferCap: 0})
	if a.cap != DefaultBufferCap {
		t.Fatalf("cap = %d", a.cap)
	}
}

func TestWaitAfterCloseErrors(t *testing.T) {
	a, b := pair(t, Config{})
	b.Close()
	if _, err := b.Wait(); err == nil {
		t.Fatal("Wait on closed comm succeeded")
	}
	_ = a
}

func BenchmarkSendBuffered(b *testing.B) {
	g, _ := transport.NewLocalGroup(2)
	a := New(g.Endpoint(0), Config{BufferCap: 256})
	sink := New(g.Endpoint(1), Config{})
	m := msg.Request(1, 0, 2, 0)
	b.ReportAllocs()
	go func() {
		for {
			if _, err := sink.Wait(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if err := a.Send(1, m); err != nil {
			b.Fatal(err)
		}
	}
	a.FlushAll()
	sink.Close()
}

func TestBytesCounters(t *testing.T) {
	ms := []msg.Message{msg.Request(1, 0, 2, 0), msg.Request(2, 0, 3, 0)}
	// Frames travel in the v3 encoding; the counters must match its
	// actual wire size, which is well under the messages' raw field
	// width.
	want := int64(len(msg.AppendEncodeBatchV3(nil, ms)))
	if want >= int64(len(ms)*msg.EncodedSize) {
		t.Fatalf("v3 frame (%d bytes) not smaller than the raw fields (%d)", want, len(ms)*msg.EncodedSize)
	}
	a, b := pair(t, Config{BufferCap: 2})
	a.Send(1, ms[0])
	a.Send(1, ms[1]) // triggers flush of a 2-message frame
	if got := a.Counters().BytesSent; got != want {
		t.Fatalf("BytesSent = %d, want %d", got, want)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := b.Counters().BytesRecv; got != want {
		t.Fatalf("BytesRecv = %d, want %d", got, want)
	}
}
