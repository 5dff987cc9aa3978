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
	// Five frames, one receive each, in send order.
	for i := 0; i < 5; i++ {
		got, err := b.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].T != int64(i) {
			t.Fatalf("Wait %d returned %+v, want one frame holding message %d", i, got, i)
		}
	}
	if c := b.Counters(); c.FramesRecv != 5 || c.ResolvedRecv != 5 {
		t.Fatalf("recv counters = %+v", c)
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
	for i := 0; i < 4; i++ {
		if _, err := b.Wait(); err != nil {
			t.Fatal(err)
		}
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
	// One frame per call, in send order, then nothing.
	for _, want := range []msg.Kind{msg.KindStop, msg.KindDone} {
		got, err := b.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Kind != want {
			t.Fatalf("Poll = %+v, want one %v message", got, want)
		}
	}
	if got, err := b.Poll(); err != nil || got != nil {
		t.Fatalf("Poll after the last frame = %v %v", got, err)
	}
}

// shmPair is pair over the shared-memory transport, whose flushes hand
// the send buffer itself to the receiver.
func shmPair(tb testing.TB, cfg Config) (*Comm, *Comm) {
	g, err := transport.NewShmGroup(2)
	if err != nil {
		tb.Fatal(err)
	}
	return New(g.Endpoint(0), cfg), New(g.Endpoint(1), cfg)
}

// A shared-memory batch is handed out where it landed: Poll returns the
// very slice the sender filled, and the communicator keeps it out of the
// pool until the next receive call, so a sender leasing meanwhile never
// gets it back to overwrite. The streaming half runs sender and receiver
// on two goroutines; under -race a batch recycled early is a reported
// race, and without it a corrupted sequence.
func TestPollShmBatchOwnership(t *testing.T) {
	a, b := shmPair(t, Config{BufferCap: 8})
	for i := 0; i < 3; i++ {
		a.Send(1, msg.Resolved(int64(i), 0, 1))
	}
	sent := &a.bufs[1][0]
	if err := a.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got, err := b.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || &got[0] != sent {
		t.Fatalf("Poll returned %d messages at %p, want the sender's 3 at %p", len(got), &got[0], sent)
	}
	for i := 0; i < 4; i++ {
		if ms := transport.LeaseMsgs(1); cap(ms) > 0 && &ms[:1][0] == sent {
			t.Fatal("the batch Poll returned went back to the pool before the next receive")
		}
	}
	if b.held == nil || &b.held[0] != sent {
		t.Fatal("the communicator does not hold the batch it returned")
	}
	if got, err := b.Poll(); err != nil || got != nil || b.held != nil {
		t.Fatalf("empty Poll = %v %v, holding %d messages; want the batch released", got, err, len(b.held))
	}

	const n = 1 << 14
	a, b = shmPair(t, Config{BufferCap: 16})
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(1, msg.Resolved(int64(i), 0, int64(i))); err != nil {
				errc <- err
				return
			}
		}
		errc <- a.FlushAll()
	}()
	for next := int64(0); next < n; {
		ms, err := b.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.T != next || m.V != next {
				t.Fatalf("message %d arrived as %+v", next, m)
			}
			next++
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
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

// BenchmarkCommPollShm is the shared-memory receive path at steady
// state: fill a buffer, flush it by reference, Poll it back. A round
// must not allocate (asserted): the pool recycles the batch the previous
// Poll held.
func BenchmarkCommPollShm(b *testing.B) {
	a, c := shmPair(b, Config{})
	m := msg.Request(1, 0, 2, 0)
	round := func() {
		for i := 0; i < DefaultBufferCap-1; i++ {
			a.Send(1, m)
		}
		a.FlushAll()
		if ms, err := c.Poll(); err != nil || len(ms) != DefaultBufferCap-1 {
			b.Fatalf("Poll = %d messages, %v", len(ms), err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		b.Fatalf("a steady-state round allocated %v times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
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
