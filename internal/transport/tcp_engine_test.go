package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// freeAddrs returns p loopback addresses on ports the kernel picked.
func freeAddrs(tb testing.TB, p int) []string {
	tb.Helper()
	addrs := make([]string, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		// Closed only after every address is chosen, so two ranks never
		// draw the same port.
		defer ln.Close()
	}
	return addrs
}

// mkTCPFree establishes a loopback mesh on free ports, one rank per
// config.
func mkTCPFree(tb testing.TB, cfgs ...TCPConfig) []*TCP {
	tb.Helper()
	p := len(cfgs)
	addrs := freeAddrs(tb, p)
	eps := make([]*TCP, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = NewTCPWithConfig(i, addrs, cfgs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("rank %d: %v", i, err)
		}
	}
	return eps
}

// numbered is a leased frame of the given size carrying a sequence number.
func numbered(seq uint32, size int) []byte {
	b := LeaseFrame(size)[:size]
	binary.LittleEndian.PutUint32(b, seq)
	return b
}

// The no-deadlock argument for blocking inline writes: both endpoints
// push far more than the kernel's socket buffers hold at each other
// before either consumes anything. Every Send must return — the peer's
// reader goroutine keeps emptying the kernel buffer into the unbounded
// inbox even while the peer itself is blocked in Send — and afterwards
// every frame is there, in order.
func TestTCPBothSidesSendBeforeRecv(t *testing.T) {
	const frameSize = 200
	total := 64 << 20
	if testing.Short() {
		total = 8 << 20
	}
	frames := total / frameSize
	eps := mkTCPFree(t, TCPConfig{writeTimeout: 30 * time.Second}, TCPConfig{writeTimeout: 30 * time.Second})
	defer eps[0].Close()
	defer eps[1].Close()

	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := eps[r].Send(1-r, numbered(uint32(i), frameSize)); err != nil {
					t.Errorf("rank %d send %d: %v", r, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for r := range eps {
		for i := 0; i < frames; i++ {
			f, err := eps[r].Recv()
			if err != nil {
				t.Fatalf("rank %d recv %d of %d: %v", r, i, frames, err)
			}
			if got := binary.LittleEndian.Uint32(f.Data); len(f.Data) != frameSize || got != uint32(i) {
				t.Fatalf("rank %d frame %d arrived as %d (%d bytes)", r, i, got, len(f.Data))
			}
			ReleaseFrame(f.Data)
		}
	}
	t.Logf("rank 0 %+v", eps[0].Stats())
}

// Two consumers on one endpoint — a goroutine blocked in Recv (served by
// the reader goroutines) and one spinning TryRecv (draining the sockets
// itself) — on every rank of an 8-rank mesh with every rank sending to
// every other. Each consumer must
// see each peer's sequence numbers increasing, and together they must
// see every one exactly once.
func TestTCPRecvAndTryRecvOverlap(t *testing.T) {
	const p, perPair = 8, 2000
	eps := mkTCPFree(t, make([]TCPConfig, p)...)
	// got[r][consumer][from] lists the sequence numbers in arrival order.
	var got [p][2][p][]uint32
	var consumed [p]atomic.Int64
	const want = (p - 1) * perPair

	var senders, tryers, recvers sync.WaitGroup
	for r := 0; r < p; r++ {
		senders.Add(1)
		go func(r int) {
			defer senders.Done()
			for i := 0; i < perPair; i++ {
				for to := 0; to < p; to++ {
					if to == r {
						continue
					}
					if err := eps[r].Send(to, numbered(uint32(i), 8)); err != nil {
						t.Errorf("rank %d send to %d: %v", r, to, err)
						return
					}
				}
			}
		}(r)
		note := func(c int, f Frame) {
			got[r][c][f.From] = append(got[r][c][f.From], binary.LittleEndian.Uint32(f.Data))
			ReleaseFrame(f.Data)
			consumed[r].Add(1)
		}
		recvers.Add(1)
		go func(r int) {
			defer recvers.Done()
			for {
				f, err := eps[r].Recv()
				if err != nil {
					if err != ErrClosed {
						t.Errorf("rank %d Recv: %v", r, err)
					}
					return
				}
				note(0, f)
			}
		}(r)
		tryers.Add(1)
		go func(r int) {
			defer tryers.Done()
			deadline := time.Now().Add(60 * time.Second)
			for consumed[r].Load() < want {
				f, ok, err := eps[r].TryRecv()
				if err != nil {
					t.Errorf("rank %d TryRecv: %v", r, err)
					return
				}
				if ok {
					note(1, f)
					continue
				}
				if time.Now().After(deadline) {
					t.Errorf("rank %d: %d of %d frames after 60s", r, consumed[r].Load(), want)
					return
				}
				runtime.Gosched()
			}
		}(r)
	}
	senders.Wait()
	tryers.Wait()
	// Everything has been consumed (or a failure reported): Close ends
	// the goroutines still blocked in Recv.
	for _, e := range eps {
		e.Close()
	}
	recvers.Wait()
	if t.Failed() {
		return
	}
	for r := 0; r < p; r++ {
		for from := 0; from < p; from++ {
			if from == r {
				continue
			}
			var all []uint32
			for c := 0; c < 2; c++ {
				s := got[r][c][from]
				if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
					t.Fatalf("rank %d consumer %d saw rank %d's frames out of order", r, c, from)
				}
				all = append(all, s...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			if len(all) != perPair {
				t.Fatalf("rank %d got %d frames from rank %d, want %d", r, len(all), from, perPair)
			}
			for i, v := range all {
				if v != uint32(i) {
					t.Fatalf("rank %d from rank %d: sequence %d missing or duplicated (found %d)", r, from, i, v)
				}
			}
		}
	}
}

// A peer that sends and dies at once puts its last bytes and its FIN in
// the receiver's socket together. The reader goroutine is woken by
// edges, and there will be no second one: it must read past the bytes
// to find the end, or a rank blocked in Recv never learns of the crash.
func TestTCPCrashRightAfterDataReachesBlockedRecv(t *testing.T) {
	for i := 0; i < 20; i++ {
		eps := mkTCPFree(t, TCPConfig{}, TCPConfig{})
		if err := eps[1].Send(0, numbered(uint32(i), 64)); err != nil {
			t.Fatal(err)
		}
		eps[1].Abort()
		got := make(chan error, 1)
		go func() {
			if _, err := eps[0].Recv(); err != nil {
				got <- fmt.Errorf("the frame sent before the crash: %w", err)
				return
			}
			_, err := eps[0].Recv()
			got <- err
		}()
		select {
		case err := <-got:
			if err == nil || !strings.Contains(err.Error(), "lost") {
				t.Fatalf("round %d: Recv after the crash = %v, want a connection-lost error", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Recv never saw the peer's crash", i)
		}
		eps[0].Close()
	}
}

// spin burns roughly d of CPU without yielding the P, like a rank
// generating between two polls.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// splitAnywhereStream is nine frames of assorted sizes, each body one
// repeated letter, then the goodbye marker and bytes that must never be
// parsed; want is the frames' bodies.
func splitAnywhereStream() (stream []byte, want [][]byte) {
	for i, size := range []int{1, 3, 4, 5, 17, 200, 9, 1000, 2} {
		body := bytes.Repeat([]byte{byte('a' + i)}, size)
		stream = binary.LittleEndian.AppendUint32(stream, uint32(size))
		stream = append(stream, body...)
		want = append(want, body)
	}
	stream = append(stream, 0, 0, 0, 0) // goodbye
	return append(stream, "never parsed"...), want
}

// A frame stream cut into reads at every byte offset, and into one-byte
// reads, reassembles into the same frames — through the staging buffer
// for frames that fit in it and straight into the leased frame for the
// rest — and stops at the goodbye marker.
func TestTCPFrameReaderSplitAnywhere(t *testing.T) {
	stream, want := splitAnywhereStream()

	// feed pushes b through fr in reads of at most chunk bytes.
	var parsed atomic.Int64
	feed := func(fr *frameReader, b []byte, chunk int) (end bool) {
		for len(b) > 0 && !end {
			tgt := fr.target()
			if len(tgt) == 0 {
				t.Fatal("target() returned no room")
			}
			n := copy(tgt[:min(len(tgt), chunk)], b)
			b = b[n:]
			var err error
			if _, end, err = fr.advance(n, &parsed); err != nil {
				t.Fatal(err)
			}
		}
		return end
	}
	check := func(name string, staging int, cuts ...int) {
		inbox := newMailbox()
		fr := &frameReader{inbox: inbox, from: 7, buf: make([]byte, staging)}
		before := parsed.Load()
		end, prev := false, 0
		for _, cut := range append(cuts, len(stream)) {
			if end = feed(fr, stream[prev:cut], cut-prev); end {
				break
			}
			prev = cut
		}
		if !end {
			t.Fatalf("%s: goodbye marker not seen", name)
		}
		if got := parsed.Load() - before; got != int64(len(want)) {
			t.Fatalf("%s: %d frames counted, want %d", name, got, len(want))
		}
		for i, w := range want {
			f, ok, _ := inbox.pop(false)
			if !ok || f.From != 7 || !bytes.Equal(f.Data, w) {
				t.Fatalf("%s: frame %d = %q (ok=%v), want %d×%q", name, i, f.Data, ok, len(w), w[:1])
			}
		}
		if _, ok, _ := inbox.pop(false); ok {
			t.Fatalf("%s: frame parsed past the goodbye marker", name)
		}
	}
	for _, staging := range []int{4, 7, 64, tcpReadBufSize} {
		for cut := 1; cut < len(stream); cut++ {
			check(fmt.Sprintf("staging %d cut at %d", staging, cut), staging, cut)
		}
		// One-byte reads all the way.
		inbox := newMailbox()
		fr := &frameReader{inbox: inbox, buf: make([]byte, staging)}
		if !feed(fr, stream, 1) {
			t.Fatalf("staging %d: goodbye not seen with one-byte reads", staging)
		}
		for i, w := range want {
			if f, ok, _ := inbox.pop(false); !ok || !bytes.Equal(f.Data, w) {
				t.Fatalf("staging %d, one-byte reads: frame %d wrong", staging, i)
			}
		}
	}
	// A truncated stream is an unexpected EOF; a stream cut between
	// frames is a clean one.
	fr := &frameReader{inbox: newMailbox(), buf: make([]byte, 64)}
	feed(fr, stream[:5], 64) // frame 0 complete
	if fr.midFrame() {
		t.Fatal("midFrame between frames")
	}
	feed(fr, stream[5:7], 64) // half a prefix
	if !fr.midFrame() {
		t.Fatal("not midFrame inside a prefix")
	}
}

// A hostile length prefix fails the connection before anything is
// leased for it: the error names the peer and the length, the frames
// ahead of it are delivered, and no allocation of that size happens.
// Send refuses a frame its 32-bit prefix cannot carry without wrapping.
func TestTCPFrameReaderOversizePrefix(t *testing.T) {
	stream := binary.LittleEndian.AppendUint32(nil, 3)
	stream = append(stream, "abc"...)
	stream = binary.LittleEndian.AppendUint32(stream, 0xFFFFFFF0)
	stream = append(stream, "body that never comes"...)

	inbox := newMailbox()
	fr := &frameReader{inbox: inbox, from: 5, buf: make([]byte, 64)}
	var parsed atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := copy(fr.target(), stream)
	frames, end, err := fr.advance(n, &parsed)
	runtime.ReadMemStats(&after)
	if err == nil || !end {
		t.Fatalf("oversize prefix: end %v, err %v", end, err)
	}
	for _, want := range []string{"rank 5", fmt.Sprint(0xFFFFFFF0)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if frames != 1 || parsed.Load() != 1 {
		t.Fatalf("%d frames emitted (%d counted) ahead of the bad prefix, want 1", frames, parsed.Load())
	}
	if f, ok, _ := inbox.pop(false); !ok || string(f.Data) != "abc" {
		t.Fatalf("frame ahead of the bad prefix = %q (ok=%v)", f.Data, ok)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("parsing the prefix allocated %d bytes", grew)
	}

	eps := mkTCPFree(t, TCPConfig{}, TCPConfig{})
	defer eps[0].Close()
	defer eps[1].Close()
	err = eps[0].Send(1, make([]byte, maxFrameSize+1))
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("Send of a %d-byte frame: err = %v", maxFrameSize+1, err)
	}

	// End to end: a raw peer that completes rank 1's handshake and then
	// sends the prefix fails rank 0's connection with that error.
	addrs := freeAddrs(t, 2)
	type result struct {
		tr  *TCP
		err error
	}
	done := make(chan result, 1)
	go func() {
		tr, err := NewTCP(0, addrs)
		done <- result{tr, err}
	}()
	var conn net.Conn
	for deadline := time.Now().Add(10 * time.Second); conn == nil; {
		if conn, err = net.Dial("tcp", addrs[0]); err != nil && time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	defer conn.Close()
	hello := binary.LittleEndian.AppendUint32(nil, 1)
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(hello, 0xFFFFFFF0)); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.tr.Close()
	_, err = r.tr.Recv()
	if err == nil || !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), fmt.Sprint(0xFFFFFFF0)) {
		t.Fatalf("Recv after a hostile prefix: err = %v", err)
	}
}

// pingPong runs rounds request→reply round trips between two loopback
// endpoints whose consumers never block or yield: each spins a few
// microseconds of "generation" between TryRecv polls, the way two
// compute-bound ranks do, with GOMAXPROCS(2) so no P is left over for
// helper goroutines. It returns each round trip's duration.
func pingPong(tb testing.TB, rounds int) []time.Duration {
	tb.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	eps := mkTCPFree(tb, TCPConfig{}, TCPConfig{})
	defer eps[0].Close()
	defer eps[1].Close()
	const pollGap = 5 * time.Microsecond

	stop := make(chan struct{})
	echoed := make(chan error, 1)
	go func() { // rank 1 echoes
		for {
			select {
			case <-stop:
				echoed <- nil
				return
			default:
			}
			f, ok, err := eps[1].TryRecv()
			if err == nil && ok {
				err = eps[1].Send(0, f.Data)
			}
			if err != nil {
				echoed <- err
				return
			}
			spin(pollGap)
		}
	}()
	trips := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := eps[0].Send(1, numbered(uint32(i), 28)); err != nil {
			tb.Fatal(err)
		}
		for {
			f, ok, err := eps[0].TryRecv()
			if err != nil {
				tb.Fatal(err)
			}
			if ok {
				if got := binary.LittleEndian.Uint32(f.Data); got != uint32(i) {
					tb.Fatalf("round %d echoed as %d", i, got)
				}
				ReleaseFrame(f.Data)
				break
			}
			if time.Since(t0) > 30*time.Second {
				tb.Fatalf("round %d: no reply in 30s", i)
			}
			spin(pollGap)
		}
		trips = append(trips, time.Since(t0))
	}
	close(stop)
	if err := <-echoed; err != nil {
		tb.Fatal(err)
	}
	return trips
}

// The pathology engine-driven I/O removes: with every P running a
// compute-bound rank, a frame handed to a writer goroutine and received
// by a reader goroutine waits for the scheduler's ~10ms preemption tick
// on each hop (the writer/reader transport this replaced measured a
// median of 40–60ms here, four hops of one tick each). Driven by the callers themselves a round
// trip is a few poll intervals.
func TestTCPRoundTripBusyPs(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs: on one, the two spinning ranks wait for each other's time slice, not for the transport")
	}
	if runtime.GOOS != "linux" {
		t.Skip("TryRecv drives the sockets itself only in the Linux build")
	}
	trips := pingPong(t, 200)
	sort.Slice(trips, func(i, j int) bool { return trips[i] < trips[j] })
	median := trips[len(trips)/2]
	t.Logf("round trip: median %v, min %v, max %v", median, trips[0], trips[len(trips)-1])
	if median >= time.Millisecond {
		t.Fatalf("median round trip %v, want < 1ms", median)
	}
}

func BenchmarkTCPRoundTripBusyPs(b *testing.B) {
	if runtime.NumCPU() < 2 {
		b.Skip("needs 2 CPUs")
	}
	b.ReportAllocs()
	pingPong(b, b.N)
}
