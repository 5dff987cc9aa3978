package transport

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// mkTCPWithConfig establishes a p-rank localhost mesh with explicit
// config on every rank, using its own port range.
func mkTCPWithConfig(t *testing.T, p, basePort int, cfg TCPConfig) []*TCP {
	t.Helper()
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", basePort+i)
	}
	eps := make([]*TCP, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = NewTCPWithConfig(i, addrs, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return eps
}

// A handshake with a peer that never shows up must fail at the deadline,
// not block forever.
func TestTCPHandshakeDeadlineNoPeer(t *testing.T) {
	addrs := []string{"127.0.0.1:42710", "127.0.0.1:42711"}
	start := time.Now()
	_, err := NewTCPWithConfig(0, addrs, TCPConfig{HandshakeTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("handshake with absent peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("handshake error took %v, deadline was 300ms", elapsed)
	}
	if !strings.Contains(err.Error(), "handshake deadline") &&
		!strings.Contains(err.Error(), "accepting peers") {
		t.Fatalf("error %q does not mention the handshake deadline", err)
	}
}

// The dialing side hits the same deadline when the lower rank's listener
// never comes up (bounded-backoff retries stop at the deadline).
func TestTCPHandshakeDeadlineDialSide(t *testing.T) {
	addrs := []string{"127.0.0.1:42720", "127.0.0.1:42721"}
	start := time.Now()
	_, err := NewTCPWithConfig(1, addrs, TCPConfig{HandshakeTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to absent listener succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial error took %v, deadline was 300ms", elapsed)
	}
	if !strings.Contains(err.Error(), "dial rank 0") {
		t.Fatalf("error %q does not identify the unreachable rank", err)
	}
}

// The regression the fault-injection work targets: a peer that connects
// and then dies mid-handshake (before sending its hello) must surface as
// an error on rank 0 within the deadline — the seed implementation hung
// in Accept/Read forever.
func TestTCPHandshakePeerDiesMidHandshake(t *testing.T) {
	addrs := []string{"127.0.0.1:42730", "127.0.0.1:42731"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Play the dying peer: connect to rank 0's listener, send
		// nothing, vanish.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			conn, err := net.Dial("tcp", addrs[0])
			if err == nil {
				conn.Close()
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	start := time.Now()
	_, err := NewTCPWithConfig(0, addrs, TCPConfig{HandshakeTimeout: 2 * time.Second})
	<-done
	if err == nil {
		t.Fatal("handshake with a peer that died mid-hello succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("handshake error took %v, deadline was 2s", elapsed)
	}
}

// An established connection dying abruptly (no goodbye marker — a
// crashed peer) must latch a connection-lost error that Recv and Send
// report, instead of stalling the surviving rank.
func TestTCPPeerCrashLatchesError(t *testing.T) {
	eps := mkTCPWithConfig(t, 2, 42740, TCPConfig{})
	defer eps[0].Close()
	// Crash rank 1: close its raw socket to rank 0 without the graceful
	// shutdown sequence.
	eps[1].conns[0].Close()

	recvDone := make(chan error, 1)
	go func() {
		_, err := eps[0].Recv()
		recvDone <- err
	}()
	select {
	case err := <-recvDone:
		if err == nil || !strings.Contains(err.Error(), "lost") {
			t.Fatalf("Recv after peer crash = %v, want connection-lost error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv hung after peer crash")
	}
	if err := eps[0].Err(); err == nil {
		t.Fatal("Err() nil after peer crash")
	}
	if err := eps[0].Send(1, []byte("x")); err == nil {
		t.Fatal("Send after latched failure succeeded")
	}
}

// A graceful peer Close (goodbye marker on the wire) is not a failure:
// the surviving rank's Err stays nil.
func TestTCPGracefulCloseIsNotAFailure(t *testing.T) {
	eps := mkTCPWithConfig(t, 2, 42750, TCPConfig{})
	if err := eps[1].Close(); err != nil {
		t.Fatal(err)
	}
	// Give rank 0's reader time to process the goodbye + EOF.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := eps[0].Err(); err != nil {
			t.Fatalf("graceful peer close latched a failure: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
}

// Frames accepted by Send before Close must still reach the peer: the
// shutdown sequence drains the outbound queues before goodbye.
func TestTCPCloseDrainsInFlightFrames(t *testing.T) {
	eps := mkTCPWithConfig(t, 2, 42760, TCPConfig{})
	const n = 500
	for i := 0; i < n; i++ {
		b := LeaseFrame(2)
		if err := eps[0].Send(1, append(b, byte(i), byte(i>>8))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f, err := eps[1].Recv()
		if err != nil {
			t.Fatalf("frame %d of %d lost in shutdown: %v", i, n, err)
		}
		if got := int(f.Data[0]) | int(f.Data[1])<<8; got != i {
			t.Fatalf("frame %d arrived as %d", i, got)
		}
	}
	eps[1].Close()
}

// Killing one rank of a live TCP mesh — Abort after three sends, which
// is all a crashed process shows the wire — turns into errors on the
// peers, not hangs.
func TestTCPKillSurfacesOnPeer(t *testing.T) {
	eps := mkTCPWithConfig(t, 2, 42770, TCPConfig{writeTimeout: 2 * time.Second})
	defer eps[0].Close()
	for i := 0; i < 3; i++ {
		b := LeaseFrame(1)
		if err := eps[1].Send(0, append(b, byte(i))); err != nil {
			t.Fatalf("send %d before the kill: %v", i, err)
		}
	}
	eps[1].Abort()
	// Rank 0 must observe the abrupt death within the read path.
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := eps[0].Recv(); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("nil error after peer kill")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rank 0 never observed the killed peer")
	}
}
