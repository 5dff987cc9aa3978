//go:build linux

package transport

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Engine-driven socket I/O: the non-blocking read, write and readiness
// probe that let the goroutine calling Send and TryRecv move the bytes
// itself. Everything here goes to the descriptor through
// syscall.RawConn, whose reference counting keeps a descriptor number
// from being reused under a call in progress.
//
// The reads cannot use RawConn.Read or net.Conn.Read: both hold the
// descriptor's read lock for the whole call, including while they wait
// for readiness, and the reader goroutine is parked in exactly such a
// call. RawConn.Control takes only a reference, so the drain issues its
// read(2) from there; the per-connection rmu, not the descriptor's read
// lock, is what serialises the two drainers.

// probeGap is the shortest time between two readiness probes of one
// endpoint. A probe costs about as much as a failed read (≈ 0.2 µs), and
// a rank polls every few microseconds while it generates; without the
// gate four and eight busy ranks on two cores spent more on probing than
// the shorter round trips gave back.
const probeGap = 20 * time.Microsecond

// engine is the endpoint's private epoll instance over the peer
// sockets, next to the runtime's own. Level-triggered: a socket the
// reader goroutine is busy with, or that was only partly drained, shows
// up again at the next probe.
type engine struct {
	mu        sync.Mutex // guards epfd and the contents of events
	epfd      int
	events    []syscall.EpollEvent // nil when the endpoint has no peers
	lastProbe atomic.Int64         // nanoseconds since TCP.start
}

// engineConn is the connection's raw handle plus the argument and result
// slots of its read and write callbacks. The callbacks are built once:
// a closure made per call would escape through the RawConn interface and
// allocate on the hot path.
type engineConn struct {
	rc syscall.RawConn

	rdFn  func(fd uintptr) // one read(2) into rdBuf; guarded by rmu
	rdBuf []byte
	rdN   int
	rdErr error

	wrFn  func(fd uintptr) bool // one write(2) of wrBuf; guarded by wmu
	wrBuf []byte
	wrN   int
	wrErr error
}

// maxProbeEvents bounds how many ready sockets one probe reports; with
// more ready than that the rest are reported by the next probes.
const maxProbeEvents = 64

// engineInit takes the raw handle of every connection and registers the
// sockets with a new epoll instance.
func (t *TCP) engineInit() error {
	t.eng.epfd = -1
	if len(t.peers) < 2 {
		return nil
	}
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return fmt.Errorf("transport: %w", os.NewSyscallError("epoll_create1", err))
	}
	for _, pc := range t.peers {
		if pc == nil {
			continue
		}
		err = pc.engineInit(epfd)
		if err != nil {
			syscall.Close(epfd)
			return fmt.Errorf("transport: connection to rank %d: %w", pc.peer, err)
		}
	}
	t.eng.epfd = epfd
	t.eng.events = make([]syscall.EpollEvent, min(len(t.peers)-1, maxProbeEvents))
	return nil
}

func (pc *peerConn) engineInit(epfd int) error {
	sc, ok := pc.conn.(syscall.Conn)
	if !ok {
		return fmt.Errorf("%T has no raw handle", pc.conn)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	pc.rc = rc
	pc.rdFn = func(fd uintptr) {
		pc.rdN, pc.rdErr = syscall.Read(int(fd), pc.rdBuf)
	}
	pc.wrFn = func(fd uintptr) bool {
		pc.wrN, pc.wrErr = syscall.Write(int(fd), pc.wrBuf)
		return true // never wait here: write reports how far it got
	}
	// The event carries the peer's rank, not the descriptor.
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(pc.peer)}
	var ctlErr error
	err = rc.Control(func(fd uintptr) {
		ctlErr = syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, int(fd), &ev)
	})
	if err == nil && ctlErr != nil {
		err = os.NewSyscallError("epoll_ctl", ctlErr)
	}
	return err
}

// engineStop closes the epoll instance; a probe in progress finishes
// first and later ones find nothing to ask.
func (t *TCP) engineStop() {
	t.eng.mu.Lock()
	if t.eng.epfd >= 0 {
		syscall.Close(t.eng.epfd)
		t.eng.epfd = -1
	}
	t.eng.mu.Unlock()
}

// probe is the receive half of the progress engine: at most once per
// probeGap it asks the kernel, in one non-blocking call whatever the
// rank count, which peer sockets are readable, and drains those into
// the inbox. It never waits — not for the kernel, not for a reader
// goroutine that holds a connection, not for a concurrent probe. It
// reports whether any frame reached the inbox.
func (t *TCP) probe() bool {
	e := &t.eng
	if e.events == nil {
		return false
	}
	now := int64(time.Since(t.start))
	if now-e.lastProbe.Load() < int64(probeGap) || !e.mu.TryLock() {
		return false
	}
	defer e.mu.Unlock()
	if e.epfd < 0 {
		return false
	}
	e.lastProbe.Store(now)
	t.stats.probes.Add(1)
	n, _ := syscall.EpollWait(e.epfd, e.events, 0)
	if n <= 0 {
		return false // nothing readable (or EINTR: the next probe asks again)
	}
	t.stats.probeHits.Add(1)
	got := false
	for _, ev := range e.events[:n] {
		pc := t.peers[ev.Fd]
		if !pc.rmu.TryLock() {
			continue // its reader goroutine is draining it right now
		}
		frames, ended := t.drainLocked(pc, &t.stats.framesInline)
		pc.rmu.Unlock()
		got = got || frames > 0
		if ended {
			// An ended connection stays readable for ever (EOF); stop
			// hearing about it. EPOLL_CTL_DEL ignores the event argument.
			pc.rc.Control(func(fd uintptr) {
				syscall.EpollCtl(e.epfd, syscall.EPOLL_CTL_DEL, int(fd), nil)
			})
		}
	}
	return got
}

// drainLocked reads pc's socket until it would block, pushing every
// complete frame into the inbox and counting it in who. The caller holds
// pc.rmu. It returns the number of frames pushed and whether the
// connection has ended: goodbye marker, or EOF, a read error or an
// oversize frame prefix, which it latches as the failure.
func (t *TCP) drainLocked(pc *peerConn, who *atomic.Int64) (frames int, ended bool) {
	for !pc.ended {
		pc.rdBuf = pc.fr.target()
		if err := pc.rc.Control(pc.rdFn); err != nil {
			pc.rdN, pc.rdErr = -1, err // the socket is closed
		}
		n, err := pc.rdN, pc.rdErr
		switch {
		case n > 0:
			// Read on even after a short read: a FIN that arrived with
			// these bytes raises no further edge for the reader
			// goroutine, so only the next read's 0 reports it.
			got, end, err := pc.fr.advance(n, who)
			frames += got
			pc.ended = end
			if err != nil {
				t.fail(pc.peer, err)
			}
		case n == 0:
			pc.ended = true
			t.fail(pc.peer, pc.fr.eofError())
		case err == syscall.EAGAIN:
			return frames, false
		case err != syscall.EINTR:
			pc.ended = true
			t.fail(pc.peer, os.NewSyscallError("read", err))
		}
	}
	return frames, true
}

// readLoop is the connection's reader goroutine: parked on the runtime's
// network poller until the socket is readable, it then runs the same
// drain as the poll path, under the same lock.
func (t *TCP) readLoop(pc *peerConn) {
	defer t.readers.Done()
	ended := false
	drain := func(uintptr) bool {
		pc.rmu.Lock()
		_, ended = t.drainLocked(pc, &t.stats.framesReader)
		pc.rmu.Unlock()
		return ended // false: wait until readable, then drain again
	}
	err := pc.rc.Read(drain)
	if ended {
		return
	}
	// The wait was cut short: the connection was closed under us. No
	// read deadline is armed after the handshake, so nothing else ends it.
	pc.rmu.Lock()
	pc.ended = true
	pc.rmu.Unlock()
	t.fail(pc.peer, err) // no-op if our own Close is in progress
}

// write puts one whole frame on pc's socket; the caller holds pc.wmu. A
// single non-blocking write almost always takes it all. Only when the
// peer's kernel buffer is full does the rest go through the blocking
// path, under the write timeout.
func (t *TCP) write(pc *peerConn, b []byte) error {
	pc.wrBuf = b
	if err := pc.rc.Write(pc.wrFn); err != nil {
		return err
	}
	n, err := pc.wrN, pc.wrErr
	switch {
	case n == len(b):
		return nil
	case n >= 0:
		b = b[n:]
	case err != syscall.EAGAIN && err != syscall.EINTR:
		return os.NewSyscallError("write", err)
	}
	t.stats.writeStalls.Add(1)
	err = t.writeBlocking(pc, b)
	// RawConn.Write refuses to start once a deadline has passed: do not
	// leave this one behind for a later frame to trip over.
	pc.conn.SetWriteDeadline(time.Time{})
	return err
}
