//go:build !linux

package transport

import "io"

// Without the Linux build's raw non-blocking socket calls the reader
// goroutine is each connection's only drainer and TryRecv reads nothing
// but the inbox; Send still writes on the caller's goroutine.

type engine struct{}

type engineConn struct{}

func (t *TCP) engineInit() error { return nil }

func (t *TCP) engineStop() {}

func (t *TCP) probe() bool { return false }

// readLoop is the connection's reader goroutine: it blocks in Read and
// parses whatever arrives into the inbox.
func (t *TCP) readLoop(pc *peerConn) {
	defer t.readers.Done()
	for {
		n, err := pc.conn.Read(pc.fr.target())
		_, end, ferr := pc.fr.advance(n, &t.stats.framesReader)
		if ferr != nil {
			t.fail(pc.peer, ferr)
		}
		if end {
			return
		}
		if err != nil {
			if err == io.EOF {
				err = pc.fr.eofError()
			}
			t.fail(pc.peer, err) // no-op if our own Close is in progress
			return
		}
	}
}

// write puts one whole frame on pc's socket; the caller holds pc.wmu.
func (t *TCP) write(pc *peerConn, b []byte) error { return t.writeBlocking(pc, b) }
