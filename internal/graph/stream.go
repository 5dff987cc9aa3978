package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
)

// EdgeIterator is a pull-based edge stream — the out-of-core
// counterpart of a Graph's in-memory edge slice. Implementations yield
// edges until exhausted (Next returns false), after which Err reports
// whether iteration ended cleanly or hit an error.
type EdgeIterator interface {
	Next() (Edge, bool)
	Err() error
}

// sliceIter adapts an in-memory edge slice to EdgeIterator.
type sliceIter struct {
	edges []Edge
	i     int
}

func (s *sliceIter) Next() (Edge, bool) {
	if s.i >= len(s.edges) {
		return Edge{}, false
	}
	e := s.edges[s.i]
	s.i++
	return e, true
}

func (s *sliceIter) Err() error { return nil }

// IterEdges returns an EdgeIterator over g's edge list, so code written
// against the streaming interface also accepts in-memory graphs.
func IterEdges(g *Graph) EdgeIterator { return &sliceIter{edges: g.Edges} }

// DegreesFromIterator computes the per-node degree table of an n-node
// graph from an edge stream in one pass, using 8n bytes regardless of
// the edge count — the out-of-core counterpart of Graph.Degrees.
func DegreesFromIterator(n int64, it EdgeIterator) ([]int64, error) {
	deg := make([]int64, n)
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d, %d) outside [0, %d)", e.U, e.V, n)
		}
		deg[e.U]++
		deg[e.V]++
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return deg, nil
}

// Fingerprint hashes an edge stream order-sensitively: FNV-1a over
// each edge's little-endian u and v words. Equal streams hash equal; any
// reordering, duplication or loss almost surely does not. It is the
// one output fingerprint of the repository — pa-analyze -fingerprint,
// the determinism pins and the simulated-network property test all
// compute it.
func Fingerprint(it EdgeIterator) (uint64, error) {
	h := fnv.New64a()
	var buf [16]byte
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(buf[:8], uint64(e.U))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.V))
		h.Write(buf[:])
	}
	if err := it.Err(); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// ChunkedIterator is an EdgeIterator whose edges also split into
// chunks that encode independently; WriteBinaryStream encodes those on
// lanes and never calls Next. IterEdges and esink.DirIter implement it.
type ChunkedIterator interface {
	EdgeIterator
	Chunks() int
	// Lane returns one lane's encoder; lanes run concurrently, each
	// taking its chunks in ascending order. A chunk's encoder makes every
	// check its edges need: nothing checks where two chunks meet.
	Lane() ChunkEncoder
}

// A ChunkEncoder appends chunk i's PAGB bytes to b and returns the
// buffer and the chunk's edge count. It never grows b: it trades a b too
// full for its next edges (2·binary.MaxVarintLen64 bytes an edge) to
// emit for an empty one, or for nil once the writer stopped, and returns.
type ChunkEncoder func(i int, b []byte, emit func([]byte) []byte) ([]byte, int64, error)

func (s *sliceIter) Chunks() int { return (len(s.edges) - s.i + encChunkEdges - 1) / encChunkEdges }

func (s *sliceIter) Lane() ChunkEncoder {
	return func(i int, b []byte, _ func([]byte) []byte) ([]byte, int64, error) {
		c := s.edges[s.i+i*encChunkEdges:]
		c = c[:min(len(c), encChunkEdges)]
		return appendEdges(b, c), int64(len(c)), nil
	}
}

// sequential makes any other EdgeIterator one chunk.
type sequential struct{ EdgeIterator }

func (sequential) Chunks() int { return 1 }

func (s sequential) Lane() ChunkEncoder {
	return func(_ int, b []byte, emit func([]byte) []byte) ([]byte, int64, error) {
		var n int64
		for e, ok := s.Next(); ok && b != nil; e, ok = s.Next() {
			if b, n = appendEdges(b, []Edge{e}), n+1; cap(b)-len(b) < 2*binary.MaxVarintLen64 {
				b = emit(b)
			}
		}
		return b, n, s.Err()
	}
}

// WriteBinaryStream writes an n-node, m-edge graph in the binary PAGB
// format from an edge stream, without materializing the edge list. The
// output is byte-identical to WriteBinary over the same edges in the
// same order, so a streamed run's merged shards convert to exactly the
// file an in-memory run would have written. The iterator must yield
// exactly m edges (the count is part of the header).
//
// Up to GOMAXPROCS lanes (encMaxLanes at most; one for an iterator that
// is not a ChunkedIterator) encode the chunks, lane k taking chunks k,
// k+lanes, ..., and the calling goroutine alone writes w, in chunk
// order. Every lane has exited when WriteBinaryStream returns.
func WriteBinaryStream(w io.Writer, n, m int64, it EdgeIterator) error {
	if _, err := w.Write(binary.AppendUvarint(binary.AppendUvarint([]byte(binaryMagic), uint64(n)), uint64(m))); err != nil {
		return err
	}
	src, ok := it.(ChunkedIterator)
	if !ok {
		src = sequential{it}
	}
	// A piece is a full buffer of a chunk's bytes, or its last one with
	// the lane's result. Of the ring of 2·lanes+1 buffers a lane holds at
	// most lanes+2 (its channel's and one in hand), so the lane the writer
	// waits for can always get one, and the other can run a chunk ahead.
	type piece struct {
		b     []byte
		last  bool
		edges int64
		err   error
	}
	chunks := src.Chunks()
	lanes := max(min(runtime.GOMAXPROCS(0), encMaxLanes, chunks), 1)
	free, stop := make(chan []byte, 2*lanes+1), make(chan struct{})
	for i := 0; i < cap(free); i++ {
		free <- make([]byte, 0, encChunkBytes)
	}
	out := make([]chan piece, lanes)
	var wg sync.WaitGroup
	for k := range out {
		out[k] = make(chan piece, lanes+1)
		wg.Add(1)
		go func(k int, enc ChunkEncoder) {
			defer wg.Done()
			// next hands p, if it holds bytes, to the writer and returns
			// a free buffer: nil after an error or once the writer stopped.
			next := func(p piece) []byte {
				if p.b != nil {
					select {
					case out[k] <- p:
					case <-stop:
						return nil
					}
				}
				if p.err != nil {
					return nil
				}
				select {
				case b := <-free:
					return b[:0]
				case <-stop:
					return nil
				}
			}
			emit := func(b []byte) []byte { return next(piece{b: b}) }
			for i, b := k, next(piece{}); i < chunks && b != nil; i += lanes {
				p := piece{last: true}
				if p.b, p.edges, p.err = enc(i, b, emit); p.b == nil {
					return
				}
				b = next(p)
			}
		}(k, src.Lane())
	}
	var written int64
	var err error
	for i := 0; i < chunks && err == nil; {
		p := <-out[i%lanes]
		if p.last {
			err, written, i = p.err, written+p.edges, i+1
		}
		if err == nil {
			_, err = w.Write(p.b)
		}
		free <- p.b
	}
	close(stop)
	wg.Wait()
	if err == nil && written != m {
		err = fmt.Errorf("graph: stream yielded %d edges, header promised %d", written, m)
	}
	return err
}
