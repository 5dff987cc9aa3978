package graph

import (
	"encoding/binary"
	"fmt"
	"io"
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

// WriteBinaryStream writes an n-node, m-edge graph in the binary PAGB
// format from an edge stream, without materializing the edge list. The
// output is byte-identical to WriteBinary over the same edges in the
// same order, so a streamed run's merged shards convert to exactly the
// file an in-memory run would have written. The iterator must yield
// exactly m edges (the count is part of the header). w is written from
// another goroutine, one Write at a time and none after return.
func WriteBinaryStream(w io.Writer, n, m int64, it EdgeIterator) error {
	if err := writeBinaryHeader(w, n, m); err != nil {
		return err
	}
	// The write of one buffer overlaps the filling of the other; every
	// return waits for the write in flight, whose result is in pending.
	var pending chan error
	wait := func() error {
		if pending == nil {
			return nil
		}
		err := <-pending
		pending = nil
		return err
	}
	var batch [512]Edge
	bufs := [2][]byte{make([]byte, 0, encChunkBytes), make([]byte, 0, encChunkBytes)}
	buf, cur := bufs[0], 0
	var written int64
	for more := true; more; {
		k := 0
		for ; k < len(batch); k++ {
			if batch[k], more = it.Next(); !more {
				break
			}
		}
		written += int64(k)
		buf = appendEdges(buf, batch[:k])
		// Write at the end, and once another batch might not fit.
		if len(buf) > 0 && (!more || cap(buf)-len(buf) < len(batch)*2*binary.MaxVarintLen64) {
			if err := wait(); err != nil {
				return err
			}
			pending = make(chan error, 1)
			go func(b []byte, done chan<- error) {
				_, err := w.Write(b)
				done <- err
			}(buf, pending)
			cur ^= 1
			buf = bufs[cur]
		}
	}
	if err := wait(); err != nil {
		return err
	}
	if err := it.Err(); err != nil {
		return err
	}
	if written != m {
		return fmt.Errorf("graph: stream yielded %d edges, header promised %d", written, m)
	}
	return nil
}
