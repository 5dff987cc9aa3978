package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
)

// refBinary is the reference PAGB encoder both writers are held to.
func refBinary(n int64, edges []Edge) []byte {
	b := []byte(binaryMagic)
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, uint64(len(edges)))
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e.U))
		b = binary.AppendUvarint(b, uint64(e.V))
	}
	return b
}

// wideGraph draws endpoints of every varint width, so chunk boundaries
// fall at every offset inside an edge's encoding.
func wideGraph(m int) *Graph {
	g := randomGraph(uint64(m)+1, 1<<62, m)
	for i := range g.Edges {
		g.Edges[i].U >>= uint(i % 63)
		g.Edges[i].V >>= uint(i * 7 % 63)
	}
	return g
}

// TestBinaryWritersMatchReference: WriteBinary, WriteBinaryStream and
// the reference encoder agree byte for byte around the first chunk
// boundaries and over many chunks, at one, two and four encoder lanes.
func TestBinaryWritersMatchReference(t *testing.T) {
	const c = encChunkEdges
	for _, procs := range []int{1, 2, 4} {
		for _, m := range []int{0, 1, c - 1, c, c + 1, 2 * c, 2*c + 1, 2*c + 2, 3*c + 7, 6*c + 10} {
			t.Run(fmt.Sprintf("procs%d/m%d", procs, m), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				g := wideGraph(m)
				want := refBinary(g.N, g.Edges)
				var mem, stream bytes.Buffer
				if err := WriteBinary(&mem, g); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mem.Bytes(), want) {
					t.Fatalf("WriteBinary wrote %d bytes that differ from the reference's %d", mem.Len(), len(want))
				}
				if err := WriteBinaryStream(&stream, g.N, int64(m), IterEdges(g)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(stream.Bytes(), want) {
					t.Fatalf("WriteBinaryStream wrote %d bytes that differ from the reference's %d", stream.Len(), len(want))
				}
			})
		}
	}
}

// failAfter accepts k bytes, then fails every Write with errDisk.
type failAfter struct{ k int }

var errDisk = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.k {
		n := f.k
		f.k = 0
		return n, errDisk
	}
	f.k -= len(p)
	return len(p), nil
}

// TestBinaryWritersReturnWriteError: a writer that fails after k bytes
// fails both functions with that error, wherever k falls, and every
// encoder lane has exited by the time WriteBinary returns.
func TestBinaryWritersReturnWriteError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := wideGraph(5*encChunkEdges + 3)
	total := len(refBinary(g.N, g.Edges))
	base := runtime.NumGoroutine()
	for _, k := range []int{0, 3, 100, total / 5, total / 2, total - 1} {
		if err := WriteBinary(&failAfter{k: k}, g); !errors.Is(err, errDisk) {
			t.Fatalf("WriteBinary failing after %d bytes returned %v", k, err)
		}
		if err := WriteBinaryStream(&failAfter{k: k}, g.N, g.M(), IterEdges(g)); !errors.Is(err, errDisk) {
			t.Fatalf("WriteBinaryStream failing after %d bytes returned %v", k, err)
		}
	}
	// WriteBinary waits for its lanes; the loop only allows for unrelated
	// runtime goroutines that have not finished exiting.
	for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the failed writes, %d before", n, base)
	}
}

// TestWriteBinaryStreamCountChecked: an iterator one edge short or one
// edge long still gets the count-mismatch error, also when the count
// falls exactly on a chunk boundary.
func TestWriteBinaryStreamCountChecked(t *testing.T) {
	for _, m := range []int{1, encChunkEdges, encChunkEdges + 5} {
		g := wideGraph(m)
		for _, promised := range []int64{int64(m) - 1, int64(m) + 1} {
			var b bytes.Buffer
			if err := WriteBinaryStream(&b, g.N, promised, IterEdges(g)); err == nil {
				t.Fatalf("a stream of %d edges passed for one of %d", m, promised)
			}
		}
	}
}

// chunked is a ChunkedIterator over a list of edge chunks whose encoder
// emits at every chance, so a chunk leaves in many pieces; chunk fail
// returns errLane from its lane.
type chunked struct {
	sliceIter
	chunks [][]Edge
	fail   int
}

var errLane = errors.New("lane failed")

func (c *chunked) Chunks() int { return len(c.chunks) }

func (c *chunked) Lane() ChunkEncoder {
	return func(i int, b []byte, emit func([]byte) []byte) ([]byte, int64, error) {
		for _, e := range c.chunks[i] {
			if cap(b)-len(b) < encChunkBytes/2 {
				if b = emit(b); b == nil {
					return nil, 0, nil
				}
			}
			b = appendEdges(b, []Edge{e})
		}
		if i == c.fail {
			return b, 0, errLane
		}
		return b, int64(len(c.chunks[i])), nil
	}
}

// TestDownloadPiecesInChunkOrder: chunks that leave in many pieces, and
// empty ones, are written in chunk order at one, two and four lanes; a
// lane's error ends the write with that error, and every lane has
// exited when WriteBinaryStream returns.
func TestDownloadPiecesInChunkOrder(t *testing.T) {
	g := wideGraph(3*encChunkEdges + 11)
	var chunks [][]Edge
	for rest, k := g.Edges, 1; len(rest) > 0; k *= 5 {
		chunks = append(chunks, rest[:min(k, len(rest))], nil)
		rest = rest[min(k, len(rest)):]
	}
	want := refBinary(g.N, g.Edges)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			var b bytes.Buffer
			if err := WriteBinaryStream(&b, g.N, g.M(), &chunked{chunks: chunks, fail: -1}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Fatalf("wrote %d bytes that differ from the reference's %d", b.Len(), len(want))
			}
			for _, bad := range []int{0, 3, len(chunks) - 1} {
				if err := WriteBinaryStream(io.Discard, g.N, g.M(), &chunked{chunks: chunks, fail: bad}); !errors.Is(err, errLane) {
					t.Fatalf("a lane failing chunk %d: err = %v", bad, err)
				}
			}
			for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after the writes, %d before", n, base)
			}
		})
	}
}
