package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
// the reference encoder agree byte for byte around every chunk boundary
// at one, two and four encoder lanes.
func TestBinaryWritersMatchReference(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, m := range []int{0, 1, encChunkEdges - 1, encChunkEdges, encChunkEdges + 1, 3*encChunkEdges + 7} {
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
