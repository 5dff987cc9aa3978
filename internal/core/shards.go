package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"pagen/internal/graph"
)

// RunToShards executes the parallel algorithm with every rank streaming
// its edges directly to its own shard file under dir (the paper's
// Section 2 I/O model: processors write to a shared file system
// independently), never materialising the graph in memory. Each rank
// appends to its own writer from its one goroutine, so the writers take
// no lock. The shards are in the binary format of graph.WriteShard and
// merge with graph.ReadShards.
func RunToShards(opts Options, dir string) (*Result, error) {
	if opts.Sink != nil {
		return nil, fmt.Errorf("core: RunToShards sets its own sink")
	}
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.Part == nil {
		return nil, fmt.Errorf("core: nil partition scheme")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := opts.Part.P()

	// One streaming writer per rank; the sink dispatches on rank. Each
	// shard file carries the magic + node count header up-front and a
	// placeholder edge count that is rewritten on close (count is
	// unknown until the run ends).
	writers := make([]*shardWriter, p)
	for r := 0; r < p; r++ {
		w, err := newShardWriter(graph.ShardPath(dir, r, p), opts.Params.N)
		if err != nil {
			return nil, err
		}
		writers[r] = w
	}
	opts.Sink = func(rank int, e graph.Edge) {
		writers[rank].append(e)
	}
	res, runErr := Run(opts, opts.Trace != nil)
	var closeErr error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, w := range writers {
		wg.Add(1)
		go func(w *shardWriter) {
			defer wg.Done()
			if err := w.close(); err != nil {
				mu.Lock()
				if closeErr == nil {
					closeErr = err
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	return res, nil
}

// shardWriter streams edges of one rank to disk. The binary format must
// match graph.WriteBinary exactly, but the edge count is only known at
// the end, so it writes a fixed-width 10-byte uvarint placeholder and
// patches it on close. Not safe for concurrent use: one rank, one
// goroutine, one writer.
type shardWriter struct {
	f        *os.File
	bw       *bufio.Writer
	countOff int64
	count    uint64
	err      error
}

func newShardWriter(path string, n int64) (*shardWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &shardWriter{f: f, bw: bufio.NewWriterSize(f, 1<<20)}
	if _, err := w.bw.WriteString("PAGB"); err != nil {
		f.Close()
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], uint64(n))
	if _, err := w.bw.Write(buf[:k]); err != nil {
		f.Close()
		return nil, err
	}
	w.countOff = int64(4 + k)
	// Placeholder: maximal-width uvarint encoding of 0 does not exist,
	// so reserve MaxVarintLen64 bytes by writing a padded uvarint — a
	// 10-byte encoding with continuation bits and zero payload is not
	// canonical, so instead reserve the bytes and patch a fixed-width
	// encoding later (encodeFixedUvarint always emits 10 bytes).
	if _, err := w.bw.Write(encodeFixedUvarint(0)); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// encodeFixedUvarint encodes x as exactly MaxVarintLen64 bytes by using
// continuation bits on the first nine bytes. binary.ReadUvarint decodes
// it (the padding holds the high bits, which are zero).
func encodeFixedUvarint(x uint64) []byte {
	out := make([]byte, binary.MaxVarintLen64)
	for i := 0; i < binary.MaxVarintLen64-1; i++ {
		out[i] = byte(x&0x7f) | 0x80
		x >>= 7
	}
	out[binary.MaxVarintLen64-1] = byte(x)
	return out
}

func (w *shardWriter) append(e graph.Edge) {
	if w.err != nil {
		return
	}
	var buf [2 * binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], uint64(e.U))
	k += binary.PutUvarint(buf[k:], uint64(e.V))
	if _, err := w.bw.Write(buf[:k]); err != nil {
		w.err = err
		return
	}
	w.count++
}

func (w *shardWriter) close() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if w.err == nil {
		_, w.err = w.f.WriteAt(encodeFixedUvarint(w.count), w.countOff)
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	return w.err
}
