package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk formats:
//
//   - Text: one "u<TAB>v" line per edge, preceded by a "# nodes N" header
//     line. Interoperable with common edge-list tooling.
//   - Binary: magic "PAGB", a uvarint node count and edge count, then
//     per-edge delta-friendly uvarint pairs. Compact enough for
//     multi-hundred-million-edge graphs.

const binaryMagic = "PAGB"

// WriteText writes g in text edge-list format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# nodes %d\n", g.N); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText reads a graph in the format written by WriteText. Lines that
// are empty or start with '#' (other than the node header) are skipped.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	g := &Graph{N: -1}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var n int64
			if _, err := fmt.Sscanf(line, "# nodes %d", &n); err == nil {
				g.N = n
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		g.Edges = append(g.Edges, Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g.N < 0 {
		// No header: infer from the largest endpoint.
		var max int64 = -1
		for _, e := range g.Edges {
			if e.U > max {
				max = e.U
			}
			if e.V > max {
				max = e.V
			}
		}
		g.N = max + 1
	}
	return g, nil
}

// The binary encoder fills buffers of encChunkBytes; a chunk of
// encChunkEdges edges fits one at worst (two 10-byte uvarints an edge),
// so encoding never grows a buffer, and two lanes' ring of five stays
// within 640 KiB yet holds a default shard block's bytes (≈ 400 KB at
// n = 10⁶) while the writer drains the other lane. Two lanes are the
// most that pay: encoding costs about 9 ns an edge and the write 6.
const (
	encChunkBytes = 128 << 10
	encChunkEdges = encChunkBytes / (2 * binary.MaxVarintLen64)
	encMaxLanes   = 2
)

// appendEdges appends the PAGB encoding of edges to b: the one place
// that turns edges into binary graph bytes.
func appendEdges(b []byte, edges []Edge) []byte {
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e.U))
		b = binary.AppendUvarint(b, uint64(e.V))
	}
	return b
}

// WriteBinary writes g in the compact binary format, encoding chunks of
// the edge list on WriteBinaryStream's lanes.
func WriteBinary(w io.Writer, g *Graph) error {
	return WriteBinaryStream(w, g.N, int64(len(g.Edges)), IterEdges(g))
}

// ReadBinary reads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: reading node count: %w", err)
	}
	m, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", err)
	}
	// Cap the initial allocation: a corrupt or adversarial header can
	// declare an absurd edge count, so grow incrementally instead of
	// trusting it (each encoded edge is at least 2 bytes, so truncated
	// inputs fail fast below).
	g := &Graph{N: int64(n), Edges: make([]Edge, 0, min(m, 1<<20))}
	for i := uint64(0); i < m; i++ {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		g.Edges = append(g.Edges, Edge{U: int64(u), V: int64(v)})
	}
	return g, nil
}
