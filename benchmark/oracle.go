package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"

	"pagen/internal/graph"
	"pagen/internal/model"
	"pagen/internal/seq"
)

// fingerprint identifies a generated graph independent of edge order:
// the edge count and the XOR of every edge's FNV-1a hash. Multi-rank
// output is ordered by rank, so only an order-insensitive hash can be
// compared against the sequential oracle.
type fingerprint struct {
	Edges int64
	Hash  uint64
}

func (f *fingerprint) add(e graph.Edge) {
	f.Edges++
	f.Hash ^= edgeHash(e.U, e.V)
}

func (f fingerprint) String() string { return fmt.Sprintf("%d %016x", f.Edges, f.Hash) }

// edgeHash is 64-bit FNV-1a over the edge's 16 little-endian bytes, U
// then V — the same per-edge hash internal/bench's fingerprints XOR.
func edgeHash(u, v int64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for s := 0; s < 64; s += 8 {
		h = (h ^ uint64(byte(u>>s))) * prime
	}
	for s := 0; s < 64; s += 8 {
		h = (h ^ uint64(byte(v>>s))) * prime
	}
	return h
}

func fingerprintEdges(shards ...[]graph.Edge) fingerprint {
	var f fingerprint
	for _, s := range shards {
		for _, e := range s {
			f.add(e)
		}
	}
	return f
}

func fingerprintIter(it graph.EdgeIterator) (fingerprint, error) {
	var f fingerprint
	for {
		e, ok := it.Next()
		if !ok {
			return f, it.Err()
		}
		f.add(e)
	}
}

// fingerprintFile decodes a binary graph file (graph.WriteBinary's PAGB
// format) edge by edge, so a repetition is verified from the bytes it
// left on disk without holding a second copy of the graph in memory.
func fingerprintFile(path string) (fingerprint, error) {
	var fp fingerprint
	f, err := os.Open(path)
	if err != nil {
		return fp, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != "PAGB" {
		return fp, fmt.Errorf("%s: not a binary graph file", path)
	}
	if _, err := binary.ReadUvarint(br); err != nil { // node count
		return fp, fmt.Errorf("%s: %w", path, err)
	}
	m, err := binary.ReadUvarint(br)
	if err != nil {
		return fp, fmt.Errorf("%s: %w", path, err)
	}
	for i := uint64(0); i < m; i++ {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return fp, fmt.Errorf("%s: edge %d of %d: %w", path, i, m, err)
		}
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return fp, fmt.Errorf("%s: edge %d of %d: %w", path, i, m, err)
		}
		fp.add(graph.Edge{U: int64(u), V: int64(v)})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return fp, fmt.Errorf("%s: trailing bytes after %d edges", path, m)
	}
	return fp, nil
}

// oracleMain is the -oracle child mode: it prints the fingerprint of
// the sequential copy model's graph for the given input.
func oracleMain(in input) int {
	g, _, err := seq.CopyModel(in.pr, in.seed, seq.CopyModelOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		return 1
	}
	fmt.Println(fingerprintEdges(g.Edges))
	return 0
}

// runOracle computes the reference fingerprint in a child process, so
// the oracle's edge list and attachment table never count towards this
// process's peak resident set.
func runOracle(in input) (fingerprint, error) {
	var fp fingerprint
	exe, err := os.Executable()
	if err != nil {
		return fp, err
	}
	cmd := exec.Command(exe, "-oracle",
		"-n", fmt.Sprint(in.pr.N), "-seed", fmt.Sprint(in.seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fp, fmt.Errorf("oracle child: %w", err)
	}
	if _, err := fmt.Sscanf(string(out), "%d %x", &fp.Edges, &fp.Hash); err != nil {
		return fp, fmt.Errorf("oracle child printed %q: %w", out, err)
	}
	if fp.Edges != in.pr.M() {
		return fp, fmt.Errorf("oracle produced %d edges, model says %d", fp.Edges, in.pr.M())
	}
	return fp, nil
}

// input is the generator input shared by every workload and ladder rung.
type input struct {
	pr   model.Params
	seed uint64
}

// Fixed model parameters; only n is a flag, for the tests' small runs.
const (
	defaultN = 1_000_000
	fixedX   = 4
	fixedP   = 0.5
)

func newInput(n int64, seed uint64) input {
	return input{pr: model.Params{N: n, X: fixedX, P: fixedP}, seed: seed}
}
