package pagen

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pagen/internal/ckpt"
	"pagen/internal/esink"
	"pagen/internal/graph"
)

// A checkpointed Generate without a StreamDir streams under its
// CheckpointDir and reads Result.Graph back from the shards: written
// with graph.WriteBinary it is byte-identical to an uncheckpointed run's
// — uninterrupted, and resumed after a kill at each point a crash can
// leave the directories in, every rank from its own newest snapshot.
func TestCheckpointedGenerateMatchesPlain(t *testing.T) {
	for _, ranks := range []int{1, 3} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			cfg := Config{N: 20_000, X: 3, Ranks: ranks, Workers: 1, Seed: 17}
			plain, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := binaryBytes(t, plain.Graph)
			// check returns, per rank, the shard bytes the run wrote itself
			// and the bytes its shard holds when it ends. Recover truncates
			// a shard to the mark of the epoch its rank resumes from and the
			// sink counts only the process's own writes from there, so a
			// resumed rank writes exactly its final size less its mark.
			check := func(label string, c Config) (written, size []int64) {
				t.Helper()
				res, err := Generate(c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(binaryBytes(t, res.Graph), want) {
					t.Fatalf("%s: graph differs from the uncheckpointed run's", label)
				}
				for r, st := range res.Ranks {
					fi, err := os.Stat(esink.ShardPath(filepath.Join(c.CheckpointDir, "shards"), r, ranks))
					if err != nil {
						t.Fatal(err)
					}
					written, size = append(written, st.SinkBytes), append(size, fi.Size())
				}
				return written, size
			}
			// marked is the shard offset rank's snapshot of epoch marks.
			marked := func(dir string, rank int, epoch int64) int64 {
				s, err := ckpt.Read(ckpt.Path(dir, rank, epoch))
				if err != nil {
					t.Fatal(err)
				}
				return s.Sink.Offset
			}
			// resumed checks the offset identity rank by rank against the
			// marks off of the epochs the ranks resume from, and returns
			// the bytes the resume wrote and the marks, summed over ranks.
			resumed := func(label string, c Config, off []int64) (written, marks int64) {
				t.Helper()
				w, size := check(label, c)
				for r := range w {
					if w[r] != size[r]-off[r] {
						t.Fatalf("%s: rank %d's resume wrote %d shard bytes; its shard holds %d, its resumed epoch marks %d", label, r, w[r], size[r], off[r])
					}
					written, marks = written+w[r], marks+off[r]
				}
				return written, marks
			}

			// The epoch count is schedule-bound; retry at shorter intervals
			// until every rank's directory holds two.
			var dir string
			epochs := make([][]int64, ranks)
			for _, every := range []int64{cfg.N / 8, cfg.N / 16, cfg.N / 32, cfg.N / 64} {
				dir = t.TempDir()
				c := cfg
				c.CheckpointDir, c.CheckpointEvery, c.CheckpointKeep = dir, every, 1000
				check("uninterrupted", c)
				enough := true
				for r := range epochs {
					if epochs[r], err = ckpt.Epochs(dir, r); err != nil {
						t.Fatal(err)
					}
					enough = enough && len(epochs[r]) >= 2
				}
				if enough {
					break
				}
			}
			lastOff, midOff := make([]int64, ranks), make([]int64, ranks)
			for r, eps := range epochs {
				if len(eps) < 2 {
					t.Fatalf("rank %d published %d epochs, want >= 2", r, len(eps))
				}
				lastOff[r] = marked(dir, r, eps[len(eps)-1])
				midOff[r] = lastOff[r]
			}
			resume := cfg
			resume.CheckpointDir, resume.CheckpointKeep, resume.Resume = dir, 1000, true

			// Killed after the last epoch: every snapshot is on disk.
			last, lastMarks := resumed("after the last epoch", resume, lastOff)

			// Killed mid-epoch: the other ranks' newest epochs reached
			// their disks but not the last rank's, whose write left a torn
			// temporary file; that rank resumes from the epoch before.
			eps := epochs[ranks-1]
			midOff[ranks-1] = marked(dir, ranks-1, eps[len(eps)-2])
			top := ckpt.Path(dir, ranks-1, eps[len(eps)-1])
			data, err := os.ReadFile(top)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(top+".tmp", data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(top); err != nil {
				t.Fatal(err)
			}
			mid, midMarks := resumed("mid-epoch", resume, midOff)

			// Killed before the first epoch: no snapshot, and the shards of
			// a run that got further than the fresh start will.
			for r := 0; r < ranks; r++ {
				for _, ep := range epochs[r] {
					if err := ckpt.Remove(dir, r, ep); err != nil {
						t.Fatal(err)
					}
				}
				f, err := os.OpenFile(esink.ShardPath(filepath.Join(dir, "shards"), r, ranks), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{'B', 0x9f, 0x03, 0x55, 0xaa, 0x00}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			fresh, _ := resumed("before the first epoch", resume, make([]int64, ranks))
			// Two epochs can mark the same offset when the rank's frontier
			// did not move between them; then the two resumes write alike.
			if last > mid || mid >= fresh || lastMarks != midMarks && last == mid {
				t.Fatalf("shard bytes written after the last epoch %d (marks %d), mid-epoch %d (marks %d), before the first %d: want each resume from a further mark to regenerate less",
					last, lastMarks, mid, midMarks, fresh)
			}
		})
	}
}

// binaryBytes renders g in the PAGB binary edge-list format.
func binaryBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := graph.WriteBinary(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
