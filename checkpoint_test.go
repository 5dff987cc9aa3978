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
// leave the directories in.
func TestCheckpointedGenerateMatchesPlain(t *testing.T) {
	for _, ranks := range []int{1, 3} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			cfg := Config{N: 20_000, X: 3, Ranks: ranks, Workers: 1, Seed: 17}
			plain, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := binaryBytes(t, plain.Graph)
			// check returns the shard bytes the run wrote itself and the
			// bytes its shards hold when it ends. Recover truncates a shard
			// to the resumed epoch's mark and the sink counts only the
			// process's own writes from there, so a resume writes exactly
			// the final sizes less the epoch's marked offsets.
			check := func(label string, c Config) (written, size int64) {
				t.Helper()
				res, err := Generate(c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(binaryBytes(t, res.Graph), want) {
					t.Fatalf("%s: graph differs from the uncheckpointed run's", label)
				}
				for r, st := range res.Ranks {
					written += st.SinkBytes
					fi, err := os.Stat(esink.ShardPath(filepath.Join(c.CheckpointDir, "shards"), r, ranks))
					if err != nil {
						t.Fatal(err)
					}
					size += fi.Size()
				}
				return written, size
			}
			// marked sums the shard offsets epoch's snapshots mark.
			marked := func(dir string, epoch int64) int64 {
				var off int64
				for r := 0; r < ranks; r++ {
					s, err := ckpt.Read(ckpt.Path(dir, r, epoch))
					if err != nil {
						t.Fatal(err)
					}
					off += s.Sink.Offset
				}
				return off
			}
			resumed := func(label string, c Config, off int64) int64 {
				t.Helper()
				written, size := check(label, c)
				if written != size-off {
					t.Fatalf("%s: the resume wrote %d shard bytes; the shards hold %d, the resumed epoch marks %d", label, written, size, off)
				}
				return written
			}

			// The epoch count is schedule-bound; retry at shorter intervals
			// until the directory holds two.
			var dir string
			var epochs []int64
			for _, every := range []int64{cfg.N / 8, cfg.N / 16, cfg.N / 32, cfg.N / 64} {
				dir = t.TempDir()
				c := cfg
				c.CheckpointDir, c.CheckpointEvery, c.CheckpointKeep = dir, every, 1000
				check("uninterrupted", c)
				if epochs, err = ckpt.Epochs(dir, 0); err != nil {
					t.Fatal(err)
				}
				if len(epochs) >= 2 {
					break
				}
			}
			if len(epochs) < 2 {
				t.Fatalf("%d epochs committed, want >= 2", len(epochs))
			}
			resume := cfg
			resume.CheckpointDir, resume.CheckpointKeep, resume.Resume = dir, 1000, true

			// Killed after the last epoch: every snapshot is on disk.
			lastOff, midOff := marked(dir, epochs[len(epochs)-1]), marked(dir, epochs[len(epochs)-2])
			last := resumed("after the last epoch", resume, lastOff)

			// Killed mid-epoch: the newest epoch reached the other ranks'
			// disks but not the last rank's, whose write left a torn
			// temporary file.
			top := ckpt.Path(dir, ranks-1, epochs[len(epochs)-1])
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
			mid := resumed("mid-epoch", resume, midOff)

			// Killed before the first epoch: no snapshot, and the shards of
			// a run that got further than the fresh start will.
			for r := 0; r < ranks; r++ {
				for _, ep := range epochs {
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
			fresh := resumed("before the first epoch", resume, 0)
			// Two epochs can mark the same offsets when no rank's frontier
			// moved between them; then the two resumes write alike.
			if last > mid || mid >= fresh || lastOff != midOff && last == mid {
				t.Fatalf("shard bytes written after the last epoch %d (marks %d), mid-epoch %d (marks %d), before the first %d: want each resume from a further mark to regenerate less",
					last, lastOff, mid, midOff, fresh)
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
