package checkpoint

import (
	"os"
	"strings"
	"testing"

	"parallax/internal/tensor"
)

// benchShardBytes is the size of one lm_tcp_guarded shard at seed 1.
const benchShardBytes = 328_830

// benchShard returns a one-machine shard that encodes to exactly
// benchShardBytes: one replica record whose value fills the body, its
// name padded to take up the remainder not divisible by four.
func benchShard(b *testing.B) (Meta, []Record) {
	b.Helper()
	meta, _ := sampleShard()
	meta.Machine, meta.Machines = 0, 1
	head, err := Encode(meta, nil)
	if err != nil {
		b.Fatal(err)
	}
	// A rank-1 record with a one-byte name and no slots encodes to 21
	// bytes plus its floats.
	body := benchShardBytes - len(head) - 21
	val := tensor.NewDense(body / 4)
	recs := []Record{{Kind: KindReplica, Name: "w" + strings.Repeat("_", body%4), Value: val}}
	if enc, err := Encode(meta, recs); err != nil || len(enc) != benchShardBytes {
		b.Fatalf("bench shard encodes to %d bytes (err %v), want %d", len(enc), err, benchShardBytes)
	}
	return meta, recs
}

// BenchmarkWriteShard times one durable shard write three ways: into a
// new step directory (an auto-save), over the same file every op (a
// Save into a directory that already holds the shard), and into a new
// step directory followed by the prune machine 0 runs after every
// auto-save.
func BenchmarkWriteShard(b *testing.B) {
	meta, recs := benchShard(b)
	b.Run("fresh", func(b *testing.B) {
		root := b.TempDir()
		b.SetBytes(benchShardBytes)
		for i := 0; i < b.N; i++ {
			dir := StepDir(root, i)
			if err := WriteShard(dir, meta, recs); err != nil {
				b.Fatal(err)
			}
			// Keep the disk footprint to one shard; deleting is the
			// autosave case's work, not this one's.
			b.StopTimer()
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("replace", func(b *testing.B) {
		dir := b.TempDir()
		b.SetBytes(benchShardBytes)
		for i := 0; i < b.N; i++ {
			if err := WriteShard(dir, meta, recs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("autosave", func(b *testing.B) {
		root := b.TempDir()
		b.SetBytes(benchShardBytes)
		for i := 0; i < b.N; i++ {
			if err := WriteShard(StepDir(root, i), meta, recs); err != nil {
				b.Fatal(err)
			}
			if err := PruneAuto(root, meta.Machines, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}
