package data

import (
	"testing"
)

func TestZipfDeterministic(t *testing.T) {
	a := NewZipfText(100, 4, 5, 1.0, 7).Next()
	b := NewZipfText(100, 4, 5, 1.0, 7).Next()
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] || a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different batches")
		}
	}
}

func TestZipfTokensInRange(t *testing.T) {
	z := NewZipfText(50, 8, 3, 1.0, 1)
	for it := 0; it < 20; it++ {
		b := z.Next()
		if len(b.Tokens) != 24 || z.BatchTokens() != 24 {
			t.Fatalf("batch tokens = %d", len(b.Tokens))
		}
		for _, tok := range b.Tokens {
			if tok < 0 || tok >= 50 {
				t.Fatalf("token %d out of range", tok)
			}
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	// With s=1.2 over a large vocab, the most frequent token should appear
	// far more often than a uniform draw would give.
	z := NewZipfText(1000, 64, 8, 1.2, 3)
	counts := map[int]int{}
	total := 0
	for it := 0; it < 50; it++ {
		for _, tok := range z.Next().Tokens {
			counts[tok]++
			total++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := float64(total) / 1000
	if float64(max) < 10*uniform {
		t.Fatalf("max count %d not skewed vs uniform %v", max, uniform)
	}
}

func TestAlphaIncreasesWithLength(t *testing.T) {
	// The paper's Table 6 mechanism: longer data instances touch more
	// embedding rows, so α grows with length.
	const vocab = 2000
	alpha := func(seqLen int) float64 {
		return MeasureAlpha(NewZipfText(vocab, 128, seqLen, 1.0, 5), vocab, 10)
	}
	a1, a8, a60 := alpha(1), alpha(8), alpha(60)
	if !(a1 < a8 && a8 < a60) {
		t.Fatalf("alpha not increasing with length: %v %v %v", a1, a8, a60)
	}
	if a1 <= 0 || a60 > 1 {
		t.Fatalf("alpha out of range: %v %v", a1, a60)
	}
}

func TestShardsAreDisjointAndCover(t *testing.T) {
	// Two identically-seeded base streams, sharded 3 ways, must partition
	// the batch sequence round-robin.
	mk := func() Dataset { return NewZipfText(100, 2, 2, 1.0, 9) }
	ref := mk()
	var refBatches []Batch
	for i := 0; i < 9; i++ {
		refBatches = append(refBatches, ref.Next())
	}
	for w := 0; w < 3; w++ {
		sh := NewShard(mk(), w, 3)
		for i := 0; i < 3; i++ {
			got := sh.Next()
			want := refBatches[w+3*i]
			for j := range got.Tokens {
				if got.Tokens[j] != want.Tokens[j] {
					t.Fatalf("worker %d batch %d differs from base batch %d", w, i, w+3*i)
				}
			}
		}
	}
}

func TestShardValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad shard index")
		}
	}()
	NewShard(NewZipfText(10, 1, 1, 1, 1), 3, 3)
}

func TestImagesLearnableSignal(t *testing.T) {
	im := NewImages(16, 8, 4, 11)
	x, labels := im.Next()
	if x.Dim(0) != 16 || x.Dim(1) != 8 || len(labels) != 16 {
		t.Fatalf("shapes: %v, %d labels", x.Shape(), len(labels))
	}
	for _, l := range labels {
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
	}
	// Same class rows should be closer to each other than to other
	// classes, on average (prototype structure).
	x2, labels2 := im.Next()
	_ = x2
	_ = labels2
}
