package tensor

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func mkSparse(rows []int, vals []float32, w, dim0 int) *Sparse {
	return NewSparse(rows, FromSlice(vals, len(rows), w), dim0)
}

func TestSparseToDenseSumsDuplicates(t *testing.T) {
	s := mkSparse([]int{1, 1, 3}, []float32{1, 2, 10, 20, 100, 200}, 2, 4)
	d := s.ToDense()
	if d.At(1, 0) != 11 || d.At(1, 1) != 22 {
		t.Fatalf("duplicate rows not summed: %v", d.Data())
	}
	if d.At(3, 0) != 100 || d.At(0, 0) != 0 {
		t.Fatalf("wrong scatter: %v", d.Data())
	}
}

func TestCoalesceSortsAndSums(t *testing.T) {
	s := mkSparse([]int{5, 1, 5}, []float32{1, 2, 3, 4, 10, 20}, 2, 8)
	c := s.Coalesce()
	if len(c.Rows) != 2 || c.Rows[0] != 1 || c.Rows[1] != 5 {
		t.Fatalf("rows = %v, want [1 5]", c.Rows)
	}
	if c.Values.At(1, 0) != 11 || c.Values.At(1, 1) != 22 {
		t.Fatalf("values not summed: %v", c.Values.Data())
	}
	if c.Values.At(0, 0) != 3 {
		t.Fatalf("row 1 values wrong: %v", c.Values.Data())
	}
}

func TestConcatVsSumSemantics(t *testing.T) {
	// AR (concat) and PS (sum) aggregation must produce the same *effective*
	// gradient once scattered into the dense variable — the paper's two
	// aggregation paths are mathematically equivalent for SGD.
	a := mkSparse([]int{0, 2}, []float32{1, 2, 3, 4}, 2, 4)
	b := mkSparse([]int{2, 3}, []float32{5, 6, 7, 8}, 2, 4)
	concat := ConcatSparse([]*Sparse{a, b})
	summed := SumSparse([]*Sparse{a, b})
	if concat.NNZRows() != 4 {
		t.Fatalf("concat rows = %d, want 4", concat.NNZRows())
	}
	if summed.NNZRows() != 3 {
		t.Fatalf("summed rows = %d, want 3 (unique)", summed.NNZRows())
	}
	if concat.ToDense().MaxAbsDiff(summed.ToDense()) > 1e-6 {
		t.Fatal("concat and sum aggregation disagree after densify")
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	g := NewRNG(7)
	emb := g.RandN(1, 10, 4)
	rows := []int{3, 9, 3}
	looked := Gather(emb, rows)
	if looked.Dim(0) != 3 || looked.Dim(1) != 4 {
		t.Fatalf("gather shape %v", looked.Shape())
	}
	if looked.At(0, 0) != emb.At(3, 0) || looked.At(2, 3) != emb.At(3, 3) {
		t.Fatal("gather picked wrong rows")
	}
	// scatter-add the gathered rows back with a = -1 onto a copy: rows 3
	// (twice) and 9 get subtracted.
	cp := emb.Clone()
	sp := NewSparse(rows, looked, 10)
	ScatterAddSparse(cp, -1, sp)
	if math.Abs(float64(cp.At(9, 0))) > 1e-6 {
		t.Fatalf("row 9 not cancelled: %v", cp.At(9, 0))
	}
	if math.Abs(float64(cp.At(3, 0))+float64(emb.At(3, 0))) > 1e-5 {
		t.Fatalf("row 3 should be -original (subtracted twice): %v", cp.At(3, 0))
	}
	if cp.At(5, 2) != emb.At(5, 2) {
		t.Fatal("untouched row modified")
	}
}

func TestAlphaOf(t *testing.T) {
	if a := AlphaOf([]int{1, 1, 2}, 10); math.Abs(a-0.2) > 1e-12 {
		t.Fatalf("AlphaOf = %v, want 0.2", a)
	}
	if a := AlphaOf(nil, 10); a != 0 {
		t.Fatalf("AlphaOf(empty) = %v, want 0", a)
	}
	if a := AlphaOf([]int{0}, 0); a != 0 {
		t.Fatalf("AlphaOf(dim0=0) = %v, want 0", a)
	}
}

func TestPartitionRowsCoversExactly(t *testing.T) {
	for _, tc := range []struct{ dim0, p int }{{10, 3}, {7, 7}, {5, 8}, {1000003, 64}, {0, 4}} {
		rs := PartitionRows(tc.dim0, tc.p)
		if len(rs) != tc.p {
			t.Fatalf("got %d ranges, want %d", len(rs), tc.p)
		}
		prev := 0
		total := 0
		for _, r := range rs {
			if r.Start != prev {
				t.Fatalf("gap: range starts at %d, want %d", r.Start, prev)
			}
			if r.End < r.Start {
				t.Fatalf("negative range %+v", r)
			}
			total += r.Len()
			prev = r.End
		}
		if total != tc.dim0 {
			t.Fatalf("ranges cover %d rows, want %d", total, tc.dim0)
		}
		// Balanced: max-min <= 1.
		minL, maxL := rs[0].Len(), rs[0].Len()
		for _, r := range rs {
			if r.Len() < minL {
				minL = r.Len()
			}
			if r.Len() > maxL {
				maxL = r.Len()
			}
		}
		if maxL-minL > 1 {
			t.Fatalf("imbalance %d for dim0=%d p=%d", maxL-minL, tc.dim0, tc.p)
		}
	}
}

func TestSplitStitchRoundTrip(t *testing.T) {
	g := NewRNG(11)
	const dim0, w = 50, 3
	rows := make([]int, 20)
	for i := range rows {
		rows[i] = g.Intn(dim0)
	}
	s := NewSparse(rows, g.RandN(1, len(rows), w), dim0)
	ranges := PartitionRows(dim0, 6)
	parts := SplitSparse(s, ranges)
	if len(parts) != 6 {
		t.Fatalf("got %d parts", len(parts))
	}
	back := StitchSparse(parts, ranges, dim0)
	if back.ToDense().MaxAbsDiff(s.ToDense()) > 1e-6 {
		t.Fatal("split+stitch changed the effective gradient")
	}
	// Every split slice landed in the right range, re-based locally.
	for pi, p := range parts {
		for _, r := range p.Rows {
			if r < 0 || r >= ranges[pi].Len() {
				t.Fatalf("partition %d has local row %d outside [0,%d)", pi, r, ranges[pi].Len())
			}
		}
	}
}

// Property: for random sparse tensors and partition counts, the effective
// dense gradient is invariant under split/stitch and under coalesce.
func TestSparseInvariantsProperty(t *testing.T) {
	g := NewRNG(13)
	f := func(seed int64) bool {
		r := NewRNG(seed)
		dim0 := 1 + r.Intn(40)
		w := 1 + r.Intn(4)
		n := r.Intn(30)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = r.Intn(dim0)
		}
		s := NewSparse(rows, r.RandN(1, n, w), dim0)
		p := 1 + r.Intn(10)
		ranges := PartitionRows(dim0, p)
		stitched := StitchSparse(SplitSparse(s, ranges), ranges, dim0)
		if stitched.ToDense().MaxAbsDiff(s.ToDense()) > 1e-5 {
			return false
		}
		co := s.Coalesce()
		if !sort.IntsAreSorted(co.Rows) {
			return false
		}
		return co.ToDense().MaxAbsDiff(s.ToDense()) < 1e-5
	}
	cfg := &quick.Config{MaxCount: 50, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	_ = g
}
