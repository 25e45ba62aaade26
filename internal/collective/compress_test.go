package collective

import (
	"testing"

	"parallax/internal/tensor"
	"parallax/internal/transport"
)

func TestAllReduceCodecHalfPrecision(t *testing.T) {
	for _, codec := range []transport.Codec{transport.CodecF16, transport.CodecBF16} {
		for _, n := range []int{1, 2, 3, 4} {
			const elems = 29
			results := make([]*tensor.Dense, n)
			inputs := make([]*tensor.Dense, n)
			for r := 0; r < n; r++ {
				inputs[r] = tensor.NewRNG(int64(100*r+elems)).RandN(1, elems)
			}
			RunWorld(n, func(c *Comm) {
				d := inputs[c.Rank()].Clone()
				AllReduceCodecTagged(c, TagsFor("h"), d, codec)
				results[c.Rank()] = d
			})
			// All ranks identical, bit for bit.
			for r := 1; r < n; r++ {
				for i := 0; i < elems; i++ {
					if results[r].Data()[i] != results[0].Data()[i] {
						t.Fatalf("%s n=%d rank %d elem %d diverged", codec, n, r, i)
					}
				}
			}
			// Matches the reference: per chunk, quantize(sum of
			// quantized contributions) — computed here without any
			// transport in the loop.
			want := make([]float32, elems)
			for r := 0; r < n; r++ {
				q := append([]float32(nil), inputs[r].Data()...)
				codec.Quantize(q)
				for i, v := range q {
					want[i] += v
				}
			}
			codec.Quantize(want)
			for i := 0; i < elems; i++ {
				if results[0].Data()[i] != want[i] {
					t.Fatalf("%s n=%d elem %d = %v, want %v", codec, n, i, results[0].Data()[i], want[i])
				}
			}
			// Result values lie on the codec's grid (quantize idempotent).
			again := append([]float32(nil), results[0].Data()...)
			codec.Quantize(again)
			for i := range again {
				if again[i] != results[0].Data()[i] {
					t.Fatalf("%s result element %d off grid", codec, i)
				}
			}
		}
	}
}

func TestAllReduceTopKFullFractionExact(t *testing.T) {
	// frac=1 with CodecF32 selects everything: the result equals the
	// plain sum and the residual is exactly zero.
	for _, n := range []int{1, 2, 3} {
		const elems = 23
		inputs := make([]*tensor.Dense, n)
		for r := 0; r < n; r++ {
			inputs[r] = tensor.NewRNG(int64(7*(r+1))).RandN(1, elems)
		}
		want := tensor.NewDense(elems)
		for _, in := range inputs {
			want.AddInto(in)
		}
		results := make([]*tensor.Dense, n)
		residuals := make([][]float32, n)
		RunWorld(n, func(c *Comm) {
			d := inputs[c.Rank()].Clone()
			res := make([]float32, elems)
			AllReduceTopKTagged(c, TagsFor("tk"), d, 1.0, transport.CodecF32, res, &TopKScratch{})
			results[c.Rank()] = d
			residuals[c.Rank()] = res
		})
		for r := 0; r < n; r++ {
			if results[r].MaxAbsDiff(want) > 1e-5 {
				t.Fatalf("n=%d rank %d top-k full fraction differs from dense sum", n, r)
			}
			for i, v := range residuals[r] {
				if v != 0 {
					t.Fatalf("n=%d rank %d residual[%d] = %v, want 0", n, r, i, v)
				}
			}
		}
	}
}

func TestAllReduceTopKErrorFeedback(t *testing.T) {
	// One rank, k=1: only the largest-|v| entry ships; everything else
	// lands in the residual and folds into the next step's selection.
	d := tensor.FromSlice([]float32{0.5, -3, 1, 0.25}, 4)
	res := make([]float32, 4)
	var scratch TopKScratch
	RunWorld(1, func(c *Comm) {
		AllReduceTopKTagged(c, TagsFor("ef"), d, 0.25, transport.CodecF32, res, &scratch)
	})
	if got := d.Data(); got[0] != 0 || got[1] != -3 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("step 1 output %v, want [0 -3 0 0]", got)
	}
	if res[0] != 0.5 || res[1] != 0 || res[2] != 1 || res[3] != 0.25 {
		t.Fatalf("step 1 residual %v, want [0.5 0 1 0.25]", res)
	}
	// Step 2: new gradient folds with the residual before selection.
	d2 := tensor.FromSlice([]float32{0, 0, 0.5, 0}, 4)
	RunWorld(1, func(c *Comm) {
		AllReduceTopKTagged(c, TagsFor("ef"), d2, 0.25, transport.CodecF32, res, &scratch)
	})
	if got := d2.Data(); got[2] != 1.5 {
		t.Fatalf("step 2 did not select accumulated element: %v", got)
	}
	if res[2] != 0 || res[0] != 0.5 || res[3] != 0.25 {
		t.Fatalf("step 2 residual %v", res)
	}
}

func TestAllReduceTopKAllRanksAgreeBitwise(t *testing.T) {
	for _, codec := range []transport.Codec{transport.CodecF32, transport.CodecF16} {
		const n, elems = 4, 53
		results := make([]*tensor.Dense, n)
		RunWorld(n, func(c *Comm) {
			d := tensor.NewRNG(int64(31*(c.Rank()+1))).RandN(1, elems)
			res := make([]float32, elems)
			AllReduceTopKTagged(c, TagsFor("agree"), d, 0.1, codec, res, &TopKScratch{})
			results[c.Rank()] = d
		})
		for r := 1; r < n; r++ {
			for i := 0; i < elems; i++ {
				if results[r].Data()[i] != results[0].Data()[i] {
					t.Fatalf("%s rank %d elem %d diverged", codec, r, i)
				}
			}
		}
		// k = floor(0.1*53) = 5 per rank; at most n*k entries nonzero.
		nonzero := 0
		for _, v := range results[0].Data() {
			if v != 0 {
				nonzero++
			}
		}
		if nonzero > n*5 {
			t.Fatalf("%s %d nonzero entries, top-k budget is %d", codec, nonzero, n*5)
		}
	}
}

func TestTopKTieBreakAscending(t *testing.T) {
	// Four equal-magnitude entries, k=2: the two lowest indices win.
	d := tensor.FromSlice([]float32{1, -1, 1, -1}, 4)
	res := make([]float32, 4)
	RunWorld(1, func(c *Comm) {
		AllReduceTopKTagged(c, TagsFor("tie"), d, 0.5, transport.CodecF32, res, &TopKScratch{})
	})
	got := d.Data()
	if got[0] != 1 || got[1] != -1 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("tie-break selected %v, want lowest indices [1 -1 0 0]", got)
	}
}

func TestKthLargest(t *testing.T) {
	cases := []struct {
		a    []float32
		k    int
		want float32
	}{
		{[]float32{3, 1, 2}, 1, 3},
		{[]float32{3, 1, 2}, 2, 2},
		{[]float32{3, 1, 2}, 3, 1},
		{[]float32{5}, 1, 5},
		{[]float32{2, 2, 2, 2}, 2, 2},
		{[]float32{0, 0, 0, 1}, 1, 1},
		{[]float32{0, 0, 0, 1}, 2, 0},
		{[]float32{7, 7, 1, 7, 3}, 3, 7},
		{[]float32{7, 7, 1, 7, 3}, 4, 3},
	}
	for _, tc := range cases {
		a := append([]float32(nil), tc.a...)
		if got := kthLargest(a, tc.k); got != tc.want {
			t.Errorf("kthLargest(%v, %d) = %v, want %v", tc.a, tc.k, got, tc.want)
		}
	}
	// Large duplicate-heavy input stays correct (and fast).
	big := make([]float32, 100000)
	for i := range big {
		big[i] = float32(i % 7)
	}
	if got := kthLargest(big, 1); got != 6 {
		t.Errorf("kthLargest dup-heavy = %v, want 6", got)
	}
}
