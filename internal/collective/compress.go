package collective

import (
	"fmt"

	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// TopKScratch holds the selection workspace AllReduceTopKTagged reuses
// across steps, so the hot loop allocates nothing.
type TopKScratch struct {
	abs  []float32
	idx  []int32
	vals []float32
}

// AllReduceTopKTagged sums t across ranks under top-k sparsification with
// error feedback (Strom-style; the compressed sibling of the fusion
// bucket's AllReduceTagged):
//
//  1. the residual left over from earlier steps folds into the gradient
//     (acc = grad + res);
//  2. each rank selects its k = max(1, frac·len) locally largest |acc|
//     entries (ties broken toward the lower index), rounds the surviving
//     values onto codec's grid, and keeps everything it did NOT send as
//     the next residual (res = acc − scatter(selection));
//  3. every rank ships its selection to every other rank and all ranks
//     scatter-add the N selections into the zeroed tensor in rank order
//     0..N−1.
//
// The rank-ordered fold of step 3 makes every element's f32 accumulation
// order fabric- and layout-independent, the same property the exact
// rank-ordered reduce-scatter pins; combined with on-grid values it keeps
// compressed runs bit-identical across fabrics. res must have t's length;
// it is read and rewritten. The AG tag is unused (a selection exchange
// has a single phase).
func AllReduceTopKTagged(c *Comm, tags Tags, t *tensor.Dense, frac float64, codec transport.Codec, res []float32, scratch *TopKScratch) {
	data := t.Data()
	if len(res) != len(data) {
		panic(fmt.Sprintf("collective: top-k residual length %d for tensor length %d", len(res), len(data)))
	}
	// Error feedback: fold the residual in, then select on the sum.
	tensor.AddTo(res, data)

	k := int(frac * float64(len(data)))
	if k < 1 {
		k = 1
	}
	if k > len(data) {
		k = len(data)
	}

	// Select the k largest |acc| with ascending-index tie-break.
	if cap(scratch.abs) < len(data) {
		scratch.abs = make([]float32, len(data))
	}
	abs := scratch.abs[:len(data)]
	for i, v := range data {
		if v < 0 {
			abs[i] = -v
		} else {
			abs[i] = v
		}
	}
	if cap(scratch.idx) < k {
		scratch.idx = make([]int32, k)
		scratch.vals = make([]float32, k)
	}
	idx := scratch.idx[:0]
	vals := scratch.vals[:0]
	if k == len(data) {
		for i := range data {
			idx = append(idx, int32(i))
		}
	} else {
		// kthLargest permutes abs, so membership is re-tested against
		// data: strictly-above entries always survive, the remaining
		// budget goes to ==thr entries in ascending index order.
		thr := kthLargest(abs, k)
		above := 0
		for _, v := range data {
			if v < 0 {
				v = -v
			}
			if v > thr {
				above++
			}
		}
		atThr := k - above
		for i, v := range data {
			if v < 0 {
				v = -v
			}
			if v > thr {
				idx = append(idx, int32(i))
			} else if v == thr && atThr > 0 {
				idx = append(idx, int32(i))
				atThr--
			}
		}
	}
	for _, i := range idx {
		vals = append(vals, data[i])
	}
	codec.Quantize(vals)

	// Residual: everything not shipped, plus the rounding error of what
	// was. data currently holds acc; subtract the on-grid selection.
	copy(res, data)
	for j, i := range idx {
		res[i] -= vals[j]
	}

	n := c.Size()
	ch := transport.SparseChunk{Len: len(data), Idx: idx, Vals: vals, Codec: codec}
	for dst := 0; dst < n; dst++ {
		if dst != c.rank {
			c.t.SendF32Sparse(dst, tags.RS, ch)
		}
	}

	// Zero the tensor and scatter-add every rank's selection in rank
	// order, so each element's accumulation order is deterministic.
	for i := range data {
		data[i] = 0
	}
	for r := 0; r < n; r++ {
		if r == c.rank {
			for j, i := range idx {
				data[i] += vals[j]
			}
			continue
		}
		in := c.t.RecvF32Sparse(r, tags.RS)
		if in.Len != len(data) {
			panic(fmt.Sprintf("collective: top-k chunk length mismatch %d vs %d", in.Len, len(data)))
		}
		for j, i := range in.Idx {
			data[i] += in.Vals[j]
		}
	}
}

// kthLargest returns the k-th largest value of a (1 <= k <= len(a)):
// iterative quickselect with deterministic median-of-three pivots and
// three-way partitioning, so duplicate-heavy inputs (a freshly zeroed
// gradient bucket is all zeros) stay linear. a is permuted in place (it
// is selection scratch).
func kthLargest(a []float32, k int) float32 {
	target := len(a) - k // index in ascending sorted order
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		pivot := median3(a[lo], a[mid], a[hi])
		lt, gt := lo, hi
		for i := lo; i <= gt; {
			switch {
			case a[i] < pivot:
				a[i], a[lt] = a[lt], a[i]
				lt++
				i++
			case a[i] > pivot:
				a[i], a[gt] = a[gt], a[i]
				gt--
			default:
				i++
			}
		}
		switch { // a[lt..gt] now all equal pivot
		case target < lt:
			hi = lt - 1
		case target > gt:
			lo = gt + 1
		default:
			return pivot
		}
	}
	return a[lo]
}

func median3(a, b, c float32) float32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
