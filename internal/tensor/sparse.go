package tensor

import (
	"fmt"
	"sort"
)

// Sparse is an IndexedSlices-style sparse tensor: a set of rows of a larger
// (conceptual) dense tensor whose first dimension has size Dim0. Rows may
// repeat (e.g. a word appearing twice in a batch produces two slices with
// the same index); aggregation sums duplicates.
//
// This is the gradient type produced by Gather (embedding lookup), and its
// presence is how Parallax classifies a variable as sparse (§5,
// "Identifying the sparsity of a variable").
type Sparse struct {
	// Rows holds the first-dimension indices of each slice, parallel to the
	// rows of Values.
	Rows []int
	// Values holds one row per entry in Rows; Values.Dim(0) == len(Rows).
	Values *Dense
	// Dim0 is the first-dimension size of the full variable this gradient
	// applies to.
	Dim0 int

	// coalesced records that Rows is sorted and duplicate-free, letting
	// norm computations skip re-coalescing. Constructors that cannot prove
	// it leave it false, which is always safe.
	coalesced bool
}

// NewSparse builds a sparse tensor from rows and a matching values tensor.
func NewSparse(rows []int, values *Dense, dim0 int) *Sparse {
	if values.Rank() == 0 || values.Dim(0) != len(rows) {
		panic(fmt.Sprintf("tensor: sparse values dim0 %v != len(rows) %d", values.Shape(), len(rows)))
	}
	for _, r := range rows {
		if r < 0 || r >= dim0 {
			panic(fmt.Sprintf("tensor: sparse row %d out of range [0,%d)", r, dim0))
		}
	}
	return &Sparse{Rows: append([]int(nil), rows...), Values: values, Dim0: dim0}
}

// RowWidth returns the elements per slice.
func (s *Sparse) RowWidth() int { return s.Values.RowWidth() }

// NNZRows returns the number of stored slices (duplicates counted).
func (s *Sparse) NNZRows() int { return len(s.Rows) }

// Bytes returns the wire size of the values payload. Index bytes are
// excluded, matching the paper's footnote 3 ("we omitted the network
// transfer for exchanging nonzero indices since it is negligible").
func (s *Sparse) Bytes() int64 { return s.Values.Bytes() }

// Clone returns a deep copy.
func (s *Sparse) Clone() *Sparse {
	return &Sparse{Rows: append([]int(nil), s.Rows...), Values: s.Values.Clone(), Dim0: s.Dim0, coalesced: s.coalesced}
}

// ToDense scatters the slices into a full dense tensor of shape
// [Dim0, rowWidth], summing duplicate rows.
func (s *Sparse) ToDense() *Dense {
	out := NewDense(s.Dim0, s.RowWidth())
	s.ToDenseInto(out)
	return out
}

// ToDenseInto scatter-adds the slices into out, an already-zeroed dense
// tensor with Dim0 rows of RowWidth elements (e.g. a pooled buffer),
// summing duplicate rows.
func (s *Sparse) ToDenseInto(out *Dense) {
	w := s.RowWidth()
	if out.Dim(0) != s.Dim0 || out.RowWidth() != w {
		panic(fmt.Sprintf("tensor: ToDenseInto into %v for sparse dim0=%d width=%d",
			out.Shape(), s.Dim0, w))
	}
	for i, r := range s.Rows {
		AddTo(s.Values.data[i*w:(i+1)*w], out.data[r*w:(r+1)*w])
	}
}

// Coalesce returns an equivalent sparse tensor with unique, sorted rows and
// duplicate slices summed. This is the "aggregation of gradients for sparse
// variables" operation whose cost partitioning parallelizes (§3.2).
func (s *Sparse) Coalesce() *Sparse {
	if s.coalesced {
		return s
	}
	w := s.RowWidth()
	uniq := make([]int, 0, len(s.Rows))
	seen := make(map[int]int, len(s.Rows)) // row -> position in uniq
	for _, r := range s.Rows {
		if _, ok := seen[r]; !ok {
			seen[r] = 0
			uniq = append(uniq, r)
		}
	}
	sort.Ints(uniq)
	for i, r := range uniq {
		seen[r] = i
	}
	vals := NewDense(len(uniq), w)
	for i, r := range s.Rows {
		AddTo(s.Values.data[i*w:(i+1)*w], vals.data[seen[r]*w:(seen[r]+1)*w])
	}
	return &Sparse{Rows: uniq, Values: vals, Dim0: s.Dim0, coalesced: true}
}

// Scale multiplies all stored values by a.
func (s *Sparse) Scale(a float32) { s.Values.Scale(a) }

// L2NormSquared returns the squared L2 norm of the *effective* gradient,
// i.e. of the coalesced tensor (duplicate rows summed before squaring).
func (s *Sparse) L2NormSquared() float64 {
	return s.Coalesce().Values.L2NormSquared()
}

// ConcatSparse concatenates sparse gradients from multiple workers into one,
// the AllGatherv aggregation semantics of the AR architecture for sparse
// variables (§2.1: gradients are "aggregated by concatenating the arrays").
func ConcatSparse(parts []*Sparse) *Sparse {
	if len(parts) == 0 {
		panic("tensor: ConcatSparse of no parts")
	}
	w := parts[0].RowWidth()
	dim0 := parts[0].Dim0
	total := 0
	for _, p := range parts {
		if p.RowWidth() != w || p.Dim0 != dim0 {
			panic("tensor: ConcatSparse shape mismatch")
		}
		total += len(p.Rows)
	}
	rows := make([]int, 0, total)
	vals := NewDense(total, w)
	off := 0
	for _, p := range parts {
		rows = append(rows, p.Rows...)
		copy(vals.data[off*w:], p.Values.data)
		off += len(p.Rows)
	}
	return &Sparse{Rows: rows, Values: vals, Dim0: dim0}
}

// SumSparse aggregates sparse gradients from multiple workers by summing
// slices with equal row indices — the PS-server aggregation semantics.
// The result is coalesced. It runs in a single pass over the inputs (no
// intermediate concatenated tensor), since it sits on the per-partition
// accumulator hot path of the parameter servers.
func SumSparse(parts []*Sparse) *Sparse {
	if len(parts) == 0 {
		panic("tensor: SumSparse of no parts")
	}
	if len(parts) == 1 {
		return parts[0].Coalesce()
	}
	w := parts[0].RowWidth()
	dim0 := parts[0].Dim0
	total := 0
	for _, p := range parts {
		if p.RowWidth() != w || p.Dim0 != dim0 {
			panic("tensor: SumSparse shape mismatch")
		}
		total += len(p.Rows)
	}
	uniq := make([]int, 0, total)
	seen := make(map[int]int, total) // row -> position in uniq
	for _, p := range parts {
		for _, r := range p.Rows {
			if _, ok := seen[r]; !ok {
				seen[r] = 0
				uniq = append(uniq, r)
			}
		}
	}
	sort.Ints(uniq)
	for i, r := range uniq {
		seen[r] = i
	}
	vals := NewDense(len(uniq), w)
	for _, p := range parts {
		for i, r := range p.Rows {
			AddTo(p.Values.data[i*w:(i+1)*w], vals.data[seen[r]*w:(seen[r]+1)*w])
		}
	}
	return &Sparse{Rows: uniq, Values: vals, Dim0: dim0, coalesced: true}
}

// Gather extracts rows of a [dim0, w] dense tensor into a new sparse tensor
// referencing those rows (an embedding lookup). The forward value is dense
// (the looked-up rows); Gather is provided here for building gradients and
// tests; the graph op lives in internal/graph.
func Gather(t *Dense, rows []int) *Dense {
	return GatherInto(NewDense(len(rows), t.RowWidth()), t, rows)
}

// GatherInto is Gather into out, a [len(rows), w] tensor it overwrites.
func GatherInto(out, t *Dense, rows []int) *Dense {
	w := t.RowWidth()
	if out.Rank() != 2 || out.Dim(0) != len(rows) || out.Dim(1) != w {
		panic(fmt.Sprintf("tensor: gather of %d rows of %v into %v", len(rows), t.shape, out.shape))
	}
	for i, r := range rows {
		if r < 0 || r >= t.Dim(0) {
			panic(fmt.Sprintf("tensor: gather row %d out of range [0,%d)", r, t.Dim(0)))
		}
		copy(out.data[i*w:(i+1)*w], t.data[r*w:(r+1)*w])
	}
	return out
}

// ScatterAddSparse applies t[r] += a * slice for each (r, slice) in s.
// It is the sparse-variable update primitive used by the optimizer.
func ScatterAddSparse(t *Dense, a float32, s *Sparse) {
	if t.Dim(0) != s.Dim0 || t.RowWidth() != s.RowWidth() {
		panic(fmt.Sprintf("tensor: scatter shape mismatch %v vs sparse dim0=%d w=%d",
			t.Shape(), s.Dim0, s.RowWidth()))
	}
	w := s.RowWidth()
	for i, r := range s.Rows {
		Axpy(a, s.Values.data[i*w:(i+1)*w], t.data[r*w:(r+1)*w])
	}
}

// AlphaOf returns the α of a batch access pattern: the fraction of the
// variable's dim0 rows touched at least once (§2.2's "element ratio").
func AlphaOf(rows []int, dim0 int) float64 {
	if dim0 == 0 {
		return 0
	}
	seen := make(map[int]struct{}, len(rows))
	for _, r := range rows {
		seen[r] = struct{}{}
	}
	return float64(len(seen)) / float64(dim0)
}
