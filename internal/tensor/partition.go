package tensor

import (
	"fmt"
	"sort"
)

// RowRange describes one partition of a variable's first dimension:
// rows [Start, End).
type RowRange struct {
	Start, End int
}

// Len returns the number of rows in the range.
func (r RowRange) Len() int { return r.End - r.Start }

// PartitionRows splits dim0 rows into p near-equal contiguous ranges, the
// same scheme TensorFlow's variable partitioner uses and the layout Parallax
// assumes when distributing sparse-variable partitions across servers
// (§3.2). The first dim0 % p ranges get one extra row. p may exceed dim0,
// in which case trailing ranges are empty.
func PartitionRows(dim0, p int) []RowRange {
	if p <= 0 {
		panic(fmt.Sprintf("tensor: PartitionRows with p=%d", p))
	}
	out := make([]RowRange, p)
	base, extra := dim0/p, dim0%p
	start := 0
	for i := range out {
		n := base
		if i < extra {
			n++
		}
		out[i] = RowRange{Start: start, End: start + n}
		start += n
	}
	return out
}

// SplitSparse routes each slice of s to the partition owning its row and
// returns one sparse tensor per partition, with rows re-based to the
// partition's local coordinates (row - Start). Empty partitions get a
// zero-row sparse tensor. This is the "dividing incoming values and indices
// into disjoint sets" step that makes partitioned aggregation parallel
// (§3.2).
//
// Storage is batch-allocated: all partitions share one rows array, one
// values array, and one block of tensor headers, so splitting into P
// partitions costs O(1) allocations instead of O(P). If s is coalesced,
// every partition is too (splitting a sorted unique sequence by contiguous
// ranges preserves both properties... after a stable partition pass, rows
// within one partition keep their relative order).
func SplitSparse(s *Sparse, ranges []RowRange) []*Sparse {
	np := len(ranges)
	w := s.RowWidth()
	counts := make([]int, np)
	assign := make([]int, len(s.Rows))
	for i, r := range s.Rows {
		// The ranges tile [0, dim0) in order: r's owner is the first
		// range ending past it.
		p := sort.Search(np, func(p int) bool { return ranges[p].End > r })
		if p == np || r < ranges[p].Start {
			panic(fmt.Sprintf("tensor: row %d not covered by %d ranges", r, np))
		}
		assign[i] = p
		counts[p]++
	}
	// Shared backing storage for every partition.
	rowsAll := make([]int, len(s.Rows))
	valsAll := NewDense(len(s.Rows), w)
	sparses := make([]Sparse, np)
	denses := make([]Dense, np)
	shapes := make([]int, 2*np)
	out := make([]*Sparse, np)
	fill := make([]int, np) // next absolute write index per partition
	start := 0
	for p := range out {
		shape := shapes[2*p : 2*p+2]
		shape[0], shape[1] = counts[p], w
		denses[p] = Dense{shape: shape, data: valsAll.data[start*w : (start+counts[p])*w : (start+counts[p])*w]}
		sparses[p] = Sparse{
			Rows:      rowsAll[start : start+counts[p] : start+counts[p]],
			Values:    &denses[p],
			Dim0:      ranges[p].Len(),
			coalesced: s.coalesced,
		}
		out[p] = &sparses[p]
		fill[p] = start
		start += counts[p]
	}
	for i, r := range s.Rows {
		p := assign[i]
		j := fill[p]
		fill[p]++
		rowsAll[j] = r - ranges[p].Start
		copy(valsAll.data[j*w:(j+1)*w], s.Values.data[i*w:(i+1)*w])
	}
	return out
}

// StitchSparse reassembles per-partition sparse tensors (local row
// coordinates) into one sparse tensor over the full variable — the
// "stitching the partial results from each partition into one tensor"
// overhead the paper's Eq. 1 charges θ2·P for.
func StitchSparse(parts []*Sparse, ranges []RowRange, dim0 int) *Sparse {
	if len(parts) != len(ranges) {
		panic(fmt.Sprintf("tensor: StitchSparse %d parts vs %d ranges", len(parts), len(ranges)))
	}
	total := 0
	w := -1
	for _, p := range parts {
		total += len(p.Rows)
		if len(p.Rows) > 0 && w < 0 {
			w = p.RowWidth()
		}
	}
	if w < 0 {
		w = 0
		for _, p := range parts {
			if p.Values.Rank() > 1 {
				w = p.Values.Dim(1)
				break
			}
		}
	}
	rows := make([]int, 0, total)
	vals := NewDense(total, w)
	off := 0
	for pi, p := range parts {
		for i, r := range p.Rows {
			rows = append(rows, r+ranges[pi].Start)
			copy(vals.data[(off+i)*w:(off+i+1)*w], p.Values.data[i*w:(i+1)*w])
		}
		off += len(p.Rows)
	}
	return &Sparse{Rows: rows, Values: vals, Dim0: dim0}
}
