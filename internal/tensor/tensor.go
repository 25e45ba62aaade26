// Package tensor provides the dense and sparse tensor types that underpin
// the Parallax reproduction. It mirrors the split TensorFlow makes between
// Tensor (dense data) and IndexedSlices (sparse data: a values array plus a
// row-index array), which is the data-structure distinction the paper's
// sparsity analysis is built on (§2.2).
//
// All values are float32, matching the single-precision training the paper
// evaluates. Tensors are plain Go slices with explicit shapes. The hot
// loops all bottom out in the three flat-slice kernels of kernels.go
// (Axpy, AddTo, Dot): SSE2 assembly on amd64, Go loops elsewhere, and the
// same bits either way — the kernel contract at the top of that file
// fixes the order of every sum. Operations that a training step repeats
// with fixed shapes come in an ...Into form that overwrites a caller's
// buffer (graph.Exec's arena) instead of allocating.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Dense is a dense n-dimensional tensor in row-major order.
type Dense struct {
	shape []int
	data  []float32
}

// NewDense returns a zero-filled dense tensor with the given shape.
// It panics if any dimension is negative; a zero dimension yields an
// empty tensor.
func NewDense(shape ...int) *Dense {
	// Only the copy is stored or printed, so a caller's NewDense(m, n)
	// argument list stays on its stack.
	own := append([]int(nil), shape...)
	n := 1
	for _, d := range own {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, own))
		}
		n *= d
	}
	return &Dense{shape: own, data: make([]float32, n)}
}

// FromSlice wraps data in a dense tensor of the given shape. The slice is
// used directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Dense {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, slice has %d", shape, n, len(data)))
	}
	return &Dense{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Dense) Shape() []int { return t.shape }

// Data returns the underlying storage in row-major order. Mutating it
// mutates the tensor.
func (t *Dense) Data() []float32 { return t.data }

// NumElements returns the total element count.
func (t *Dense) NumElements() int { return len(t.data) }

// Rank returns the number of dimensions.
func (t *Dense) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Dense) Dim(i int) int { return t.shape[i] }

// RowWidth returns the number of elements per row of the first dimension,
// i.e. NumElements / Dim(0). It panics on rank-0 tensors.
func (t *Dense) RowWidth() int {
	if len(t.shape) == 0 {
		panic("tensor: RowWidth on rank-0 tensor")
	}
	if t.shape[0] == 0 {
		// Zero rows still have a well-defined row width from the trailing
		// dimensions (empty sparse partitions rely on this).
		w := 1
		for _, d := range t.shape[1:] {
			w *= d
		}
		return w
	}
	return len(t.data) / t.shape[0]
}

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	c := NewDense(t.shape...)
	copy(c.data, t.data)
	return c
}

// SliceRows returns a zero-copy view of rows [start, end) along the first
// dimension: the returned tensor shares storage with t, so writes through
// either alias are visible in both. The view's capacity is clipped so that
// appends through it cannot spill into t's later rows. This is the
// mechanism the runtimes use to push dense variable partitions without
// heap-copying them (the paper partitions variables by contiguous row
// ranges, §3.2).
func (t *Dense) SliceRows(start, end int) *Dense {
	v := &Dense{shape: make([]int, len(t.shape))}
	v.ResliceRows(t, start, end)
	return v
}

// ResliceRows makes v, in place, the view t.SliceRows(start, end) would
// return, reusing v's header and shape: a view that moves every step
// (a pull destination into packed storage) moves without allocating. v
// must have t's rank.
func (v *Dense) ResliceRows(t *Dense, start, end int) {
	if len(t.shape) == 0 {
		panic("tensor: SliceRows on rank-0 tensor")
	}
	if len(v.shape) != len(t.shape) {
		panic(fmt.Sprintf("tensor: rank-%d view of a rank-%d tensor", len(v.shape), len(t.shape)))
	}
	if start < 0 || end < start || end > t.shape[0] {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range [0,%d]", start, end, t.shape[0]))
	}
	w := t.RowWidth()
	v.shape[0] = end - start
	copy(v.shape[1:], t.shape[1:])
	v.data = t.data[start*w : end*w : end*w]
}

// At returns the element at the given row-major indices.
func (t *Dense) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given row-major indices.
func (t *Dense) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Dense) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Dense) SameShape(o *Dense) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// hasShape reports whether t's shape is exactly the given dimensions.
func (t *Dense) hasShape(shape ...int) bool {
	return slices.Equal(t.shape, shape)
}

// Fill sets every element to v.
func (t *Dense) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Dense) Zero() { t.Fill(0) }

// AddInto accumulates o into t element-wise. Shapes must match.
func (t *Dense) AddInto(o *Dense) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInto shape mismatch %v vs %v", t.shape, o.shape))
	}
	AddTo(o.data, t.data)
}

// SumDenseInto overwrites dst with the sum of parts folded in list order,
// ((p0 + p1) + p2) + …, and returns dst: the dense twin of SumSparse.
// The sum is taken flat, so a part may have another rank than dst (a
// rank-1 bias against a [rows, 1] buffer) as long as it holds as many
// elements; both layouts are row-major.
func SumDenseInto(dst *Dense, parts []*Dense) *Dense {
	if len(parts) == 0 {
		panic("tensor: SumDenseInto of no parts")
	}
	for _, p := range parts {
		if len(p.data) != len(dst.data) {
			panic(fmt.Sprintf("tensor: SumDenseInto of %v into %v", p.shape, dst.shape))
		}
	}
	copy(dst.data, parts[0].data)
	for _, p := range parts[1:] {
		AddTo(p.data, dst.data)
	}
	return dst
}

// Sub subtracts o from t element-wise. Shapes must match.
func (t *Dense) Sub(o *Dense) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", t.shape, o.shape))
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
}

// Scale multiplies every element by s.
func (t *Dense) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AXPY computes t += a*o element-wise. Shapes must match.
func (t *Dense) AXPY(a float32, o *Dense) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AXPY shape mismatch %v vs %v", t.shape, o.shape))
	}
	Axpy(a, o.data, t.data)
}

// L2NormSquared returns the sum of squared elements in float64 for
// numerical stability.
func (t *Dense) L2NormSquared() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return s
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// t and o. Shapes must match.
func (t *Dense) MaxAbsDiff(o *Dense) float64 {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %v vs %v", t.shape, o.shape))
	}
	var m float64
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(o.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// Bytes returns the wire size of the tensor payload (4 bytes per element),
// the unit used throughout the paper's network-transfer analysis (Table 3).
func (t *Dense) Bytes() int64 { return int64(len(t.data)) * 4 }

// String renders a short description, not the full contents.
func (t *Dense) String() string {
	return fmt.Sprintf("Dense%v(%d elems)", t.shape, len(t.data))
}
