package tensor

import (
	"fmt"
	"math"
)

// The ...Into operations below overwrite every element of out, whatever
// it held, and return it; out must have the result's shape and must not
// share storage with an operand unless the operation says it may. They
// exist so a caller that runs the same shapes every step (graph.Exec)
// can reuse its output buffers.

// MatMul returns a @ b for 2-D tensors: [m,k] x [k,n] -> [m,n].
func MatMul(a, b *Dense) *Dense {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.shape, b.shape))
	}
	return MatMulInto(NewDense(a.Dim(0), b.Dim(1)), a, b)
}

// MatMulInto computes out = a @ b: [m,k] x [k,n] -> [m,n].
func MatMulInto(out, a, b *Dense) *Dense {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(0) || !out.hasShape(a.Dim(0), b.Dim(1)) {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v -> %v", a.shape, b.shape, out.shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	for i := 0; i < m; i++ {
		// Forward activations are frequently exactly zero (ReLU, padded
		// rows); skipping those terms saves a whole row of b each.
		mulAddRow(out.data[i*n:(i+1)*n], a.data[i*k:(i+1)*k], 1, k, b.data, true)
	}
	return out
}

// MatMulT1Into computes out = aᵀ @ b: [k,m]ᵀ x [k,n] -> [m,n]. Used by
// backprop for weight gradients.
func MatMulT1Into(out, a, b *Dense) *Dense {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(0) != b.Dim(0) || !out.hasShape(a.Dim(1), b.Dim(1)) {
		panic(fmt.Sprintf("tensor: MatMulT1 shape mismatch %v x %v -> %v", a.shape, b.shape, out.shape))
	}
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	if k == 0 {
		clear(out.data) // empty sums; a has no column to start a stride in
		return out
	}
	for i := 0; i < m; i++ {
		// No zero-skip here: a holds pre-activation inputs (tanh outputs,
		// embeddings), which are almost never exactly zero.
		mulAddRow(out.data[i*n:(i+1)*n], a.data[i:], m, k, b.data, false)
	}
	return out
}

// MatMulT2Into computes out = a @ bᵀ: [m,k] x [n,k]ᵀ -> [m,n]. Used by
// backprop for input gradients.
func MatMulT2Into(out, a, b *Dense) *Dense {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(1) || !out.hasShape(a.Dim(0), b.Dim(0)) {
		panic(fmt.Sprintf("tensor: MatMulT2 shape mismatch %v x %v -> %v", a.shape, b.shape, out.shape))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	for i := 0; i < m; i++ {
		dotRow(out.data[i*n:(i+1)*n], a.data[i*k:(i+1)*k], b.data)
	}
	return out
}

// AddBiasRows adds a [n] bias vector to every row of a [m,n] tensor,
// in place.
func AddBiasRows(t, bias *Dense) {
	if t.Rank() != 2 || bias.Rank() != 1 || t.Dim(1) != bias.Dim(0) {
		panic(fmt.Sprintf("tensor: AddBiasRows shape mismatch %v + %v", t.shape, bias.shape))
	}
	n := t.Dim(1)
	for i := 0; i < t.Dim(0); i++ {
		AddTo(bias.data, t.data[i*n:(i+1)*n])
	}
}

// SumRowsInto computes the column-wise sum of a [m,n] tensor into the
// [n] vector out (the bias gradient).
func SumRowsInto(out, t *Dense) *Dense {
	if t.Rank() != 2 || !out.hasShape(t.Dim(1)) {
		panic(fmt.Sprintf("tensor: SumRows shape mismatch %v -> %v", t.shape, out.shape))
	}
	n := t.Dim(1)
	clear(out.data)
	for i := 0; i < t.Dim(0); i++ {
		AddTo(t.data[i*n:(i+1)*n], out.data)
	}
	return out
}

// ReluForwardInto computes out = max(x, 0) element-wise. out may be x.
func ReluForwardInto(out, x *Dense) *Dense {
	if !out.SameShape(x) {
		panic(fmt.Sprintf("tensor: ReluForward shape mismatch %v -> %v", x.shape, out.shape))
	}
	for i, v := range x.data {
		if v < 0 {
			v = 0
		}
		out.data[i] = v
	}
	return out
}

// ReluBackwardInto computes out = dy masked by x > 0. out may be dy.
func ReluBackwardInto(out, x, dy *Dense) *Dense {
	if !x.SameShape(dy) || !out.SameShape(dy) {
		panic(fmt.Sprintf("tensor: ReluBackward shape mismatch %v vs %v -> %v", x.shape, dy.shape, out.shape))
	}
	for i, v := range x.data {
		g := dy.data[i]
		if v <= 0 {
			g = 0
		}
		out.data[i] = g
	}
	return out
}

// TanhForwardInto computes out = tanh(x) element-wise. out may be x.
func TanhForwardInto(out, x *Dense) *Dense {
	if !out.SameShape(x) {
		panic(fmt.Sprintf("tensor: TanhForward shape mismatch %v -> %v", x.shape, out.shape))
	}
	for i, v := range x.data {
		out.data[i] = float32(math.Tanh(float64(v)))
	}
	return out
}

// TanhBackwardInto computes out = dy * (1 - y²) where y = tanh(x) is the
// forward output. out may be dy.
func TanhBackwardInto(out, y, dy *Dense) *Dense {
	if !y.SameShape(dy) || !out.SameShape(dy) {
		panic(fmt.Sprintf("tensor: TanhBackward shape mismatch %v vs %v -> %v", y.shape, dy.shape, out.shape))
	}
	for i, g := range dy.data {
		out.data[i] = g * (1 - y.data[i]*y.data[i])
	}
	return out
}

// SoftmaxCrossEntropyInto computes, for logits [m, classes] and integer
// labels [m], the mean cross-entropy loss, and writes the gradient with
// respect to the logits (softmax(x) - onehot(label), scaled by 1/m) into
// grad.
func SoftmaxCrossEntropyInto(grad, logits *Dense, labels []int) (loss float64) {
	if logits.Rank() != 2 || logits.Dim(0) != len(labels) || !grad.SameShape(logits) {
		panic(fmt.Sprintf("tensor: SoftmaxCrossEntropy logits %v vs %d labels -> %v", logits.shape, len(labels), grad.shape))
	}
	m, c := logits.Dim(0), logits.Dim(1)
	inv := 1 / float64(m)
	for i := 0; i < m; i++ {
		row := logits.data[i*c : (i+1)*c]
		maxv := rowMax(row)
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		lbl := labels[i]
		if lbl < 0 || lbl >= c {
			panic(fmt.Sprintf("tensor: label %d out of range [0,%d)", lbl, c))
		}
		logZ := math.Log(sum) + float64(maxv)
		loss += (logZ - float64(row[lbl])) * inv
		grow := grad.data[i*c : (i+1)*c]
		for j, v := range row {
			grow[j] = float32(math.Exp(float64(v)-logZ) * inv)
		}
		grow[lbl] -= float32(inv)
	}
	return loss
}

func rowMax(row []float32) float32 {
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// GlobalNorm returns the L2 norm across a mixed set of dense and sparse
// gradients, as used for gradient clipping (§5: "compute a global norm of
// gradients for clipping").
func GlobalNorm(dense []*Dense, sparse []*Sparse) float64 {
	var s float64
	for _, d := range dense {
		s += d.L2NormSquared()
	}
	for _, sp := range sparse {
		s += sp.L2NormSquared()
	}
	return math.Sqrt(s)
}
