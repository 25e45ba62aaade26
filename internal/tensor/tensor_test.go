package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseShapeAndZeroFill(t *testing.T) {
	d := NewDense(2, 3, 4)
	if d.NumElements() != 24 {
		t.Fatalf("NumElements = %d, want 24", d.NumElements())
	}
	if d.Rank() != 3 || d.Dim(0) != 2 || d.Dim(1) != 3 || d.Dim(2) != 4 {
		t.Fatalf("bad shape %v", d.Shape())
	}
	for i, v := range d.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	d := NewDense(3, 5)
	d.Set(7.5, 2, 4)
	if got := d.At(2, 4); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := d.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestFromSliceChecksLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

// A resliced view is the view SliceRows would build, moved in place
// without allocating, and its capacity stops at its last row.
func TestResliceRowsMovesViewInPlace(t *testing.T) {
	base := NewDense(5, 2)
	for i := range base.Data() {
		base.Data()[i] = float32(i)
	}
	v := base.SliceRows(0, 0)
	if n := testing.AllocsPerRun(10, func() { v.ResliceRows(base, 1, 3) }); n != 0 {
		t.Fatalf("ResliceRows allocates %v objects", n)
	}
	want := base.SliceRows(1, 3)
	if !v.SameShape(want) || v.MaxAbsDiff(want) != 0 || cap(v.Data()) != 4 {
		t.Fatalf("resliced view %v (cap %d), want %v", v, cap(v.Data()), want)
	}
	v.Data()[0] = -1
	if base.At(1, 0) != -1 {
		t.Fatal("resliced view does not alias its base")
	}
	v.ResliceRows(base, 5, 5)
	if v.Dim(0) != 0 || v.NumElements() != 0 {
		t.Fatalf("empty reslice has shape %v", v.Shape())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reslice past the base did not panic")
		}
	}()
	v.ResliceRows(base, 4, 6)
}

func TestAddIntoSubScaleAXPY(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{10, 20, 30}, 3)
	a.AddInto(b)
	want := []float32{11, 22, 33}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("AddInto[%d] = %v, want %v", i, v, want[i])
		}
	}
	a.Sub(b)
	for i, v := range a.Data() {
		if v != float32(i+1) {
			t.Fatalf("Sub[%d] = %v, want %v", i, v, i+1)
		}
	}
	a.Scale(2)
	if a.At(2) != 6 {
		t.Fatalf("Scale: got %v, want 6", a.At(2))
	}
	a.AXPY(0.5, b)
	if a.At(0) != 2+5 {
		t.Fatalf("AXPY: got %v, want 7", a.At(0))
	}
}

// SumDenseInto folds in list order, flat across ranks: (1e8 + 1) - 1e8
// is 0 in float32, while 1 + (1e8 - 1e8) would be 1.
func TestSumDenseIntoFoldsInListOrder(t *testing.T) {
	dst := NewDense(1, 2)
	dst.Fill(7)
	parts := []*Dense{FromSlice([]float32{1e8, 2}, 2), FromSlice([]float32{1, 3}, 1, 2), FromSlice([]float32{-1e8, 4}, 2)}
	if got := SumDenseInto(dst, parts); got != dst || dst.At(0, 0) != 0 || dst.At(0, 1) != 9 {
		t.Fatalf("SumDenseInto = %v, want [0 9]", dst.Data())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SumDenseInto of a mis-sized part did not panic")
		}
	}()
	SumDenseInto(dst, []*Dense{NewDense(3)})
}

func TestL2NormAndMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	if got := a.L2NormSquared(); got != 25 {
		t.Fatalf("L2NormSquared = %v, want 25", got)
	}
	b := FromSlice([]float32{3, 7}, 2)
	if got := a.MaxAbsDiff(b); got != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", got)
	}
}

func TestBytesIsFourPerElement(t *testing.T) {
	if got := NewDense(10, 10).Bytes(); got != 400 {
		t.Fatalf("Bytes = %d, want 400", got)
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMatMulTransposesAgree(t *testing.T) {
	g := NewRNG(1)
	a := g.RandN(1, 4, 3)
	b := g.RandN(1, 4, 5)
	// aᵀ @ b via MatMulT1 must equal transpose(a) @ b done manually.
	at := NewDense(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	want := MatMul(at, b)
	got := MatMulT1Into(NewDense(3, 5), a, b)
	if want.MaxAbsDiff(got) > 1e-5 {
		t.Fatalf("MatMulT1 differs from explicit transpose by %v", want.MaxAbsDiff(got))
	}

	x := g.RandN(1, 2, 3)
	y := g.RandN(1, 4, 3)
	got2 := MatMulT2Into(NewDense(2, 4), x, y)
	yt := NewDense(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			yt.Set(y.At(i, j), j, i)
		}
	}
	want3 := MatMul(x, yt)
	if want3.MaxAbsDiff(got2) > 1e-5 {
		t.Fatalf("MatMulT2 differs from explicit transpose by %v", want3.MaxAbsDiff(got2))
	}
}

func TestBiasAndSumRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20}, 2)
	AddBiasRows(x, b)
	if x.At(0, 0) != 11 || x.At(1, 1) != 24 {
		t.Fatalf("AddBiasRows wrong: %v", x.Data())
	}
	s := SumRowsInto(NewDense(2), x)
	if s.At(0) != 11+13 || s.At(1) != 22+24 {
		t.Fatalf("SumRows wrong: %v", s.Data())
	}
}

func TestReluForwardBackward(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2}, 3)
	y := ReluForwardInto(NewDense(3), x)
	if y.At(0) != 0 || y.At(1) != 0 || y.At(2) != 2 {
		t.Fatalf("ReluForward wrong: %v", y.Data())
	}
	dy := FromSlice([]float32{5, 5, 5}, 3)
	dx := ReluBackwardInto(NewDense(3), x, dy)
	if dx.At(0) != 0 || dx.At(1) != 0 || dx.At(2) != 5 {
		t.Fatalf("ReluBackward wrong: %v", dx.Data())
	}
}

func TestSoftmaxCrossEntropyGradientSumsToZero(t *testing.T) {
	g := NewRNG(2)
	logits := g.RandN(1, 4, 7)
	labels := []int{1, 3, 0, 6}
	grad := NewDense(4, 7)
	loss := SoftmaxCrossEntropyInto(grad, logits, labels)
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	// Each row of the gradient sums to 0 (softmax probs sum to 1 minus the
	// one-hot label mass, all scaled by 1/m).
	for i := 0; i < 4; i++ {
		var s float64
		for j := 0; j < 7; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("grad row %d sums to %v, want 0", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyMatchesFiniteDifference(t *testing.T) {
	g := NewRNG(3)
	logits := g.RandN(0.5, 2, 3)
	labels := []int{2, 0}
	grad, scratch := NewDense(2, 3), NewDense(2, 3)
	SoftmaxCrossEntropyInto(grad, logits, labels)
	const eps = 1e-3
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			p := logits.Clone()
			p.Set(p.At(i, j)+eps, i, j)
			lp := SoftmaxCrossEntropyInto(scratch, p, labels)
			m := logits.Clone()
			m.Set(m.At(i, j)-eps, i, j)
			lm := SoftmaxCrossEntropyInto(scratch, m, labels)
			fd := (lp - lm) / (2 * eps)
			if math.Abs(fd-float64(grad.At(i, j))) > 1e-3 {
				t.Fatalf("grad[%d,%d] = %v, finite diff %v", i, j, grad.At(i, j), fd)
			}
		}
	}
}

func TestGlobalNormMixesDenseAndSparse(t *testing.T) {
	d := FromSlice([]float32{3}, 1)
	sp := NewSparse([]int{0}, FromSlice([]float32{4}, 1, 1), 5)
	if got := GlobalNorm([]*Dense{d}, []*Sparse{sp}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("GlobalNorm = %v, want 5", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).RandN(1, 8)
	b := NewRNG(42).RandN(1, 8)
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("same seed produced different tensors")
	}
}

// Property: tanh backward at y=tanh(x) matches finite difference of tanh.
func TestTanhBackwardProperty(t *testing.T) {
	f := func(raw float32) bool {
		x := float64(raw)
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 5 {
			return true
		}
		xs := FromSlice([]float32{float32(x)}, 1)
		y := TanhForwardInto(NewDense(1), xs)
		dy := FromSlice([]float32{1}, 1)
		dx := TanhBackwardInto(NewDense(1), y, dy)
		want := 1 - math.Tanh(x)*math.Tanh(x)
		return math.Abs(float64(dx.At(0))-want) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
