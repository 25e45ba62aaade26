package optim

import (
	"math"
	"testing"

	"parallax/internal/graph"
	"parallax/internal/tensor"
)

func TestSGDDense(t *testing.T) {
	v := tensor.FromSlice([]float32{1, 2}, 2)
	g := tensor.FromSlice([]float32{10, 20}, 2)
	NewSGD(0.1).ApplyDense("v", v, g)
	if v.At(0) != 0 || v.At(1) != 0 {
		t.Fatalf("v = %v, want [0 0]", v.Data())
	}
}

func TestSGDSparseTouchesOnlyReferencedRows(t *testing.T) {
	v := tensor.NewDense(4, 2)
	v.Fill(1)
	sp := tensor.NewSparse([]int{2, 2}, tensor.FromSlice([]float32{1, 1, 1, 1}, 2, 2), 4)
	NewSGD(0.5).ApplySparse("v", v, sp)
	if v.At(2, 0) != 0 { // 1 - 0.5*(1+1)
		t.Fatalf("row 2 = %v, want 0", v.At(2, 0))
	}
	if v.At(0, 0) != 1 || v.At(3, 1) != 1 {
		t.Fatal("untouched rows modified")
	}
}

func TestMomentumAcceleratesDense(t *testing.T) {
	m := NewMomentum(0.1, 0.9)
	v := tensor.FromSlice([]float32{0}, 1)
	g := tensor.FromSlice([]float32{1}, 1)
	m.ApplyDense("v", v, g)
	first := -v.At(0) // step size of first update = lr*1
	m.ApplyDense("v", v, g)
	second := float64(-v.At(0)) - float64(first)
	if !(second > float64(first)) {
		t.Fatalf("momentum did not accelerate: first=%v second=%v", first, second)
	}
}

func TestMomentumSparseMatchesDenseEquivalent(t *testing.T) {
	// Applying a sparse gradient must equal applying its densified form
	// when every step touches the same rows.
	md := NewMomentum(0.1, 0.9)
	ms := NewMomentum(0.1, 0.9)
	rng := tensor.NewRNG(1)
	vd := rng.RandN(1, 5, 3)
	vs := vd.Clone()
	for step := 0; step < 4; step++ {
		sp := tensor.NewSparse([]int{1, 3}, rng.RandN(1, 2, 3), 5)
		md.ApplyDense("v", vd, sp.ToDense())
		ms.ApplySparse("v", vs, sp)
	}
	if vd.MaxAbsDiff(vs) > 1e-5 {
		t.Fatalf("sparse momentum diverged from dense by %v", vd.MaxAbsDiff(vs))
	}
}

// Finalizing takes the mean over workers; over one worker (the divisor a
// caller passes to keep the raw sum) it leaves the gradient as it is.
func TestFinalizeMeanAndSum(t *testing.T) {
	g := tensor.FromSlice([]float32{8}, 1)
	FinalizeDense(g, 4)
	if g.At(0) != 2 {
		t.Fatalf("mean = %v, want 2", g.At(0))
	}
	FinalizeDense(g, 1)
	if g.At(0) != 2 {
		t.Fatal("a divisor of 1 must not rescale")
	}
	sp := tensor.NewSparse([]int{0}, tensor.FromSlice([]float32{8}, 1, 1), 2)
	FinalizeSparse(sp, 2)
	if sp.Values.At(0, 0) != 4 {
		t.Fatalf("sparse mean = %v, want 4", sp.Values.At(0, 0))
	}
	FinalizeSparse(sp, 1)
	if sp.Values.At(0, 0) != 4 {
		t.Fatal("a sparse divisor of 1 must not rescale")
	}
}

func TestClipByGlobalNorm(t *testing.T) {
	gs := graph.NewGradSet()
	gs.Dense["a"] = tensor.FromSlice([]float32{3}, 1)
	gs.Sparse["b"] = tensor.NewSparse([]int{0}, tensor.FromSlice([]float32{4}, 1, 1), 2)
	norm := ClipByGlobalNorm(gs, 1.0)
	if math.Abs(norm-5) > 1e-6 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	// After clipping, joint norm must be 1.
	var dense []*tensor.Dense
	var sparse []*tensor.Sparse
	for _, d := range gs.Dense {
		dense = append(dense, d)
	}
	for _, s := range gs.Sparse {
		sparse = append(sparse, s)
	}
	if got := tensor.GlobalNorm(dense, sparse); math.Abs(got-1) > 1e-5 {
		t.Fatalf("post-clip norm = %v, want 1", got)
	}
}

func TestClipNoOpBelowThreshold(t *testing.T) {
	gs := graph.NewGradSet()
	gs.Dense["a"] = tensor.FromSlice([]float32{0.3}, 1)
	ClipByGlobalNorm(gs, 10)
	if gs.Dense["a"].At(0) != 0.3 {
		t.Fatal("clip modified gradient below threshold")
	}
}
