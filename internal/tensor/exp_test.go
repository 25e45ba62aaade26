package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// specials64 are the inputs exp treats apart: NaNs (quiet, negative,
// signalling), the infinities and zeros, the edges of the kernel's range
// [expLo, expHi] on both sides, the overflow point, the denormal
// results and the underflow to 0, and an x so negative that k leaves
// int32.
var specials64 = []float64{
	math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	expLo, math.Nextafter(expLo, -1000), expHi, math.Nextafter(expHi, 1000),
	expOverflow, math.Nextafter(expOverflow, 1000), 709.78, 710,
	-708.5, -720, -745.1332191019411, -745.2, -1e300, 1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, 0.5, 2 * tanhMaxLog,
}

// expTestValues are testValues for exp: the 1009 normals scaled by 300,
// so about one group of four in twelve has a lane outside the kernel's
// range, and 97 of those with every special spread through.
func expTestValues() (ordinary, mixed []float64) {
	ord32, _ := testValues()
	ordinary = make([]float64, len(ord32))
	for i, v := range ord32 {
		ordinary[i] = 300 * float64(v)
	}
	mixed = append([]float64(nil), ordinary[:97]...)
	for i, v := range specials64 {
		mixed[(i*7)%len(mixed)] = v
	}
	return ordinary, mixed
}

// checkExpAgainstPort runs expSlice on vals, which start at offset off
// into their backing array, in place and into another slice, and
// requires exp's float64 bits for every element, NaN payloads included
// (the kernel leaves NaNs to exp); and, where math.Exp takes its FMA
// branch, math.Exp's bits too.
func checkExpAgainstPort(t *testing.T, vals []float64, off int, what func(string) string) {
	t.Helper()
	want := make([]float64, len(vals))
	for i, v := range vals {
		want[i] = exp(v)
		if m := math.Exp(v); mathExpFMA && math.Float64bits(m) != math.Float64bits(want[i]) {
			t.Fatalf("%s: exp(%v) = %#016x, math.Exp %#016x", what("exp"), v, math.Float64bits(want[i]), math.Float64bits(m))
		}
	}
	inPlace := append(make([]float64, off), vals...)[off:]
	expSlice(inPlace, inPlace)
	apart := make([]float64, off+len(vals))[off:]
	expSlice(apart, vals)
	for i, v := range vals {
		for _, got := range []float64{inPlace[i], apart[i]} {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("%s elem %d: exp(%v) = %#016x, want %#016x", what("expSlice"), i, v, math.Float64bits(got), math.Float64bits(want[i]))
			}
		}
	}
}

// tanhPort is TanhForwardInto's Go path for one element: exp of 2|v|,
// then tanh's pick.
func tanhPort(v float32) float32 {
	out := []float32{v}
	tanh(out, out, []float64{exp(2 * min(math.Abs(float64(v)), tanhMaxLog))})
	return out[0]
}

// checkTanhAgainstPort runs TanhForwardInto on src, which starts at
// offset off into its backing array, in place (out == x) and into
// another tensor, and requires tanhPort's bits, NaN payloads included;
// and, where math.Exp takes its FMA branch, math.Tanh's.
func checkTanhAgainstPort(t *testing.T, src []float32, off int, what func(string) string) {
	t.Helper()
	n := len(src)
	want := make([]float32, n)
	for i, v := range src {
		want[i] = tanhPort(v)
	}
	if mathExpFMA {
		ref := make([]float32, n)
		for i, v := range src {
			ref[i] = float32(math.Tanh(float64(v)))
		}
		wantSameBits(t, what("tanh against math.Tanh"), want, ref)
	}
	inPlace := append(make([]float32, off), src...)[off:]
	x := FromSlice(inPlace, n)
	TanhForwardInto(x, x)
	wantBits(t, what("TanhForwardInto in place"), inPlace, want)
	out := FromSlice(make([]float32, off+n)[off:], n)
	TanhForwardInto(out, FromSlice(src, n))
	wantBits(t, what("TanhForwardInto"), out.data, want)
}

// tanhMismatch runs TanhForwardInto on src into out and describes the
// first element whose bits differ from math.Tanh's (an FMA CPU) or
// tanhPort's (otherwise).
func tanhMismatch(src, out []float32) error {
	TanhForwardInto(FromSlice(out, len(src)), FromSlice(src, len(src)))
	for i, v := range src {
		want := tanhPort(v)
		if mathExpFMA {
			want = float32(math.Tanh(float64(v)))
		}
		if !sameBits(out[i], want) {
			return fmt.Errorf("tanh(%#08x) = %#08x, want %#08x", math.Float32bits(v), math.Float32bits(out[i]), math.Float32bits(want))
		}
	}
	return nil
}

// sweepTanh sweeps [lo, hi) with tanhMismatch.
func sweepTanh(t *testing.T, lo, hi uint64) {
	t.Helper()
	sweep(t, lo, hi, func() func([]float32) error {
		out := make([]float32, sweepChunk)
		return func(src []float32) error { return tanhMismatch(src, out) }
	})
}

// TestTanhMatchesMath pins TanhForwardInto on each path to math.Tanh
// (tanhPort where math.Exp has no FMA branch): every float32 in [0.5, 1)
// and [32, 64), where the branch points 0.625 and tanhMaxLog lie, of
// both signs, and a seeded sample of every bit pattern. The whole 2^32
// sweep is TestTanhExhaustive (-tags exhaustive). Under -race only the
// sample runs.
func TestTanhMatchesMath(t *testing.T) {
	t.Logf("math.Exp takes its FMA branch: %v", mathExpFMA)
	rng := rand.New(rand.NewPCG(49, 1))
	src := make([]float32, 1<<18)
	for i := range src {
		src[i] = math.Float32frombits(rng.Uint32())
	}
	expPaths(t, func(t *testing.T) {
		if !raceEnabled {
			for _, sign := range []uint64{0, 1 << 31} {
				sweepTanh(t, sign|126<<23, sign|127<<23)
				sweepTanh(t, sign|132<<23, sign|133<<23)
			}
		}
		if err := tanhMismatch(src, make([]float32, len(src))); err != nil {
			t.Error(err)
		}
	})
}

// The exp port against known values at its exits: e^0, the
// infinities, NaN, overflow, the smallest denormal result and the
// underflow to 0.
func TestExpExits(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{
		{0, 1}, {math.Copysign(0, -1), 1}, {1, math.E},
		{math.Inf(1), math.Inf(1)}, {math.Inf(-1), 0},
		{710, math.Inf(1)}, {-1e300, 0}, {-746, 0},
		{-745.1332191019411, math.SmallestNonzeroFloat64},
	} {
		if got := exp(c.x); got != c.want {
			t.Errorf("exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := exp(math.NaN()); got == got {
		t.Errorf("exp(NaN) = %v", got)
	}
}

func BenchmarkTanhForward(b *testing.B) {
	x := NewRNG(1).RandN(1, 32, 64)
	out := NewDense(32, 64)
	for b.Loop() {
		TanhForwardInto(out, x)
	}
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	const m, classes = 32, 1000
	logits := NewRNG(1).RandN(1, m, classes)
	grad := NewDense(m, classes)
	labels := make([]int, m)
	for i := range labels {
		labels[i] = (i * 31) % classes
	}
	for b.Loop() {
		SoftmaxCrossEntropyInto(grad, logits, labels)
	}
}
