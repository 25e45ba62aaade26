package tensor

// Flat-slice compute kernels for the hot loops of the data plane: the
// matmul inner loops, the collective reduce-scatter accumulate, and the
// optimizer apply paths all bottom out here. They operate on raw
// []float32 so packages that move gradients as flat buffers
// (internal/collective) can use them without wrapping tensors.
//
// Kernel contract. Every result is a function of the operands' shapes
// and values only — not of the CPU, the alignment of a slice or the
// build — because each kernel fixes, per output element, which
// multiplies and adds happen and in which order, and every multiply and
// every add rounds to float32 on its own (multiply-then-add, two
// roundings, never a fused multiply-add):
//
//   - Axpy, AddTo: element i is dst[i] + a*src[i] (or dst[i] + src[i]);
//     elements are independent.
//   - Dot, and each output of MatMulT2Into: four partial sums s_l over
//     the indices ≡ l (mod 4) below len&^3, each ascending from +0,
//     combined as (s0+s1)+(s2+s3), then the 1–3 tail terms added in
//     ascending order.
//   - each output of MatMulInto and MatMulT1Into: one sum over ascending
//     p from +0; MatMulInto alone skips the terms whose left factor is
//     ±0.
//
// On amd64 the loops are hand-written SSE2 (kernels_amd64.s): four
// float32 lanes do to four elements, or to Dot's four partial sums, what
// the Go loops below do to one, MULPS then ADDPS, so the bits are the
// same. SSE2 is the amd64 baseline, so these kernels detect and dispatch
// nothing at run time; AVX2/FMA would change either the lane count of
// Dot's partial sums or the number of roundings, i.e. every loss bit.
// The package dispatches two other kernels, both picked by one CPUID
// probe at start-up (cpu_amd64.go) and neither able to move a bit: the
// f16 conversions (half.go) and the exp under tanh (exp.go). The Go
// loops in this file are the !amd64 build and the oracle the assembly
// is tested against; their float32(...) conversions keep a compiler
// that fuses x*y+z (Go does on arm64) to the same two roundings.
//
// When two NaNs meet, which payload survives is the operand order an
// implementation picked, not arithmetic: NaN-ness is part of the
// contract, NaN payloads are not. src and dst must be the same slice or
// not overlap.

// Axpy computes dst[i] += a*src[i]. len(src) must not exceed len(dst);
// dst beyond len(src) is left untouched.
func Axpy(a float32, src, dst []float32) {
	axpy(a, src, dst[:len(src)])
}

// AddTo computes dst[i] += src[i]. len(src) must not exceed len(dst);
// dst beyond len(src) is left untouched.
func AddTo(src, dst []float32) {
	addTo(src, dst[:len(src)])
}

// Dot returns Σ a[i]*b[i] over four independent partial sums (see the
// kernel contract above for the exact grouping). len(a) must not exceed
// len(b).
func Dot(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// axpyGeneric is Axpy's loop for equal-length operands, 4-wide unrolled
// so the compiler keeps four independent chains in flight.
func axpyGeneric(a float32, src, dst []float32) {
	n := len(src)
	dst = dst[:n] // hoist the bounds check out of the loop
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += float32(a * src[i])
		dst[i+1] += float32(a * src[i+1])
		dst[i+2] += float32(a * src[i+2])
		dst[i+3] += float32(a * src[i+3])
	}
	for ; i < n; i++ {
		dst[i] += float32(a * src[i])
	}
}

// addToGeneric is AddTo's loop for equal-length operands.
func addToGeneric(src, dst []float32) {
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// mulAddRowAxpy overwrites out with one row of a matrix product, one
// Axpy per term: out[j] = Σ_p a[p*astride] * b[p*ldb+j] over ascending
// p < k, each sum starting from +0. With skipZero, terms whose a factor
// is ±0 are left out (MatMul's forward zero-skip, which also keeps 0·Inf
// from turning into NaN); without it every term is added. ldb is the row
// length of b, at least len(out).
func mulAddRowAxpy(out, a []float32, astride, k int, b []float32, ldb int, skipZero bool) {
	clear(out)
	for p := 0; p < k; p++ {
		av := a[p*astride]
		if skipZero && av == 0 {
			continue
		}
		axpy(av, b[p*ldb:p*ldb+len(out)], out)
	}
}

// dotRowGeneric overwrites out with out[j] = Dot(a, b[j*k:(j+1)*k]),
// k = len(a): one row of a @ bᵀ.
func dotRowGeneric(out, a, b []float32) {
	k := len(a)
	for j := range out {
		out[j] = Dot(a, b[j*k:(j+1)*k])
	}
}
