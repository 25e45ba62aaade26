package tensor

// SSE2 kernels (kernels_amd64.s). Lengths and bounds are settled in Go
// before a call; the assembly trusts its pointers and counts.

// axpyKernel computes dst[i] += a*src[i] for i < n.
//
//go:noescape
func axpyKernel(a float32, src, dst *float32, n int)

// addToKernel computes dst[i] += src[i] for i < n.
//
//go:noescape
func addToKernel(src, dst *float32, n int)

// stripKernel overwrites the stripWidth floats at out with
// Σ_p a[p*astride] * b[p*ldb : p*ldb+stripWidth] over ascending p < k,
// each lane starting from +0; with skipZero, terms whose a factor is ±0
// are skipped. The strip stays in registers across the whole p loop.
//
//go:noescape
func stripKernel(a *float32, astride int, b *float32, ldb, k int, out *float32, skipZero bool)

// dot4Kernel writes, for c in 0..3, out[c] = (s0+s1)+(s2+s3) where
// s_l = Σ_{q<n4} a[4q+l] * b[c*ldb+4q+l] ascending from +0: Dot's four
// partial sums for four rows of b at once, one XMM accumulator per row
// (lane l is s_l), sharing each load of a.
//
//go:noescape
func dot4Kernel(a, b *float32, ldb, n4 int, out *float32)

// stripWidth is the number of output columns stripKernel holds in
// registers: eight XMM accumulators.
const stripWidth = 32

func axpy(a float32, src, dst []float32) {
	if len(src) > 0 {
		axpyKernel(a, &src[0], &dst[0], len(src))
	}
}

func addTo(src, dst []float32) {
	if len(src) > 0 {
		addToKernel(&src[0], &dst[0], len(src))
	}
}

// mulAddRow is mulAddRowAxpy with whole strips of columns done by
// stripKernel and only the columns left over done an Axpy at a time;
// each column's sum is the same ascending-p sum either way.
func mulAddRow(out, a []float32, astride, k int, b []float32, skipZero bool) {
	n := len(out)
	j := 0
	if k > 0 && n >= stripWidth {
		_, _ = a[(k-1)*astride], b[k*n-1]
		for ; j+stripWidth <= n; j += stripWidth {
			stripKernel(&a[0], astride, &b[j], n, k, &out[j], skipZero)
		}
	}
	if j < n {
		mulAddRowAxpy(out[j:], a, astride, k, b[j:], n, skipZero)
	}
}

// dotRow is dotRowGeneric four columns at a time.
func dotRow(out, a, b []float32) {
	k, n := len(a), len(out)
	k4 := k &^ 3
	j := 0
	if k4 > 0 && n >= 4 {
		_ = b[n*k-1]
		for ; j+4 <= n; j += 4 {
			dot4Kernel(&a[0], &b[j*k], k, k4/4, &out[j])
			if k4 == k {
				continue
			}
			for c := j; c < j+4; c++ { // Dot's scalar tail, per column
				s := out[c]
				for i := k4; i < k; i++ {
					s += float32(a[i] * b[c*k+i])
				}
				out[c] = s
			}
		}
	}
	for ; j < n; j++ {
		out[j] = Dot(a, b[j*k:(j+1)*k])
	}
}
