package tensor

// expKernel sets dst[i] = exp(src[i]) four elements at a time for i < n,
// n a multiple of 4, and stops at the first group of four with a lane
// outside [expLo, expHi] or NaN. It returns how many elements it did.
// dst may be src.
//
//go:noescape
func expKernel(dst, src *float64, n int) int

// expSlice sets dst[i] = exp(src[i]). dst may be src; otherwise they
// must not overlap. With AVX2 and FMA, expKernel takes the groups of
// four it can and exp the rest: the groups it stops at and the 0–3
// elements left over.
func expSlice(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if hasAVX2FMA {
		for n := len(src) &^ 3; i < n; i += 4 {
			if i += expKernel(&dst[i], &src[i], n-i); i == n {
				break
			}
			for j := i; j < i+4; j++ {
				dst[j] = exp(src[j])
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = exp(src[i])
	}
}
