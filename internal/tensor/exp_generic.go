//go:build !amd64

package tensor

func expSlice(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = exp(v)
	}
}
