//go:build !amd64

package tensor

func axpy(a float32, src, dst []float32) { axpyGeneric(a, src, dst) }

func addTo(src, dst []float32) { addToGeneric(src, dst) }

func mulAddRow(out, a []float32, astride, k int, b []float32, skipZero bool) {
	mulAddRowAxpy(out, a, astride, k, b, len(out), skipZero)
}

func dotRow(out, a, b []float32) { dotRowGeneric(out, a, b) }
