package tensor

// F16C kernels (half_amd64.s). Each converts n floats, n a positive
// multiple of 8; the Go wrappers below hand the 0–7 left over to the Go
// loops, and the whole slice to them on a CPU without F16C.

// quantizeF16Kernel rounds x[i] onto the binary16 grid in place for
// i < n: VCVTPS2PH (round to nearest even) then VCVTPH2PS.
//
//go:noescape
func quantizeF16Kernel(x *float32, n int)

// encodeF16Kernel writes the n halves of src, little-endian, to dst.
//
//go:noescape
func encodeF16Kernel(dst *byte, src *float32, n int)

// decodeF16Kernel expands the n little-endian halves at src into dst and
// reports whether none was a signalling NaN.
//
//go:noescape
func decodeF16Kernel(dst *float32, src *byte, n int) bool

// cpuHasF16C reports whether the CPU has AVX and F16C and the OS saves
// the YMM registers (CPUID leaf 1, then XGETBV).
func cpuHasF16C() bool

// hasF16C picks the f16 path once per process. Which one runs cannot
// change a bit (see half.go); tests clear it to run the Go loops.
var hasF16C = cpuHasF16C()

func quantizeF16(x []float32) {
	n := 0
	if hasF16C {
		n = len(x) &^ 7
		if n > 0 {
			quantizeF16Kernel(&x[0], n)
		}
	}
	quantizeF16Generic(x[n:])
}

func encodeF16(dst []byte, src []float32) {
	n := 0
	if hasF16C {
		n = len(src) &^ 7
		if n > 0 {
			encodeF16Kernel(&dst[0], &src[0], n)
		}
	}
	encodeF16Generic(dst[2*n:], src[n:])
}

func decodeF16(dst []float32, src []byte) bool {
	n, ok := 0, true
	if hasF16C {
		n = len(dst) &^ 7
		if n > 0 {
			ok = decodeF16Kernel(&dst[0], &src[0], n)
		}
	}
	return decodeF16Generic(dst[n:], src[2*n:]) && ok
}
