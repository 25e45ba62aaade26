//go:build !amd64

package tensor

func quantizeF16(x []float32) { quantizeF16Generic(x) }

func encodeF16(dst []byte, src []float32) { encodeF16Generic(dst, src) }

func decodeF16(dst []float32, src []byte) bool { return decodeF16Generic(dst, src) }
