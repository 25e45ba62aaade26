package tensor

// Half-precision conversion kernels for the wire-compression layer
// (internal/transport's f16/bf16 payload codecs). The scalar converters
// implement IEEE-754 round-to-nearest-even; the bulk quantizers round a
// float32 slice onto the half grid in place — the data plane quantizes
// at every would-cross-wire point (including local paths), so the wire
// encoding itself is lossless on the already-on-grid values and a
// compressed run stays bit-identical across the inproc and TCP fabrics.
//
// Grid round trips are exact by construction: every finite binary16 /
// bfloat16 value is exactly representable in float32, expanding and
// re-rounding it reproduces the same bits. A bfloat16 NaN keeps its
// truncated payload, with a quiet bit forced when truncation would
// otherwise collapse it into an infinity. A binary16 NaN is quieted in
// both directions, the way F16C's VCVTPS2PH and VCVTPH2PS do it: the
// Go routines are bit for bit the hardware's on all 2^32 floats and all
// 2^16 halves, so an agent with F16C and one without agree on every
// bit, NaNs included. Only a signalling half NaN does not survive the
// round trip; nothing here produces one.
//
// The f16 bulk routines (QuantizeF16, EncodeF16, DecodeF16) are the one
// run-time dispatched kernel of the package: on amd64 with F16C they run
// the hardware conversions (half_amd64.s), elsewhere the Go routines,
// which stay their oracle. A binary16 conversion is one correctly
// rounded operation, so the path taken cannot move a bit.

import (
	"encoding/binary"
	"math"
)

// F32ToF16Bits rounds a float32 to the nearest IEEE-754 binary16 value
// (ties to even) and returns its bit pattern. Overflow rounds to ±Inf,
// magnitudes below the subnormal range round to ±0, and a NaN becomes
// the quiet half NaN with its payload's top nine bits.
func F32ToF16Bits(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int(b>>23) & 0xFF
	man := b & 0x7FFFFF
	if exp == 0xFF { // Inf / NaN
		if man == 0 {
			return sign | 0x7C00
		}
		return sign | 0x7E00 | uint16(man>>13)
	}
	e := exp - 127 + 15
	if e >= 0x1F { // |f| >= 2^16: past the largest half, round to Inf
		return sign | 0x7C00
	}
	if e >= 1 { // normal half: round the mantissa at bit 13
		lsb := (man >> 13) & 1
		m := man + 0xFFF + lsb
		if m >= 0x800000 { // carried into the exponent
			e++
			if e >= 0x1F {
				return sign | 0x7C00
			}
			return sign | uint16(e)<<10
		}
		return sign | uint16(e)<<10 | uint16(m>>13)
	}
	if e < -10 { // below half the smallest subnormal: rounds to zero
		return sign
	}
	// Subnormal half: shift the full significand (implicit bit restored)
	// into place, rounding ties to even on the bits shifted out.
	m := man | 0x800000
	shift := uint(14 - e) // 14..24
	lsb := (m >> shift) & 1
	m += 1<<(shift-1) - 1 + uint32(lsb)
	return sign | uint16(m>>shift)
}

// F16BitsToF32 expands a binary16 bit pattern to the float32 with the
// same value (exact: every half is representable); a NaN keeps its
// payload and comes out quiet.
func F16BitsToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1F
	man := uint32(h & 0x3FF)
	switch {
	case exp == 0x1F && man == 0:
		return math.Float32frombits(sign | 0x7F800000)
	case exp == 0x1F: // NaN: payload preserved, quiet bit set
		return math.Float32frombits(sign | 0x7FC00000 | man<<13)
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 { // normalize the subnormal
			man <<= 1
			e--
		}
		man &= 0x3FF
		return math.Float32frombits(sign | e<<23 | man<<13)
	}
	return math.Float32frombits(sign | (exp+127-15)<<23 | man<<13)
}

// F32ToBF16Bits rounds a float32 to the nearest bfloat16 (ties to even)
// and returns its bit pattern: the top 16 bits after rounding at bit 16.
func F32ToBF16Bits(f float32) uint16 {
	b := math.Float32bits(f)
	if b&0x7FFFFFFF > 0x7F800000 { // NaN: truncate, keep it a NaN
		h := uint16(b >> 16)
		if h&0x7F == 0 {
			h |= 0x40
		}
		return h
	}
	lsb := (b >> 16) & 1
	return uint16((b + 0x7FFF + lsb) >> 16)
}

// BF16BitsToF32 expands a bfloat16 bit pattern to float32 (exact).
func BF16BitsToF32(h uint16) float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// QuantizeF16 rounds every element onto the binary16 grid in place
// (round-to-nearest-even). Idempotent: on-grid values are fixed points.
func QuantizeF16(x []float32) { quantizeF16(x) }

// EncodeF16 writes src as little-endian binary16 bit patterns,
// F32ToF16Bits of each element, to the first 2*len(src) bytes of dst.
func EncodeF16(dst []byte, src []float32) { encodeF16(dst[:2*len(src)], src) }

// DecodeF16 expands the first len(dst) little-endian binary16 values of
// src into dst, F16BitsToF32 of each. It reports false if one of them
// was a signalling NaN — a pattern F32ToF16Bits never produces, which
// decodes quieted — so a caller that needs canonical input can refuse
// it.
func DecodeF16(dst []float32, src []byte) bool { return decodeF16(dst, src[:2*len(dst)]) }

// quantizeF16Generic is QuantizeF16's Go loop.
func quantizeF16Generic(x []float32) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		x[i] = F16BitsToF32(F32ToF16Bits(x[i]))
		x[i+1] = F16BitsToF32(F32ToF16Bits(x[i+1]))
		x[i+2] = F16BitsToF32(F32ToF16Bits(x[i+2]))
		x[i+3] = F16BitsToF32(F32ToF16Bits(x[i+3]))
	}
	for ; i < n; i++ {
		x[i] = F16BitsToF32(F32ToF16Bits(x[i]))
	}
}

// encodeF16Generic is EncodeF16's Go loop; len(dst) is 2*len(src).
func encodeF16Generic(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint16(dst[2*i:], F32ToF16Bits(v))
	}
}

// decodeF16Generic is DecodeF16's Go loop; len(src) is 2*len(dst).
func decodeF16Generic(dst []float32, src []byte) bool {
	ok := true
	for i := range dst {
		h := binary.LittleEndian.Uint16(src[2*i:])
		if h&0x7E00 == 0x7C00 && h&0x1FF != 0 { // signalling NaN
			ok = false
		}
		dst[i] = F16BitsToF32(h)
	}
	return ok
}

// QuantizeBF16 rounds every element onto the bfloat16 grid in place
// (round-to-nearest-even). Idempotent like QuantizeF16.
func QuantizeBF16(x []float32) {
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		x[i] = BF16BitsToF32(F32ToBF16Bits(x[i]))
		x[i+1] = BF16BitsToF32(F32ToBF16Bits(x[i+1]))
		x[i+2] = BF16BitsToF32(F32ToBF16Bits(x[i+2]))
		x[i+3] = BF16BitsToF32(F32ToBF16Bits(x[i+3]))
	}
	for ; i < n; i++ {
		x[i] = BF16BitsToF32(F32ToBF16Bits(x[i]))
	}
}
