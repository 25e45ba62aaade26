package tensor

import "math"

// The package's own exp and tanh. math.Exp is assembly on amd64
// ($GOROOT/src/math/exp_amd64.s) with two branches picked by the CPU:
// one with VFMADD when CPUID reports AVX and FMA, plain MULSD/ADDSD
// otherwise, and the two round differently. math.Tanh reaches it for
// |x| ≥ 0.625. exp below is the FMA branch, op for op, with math.FMA
// where the assembly fuses: math.FMA rounds once on every CPU (in
// software where there is no FMA unit), so exp has those bits
// everywhere, and on an AVX+FMA CPU they are math.Exp's. The method is
// Shibata's ("Efficient evaluation methods of elementary functions
// suitable for SIMD computation", ISC 2010): reduce x by k·ln2 in two
// parts, evaluate the Taylor series of e^(r/16) − 1, square four times
// (e^r − 1 = ((u+2)·u) per doubling) and scale by 2^k.
//
// Products that feed an add are written float64(a*b) so a compiler that
// fuses x*y+z (Go does on arm64) still rounds twice, as the assembly
// does; the fused steps are the explicit math.FMA calls.

const (
	expLog2e    = 1.4426950408889634073599246810018920        // 1/ln2
	expLn2U     = 0.69314718055966295651160180568695068359375 // upper half of ln2
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02

	// Every x in [expLo, expHi] takes exp's main path: 2^k is a normal
	// float64 (k+1023 in [2, 2046]), so neither the overflow nor the
	// denormal exit can fire. expKernel takes only such lanes.
	expLo = -708
	expHi = 709
)

// expTaylor holds the series' coefficients, highest order first:
// 1/8!, 1/7!, …, 1/2!, 1/1!.
var expTaylor = [...]float64{
	2.4801587301587301587e-5,
	1.9841269841269841270e-4,
	1.3888888888888888889e-3,
	8.3333333333333333333e-3,
	4.1666666666666666667e-2,
	1.6666666666666666667e-1,
	0.5,
	1.0,
}

// exp returns e^x with the bits of math.Exp's FMA branch on amd64.
func exp(x float64) float64 {
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) >= 0x7FF0000000000000: // NaN or ±Inf
		if bits == 0xFFF0000000000000 {
			return 0
		}
		return x
	case x > expOverflow:
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even; a value that does not fit an
	// int32 becomes MinInt32 (the "integer indefinite").
	k := int32(math.MinInt32)
	if r := math.RoundToEven(float64(expLog2e * x)); r >= math.MinInt32 && r <= math.MaxInt32 {
		k = int32(r)
	}
	kf := float64(k)
	x = math.FMA(-kf, expLn2U, x)
	x = math.FMA(-kf, expLn2L, x)
	x = float64(x * 0.0625)
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(p, x, c)
	}
	x = float64(x * p)
	for range 3 {
		x = float64(x * (x + 2))
	}
	x = math.FMA(x+2, x, 1)

	e := k + 0x3FF // biased exponent of 2^k
	switch {
	case e <= 0:
		if e < -52 {
			return 0
		}
		x = float64(x * math.Float64frombits(uint64(e+0x3FE)<<52))
		e = 1
	case e >= 0x7FF:
		return math.Inf(1)
	}
	return x * math.Float64frombits(uint64(e)<<52)
}

// tanhMaxLog is math.Tanh's saturation point, log(2^127)/2: beyond it
// tanh is ±1 and exp is not consulted.
const tanhMaxLog = 0.5 * 8.8029691931113054295988e+01

var (
	tanhP = [...]float64{-9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3}
	tanhQ = [...]float64{1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3}
)

// tanh sets dst[i] = float32(math.Tanh(float64(src[i]))), by
// math.Tanh's three branches over exp: e[i] must hold exp(2|src[i]|)
// whenever 0.625 ≤ |src[i]| ≤ tanhMaxLog and is not read otherwise, so
// the caller computes a chunk's exps at once (TanhForwardInto). dst may
// be src.
func tanh(dst, src []float32, e []float64) {
	dst, e = dst[:len(src)], e[:len(src)]
	for i, v := range src {
		x := float64(v)
		z := math.Abs(x)
		switch {
		case z > tanhMaxLog:
			z = 1
		case z >= 0.625:
			z = 1 - 2/(e[i]+1)
		case x == 0:
			dst[i] = v
			continue
		default: // and NaN
			s := float64(x * x)
			num := float64(float64(float64(tanhP[0]*s)+tanhP[1])*s) + tanhP[2]
			den := float64(float64(float64(float64(s+tanhQ[0])*s)+tanhQ[1])*s) + tanhQ[2]
			dst[i] = float32(x + x*s*num/den)
			continue
		}
		if x < 0 {
			z = -z
		}
		dst[i] = float32(z)
	}
}
