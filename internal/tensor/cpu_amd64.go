package tensor

// cpuFeatures reports whether the CPU and OS run the F16C conversions
// (half_amd64.s) and the AVX2+FMA exp kernel (exp_amd64.s).
func cpuFeatures() (f16c, avx2fma bool)

// hasF16C and hasAVX2FMA pick each kernel's path once per process.
// Which path runs cannot change a bit (see half.go and exp.go); tests
// clear them to run the Go code on amd64.
var hasF16C, hasAVX2FMA = cpuFeatures()
