package tensor

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// mathExpFMA reports whether math.Exp takes its FMA branch, whose bits
// exp reproduces: package math checks for AVX and FMA at start-up. The
// probe's AVX2+FMA flag implies both; GODEBUG can switch either off.
var mathExpFMA = func() bool {
	_, avx2fma := cpuFeatures()
	godebug := os.Getenv("GODEBUG")
	return avx2fma && !strings.Contains(godebug, "cpu.fma=off") && !strings.Contains(godebug, "cpu.avx=off") &&
		!strings.Contains(godebug, "cpu.all=off")
}()

// expPaths runs f on each path of the exp dispatch this CPU has: the
// AVX2+FMA kernel when the probe found it, then the Go port.
func expPaths(t *testing.T, f func(t *testing.T)) {
	if hasAVX2FMA {
		t.Run("kernel", f)
	}
	defer func(saved bool) { hasAVX2FMA = saved }(hasAVX2FMA)
	hasAVX2FMA = false
	t.Run("go", f)
}

// TestExpGoPathOnAMD64 switches the AVX2+FMA kernel off, so the Go side
// of the exp dispatch runs on amd64 as well: the exp and tanh checks of
// TestAsmKernelsMatchGeneric on the port alone.
func TestExpGoPathOnAMD64(t *testing.T) {
	t.Logf("AVX2+FMA detected: %v", hasAVX2FMA)
	defer func(saved bool) { hasAVX2FMA = saved }(hasAVX2FMA)
	hasAVX2FMA = false

	ordinary, mixed := testValues()
	ordinary64, mixed64 := expTestValues()
	for n := 0; n <= 130; n++ {
		for off := 0; off < 8; off++ {
			what := func(k string) string { return fmt.Sprintf("%s n=%d off=%d (Go path)", k, n, off) }
			checkTanhAgainstPort(t, ordinary[:n], off, what)
			checkTanhAgainstPort(t, mixed[:min(n, len(mixed))], off, what)
			checkExpAgainstPort(t, ordinary64[:n], off, what)
			checkExpAgainstPort(t, mixed64[:min(n, len(mixed64))], off, what)
		}
	}
	checkTanhAgainstPort(t, ordinary, 3, func(k string) string { return k + " n=1009 off=3 (Go path)" })
}
