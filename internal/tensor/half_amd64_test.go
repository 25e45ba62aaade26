package tensor

import (
	"fmt"
	"testing"
)

// TestF16GoPathOnAMD64 switches the F16C path off, so the Go side of
// the f16 dispatch runs on amd64 as well: the same checks as the kernel
// comparison and a seeded sample against the scalar routines.
func TestF16GoPathOnAMD64(t *testing.T) {
	t.Logf("F16C detected: %v", hasF16C)
	defer func(saved bool) { hasF16C = saved }(hasF16C)
	hasF16C = false

	ordinary := NewRNG(7).RandN(1, 1009).data
	mixed := append([]float32(nil), ordinary[:97]...)
	for i, v := range specials {
		mixed[(i*7)%len(mixed)] = v
	}
	for n := 0; n <= 130; n++ {
		for off := 0; off < 8; off++ {
			what := func(k string) string { return fmt.Sprintf("%s n=%d off=%d (Go path)", k, n, off) }
			checkF16AgainstGeneric(t, ordinary[:n], off, what)
			checkF16AgainstGeneric(t, mixed[:min(n, len(mixed))], off, what)
		}
	}
	if err := f16Mismatch(mixed, make([]byte, 2*len(mixed)), make([]float32, len(mixed))); err != nil {
		t.Error(err)
	}
}
