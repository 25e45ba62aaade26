//go:build exhaustive

package tensor

import "testing"

// TestF16BulkExhaustive is TestF16BulkMatchesScalar's sweep over all
// 2^32 float32 bit patterns (about 12 s on two cores with F16C):
//
//	go test -tags exhaustive -run TestF16BulkExhaustive ./internal/tensor/
func TestF16BulkExhaustive(t *testing.T) {
	sweepF16(t, 0, 1<<32)
}
