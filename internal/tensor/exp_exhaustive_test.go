//go:build exhaustive

package tensor

import "testing"

// TestTanhExhaustive is TestTanhMatchesMath's sweep over all 2^32
// float32 bit patterns, on each path:
//
//	go test -tags exhaustive -run TestTanhExhaustive ./internal/tensor/
func TestTanhExhaustive(t *testing.T) {
	t.Logf("math.Exp takes its FMA branch: %v", mathExpFMA)
	expPaths(t, func(t *testing.T) { sweepTanh(t, 0, 1<<32) })
}
