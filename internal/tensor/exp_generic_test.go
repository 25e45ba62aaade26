//go:build !amd64

package tensor

import "testing"

// mathExpFMA is false off amd64: exp's bits are those of math.Exp's
// amd64 FMA branch, which other ports need not share.
const mathExpFMA = false

// expPaths runs f on the one exp path there is off amd64, the Go port.
func expPaths(t *testing.T, f func(t *testing.T)) { t.Run("go", f) }
