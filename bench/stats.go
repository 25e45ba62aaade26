package main

import (
	"fmt"
	"math"
	"sort"
)

// sample is the summary of one metric's samples inside one run: the
// median, the quartiles and how many samples stand behind them. A
// count that was not sampled (bytes per step, a loss) has N == 1 and
// Q1 == Q3 == Value.
type sample struct {
	N     int     `json:"n"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func point(v float64) sample { return sample{N: 1, Value: v, Q1: v, Q3: v} }

// summarize returns the median and quartiles of xs. It sorts a copy.
func summarize(xs []float64) sample {
	if len(xs) == 0 {
		return sample{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sample{N: len(s), Value: quantileSorted(s, 0.5), Q1: quantileSorted(s, 0.25), Q3: quantileSorted(s, 0.75)}
}

// quantileSorted is the q-quantile of sorted s by the rule of Python's
// statistics.quantiles (its default, "exclusive" method), which is what
// the driver applies to the values of repeated runs: the quantile sits
// at position q·(n+1) counting from one, between the two order
// statistics around it.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n+1)
	j := min(max(int(pos), 1), n-1)
	return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
}

func median(xs []float64) float64 { return summarize(xs).Value }

// summarizeBy summarizes f applied to every x: per-call times turned
// into rates or other units.
func summarizeBy(xs []float64, f func(float64) float64) sample {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	return summarize(ys)
}

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: with fewer the value is one outlier's luck.
const tailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and refuses when fewer than tailSamples samples
// lie strictly beyond the chosen rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < tailSamples {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, beyond, tailSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}
