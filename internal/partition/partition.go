// Package partition implements Parallax's automatic search for the number
// of sparse-variable partitions (§3.2):
//
//	iter_time(P) = θ0 + θ1/P + θ2·P               (Eq. 1)
//
// θ0 is fixed compute/communication, θ1 the work partitioning parallelizes
// (server-side aggregation and update), θ2 the per-partition overhead
// (stitching partial results, managing extra arrays).
//
// Parallax samples real iteration times at a few partition counts —
// starting from the machine count, doubling until time increases, then
// halving until it increases — fits Eq. 1 by least squares, and takes the
// model's critical point. Because Eq. 1 is convex in P and the critical
// point is bracketed by the sampled range, no extrapolation happens.
//
// The Measure callback decides what "run an iteration" means: a session
// opened without a fixed count (parallax.Config.SparsePartitions) plugs
// in real training steps with live resharding between probes,
// budget-capped by SearchN; the paper tables and parallax-info plug in
// the discrete-event engine.
//
// The package also provides the paper's §6.5 baselines: Min (smallest
// feasible P) and the brute-force search (increase P by 2 until throughput
// drops >10% from the best seen).
package partition

import (
	"fmt"
	"math"
	"sort"
)

// MaxSearchP caps the search's upper bracket regardless of how many
// rows the largest partition-target variable has, so degenerate graphs
// cannot explode the candidate space. Both the simulator-backed what-if
// and the session's search clamp with Bound.
const MaxSearchP = 2048

// Bound returns the search's upper bracket for a variable of the given
// row count: the rows themselves (a partition per row is the physical
// maximum), clamped to MaxSearchP and to at least 1.
func Bound(maxRows int) int {
	if maxRows < 1 {
		return 1
	}
	if maxRows > MaxSearchP {
		return MaxSearchP
	}
	return maxRows
}

// Sample is one measured operating point.
type Sample struct {
	P        int
	IterTime float64
}

// CostModel is the fitted Eq. 1.
type CostModel struct {
	Theta0, Theta1, Theta2 float64
}

// Predict evaluates the model at partition count p.
func (m CostModel) Predict(p float64) float64 {
	return m.Theta0 + m.Theta1/p + m.Theta2*p
}

// CriticalP returns the unconstrained minimizer √(θ1/θ2); it returns
// (0, false) when the fitted curve has no interior minimum (θ1 or θ2
// not strictly positive — NaN thetas from a degenerate fit land here
// too, since NaN fails every comparison).
func (m CostModel) CriticalP() (float64, bool) {
	if !(m.Theta1 > 0) || !(m.Theta2 > 0) {
		return 0, false
	}
	return math.Sqrt(m.Theta1 / m.Theta2), true
}

// Fit computes the least-squares fit of Eq. 1 over the samples (mean
// squared error on iteration time, as in the paper). Samples with a
// non-finite iteration time — failed or budget-skipped measurement runs
// — are ignored; the fit needs at least three distinct partition counts
// among the finite ones.
func Fit(samples []Sample) (CostModel, error) {
	distinct := map[int]bool{}
	for _, s := range samples {
		if isFinite(s.IterTime) {
			distinct[s.P] = true
		}
	}
	if len(distinct) < 3 {
		return CostModel{}, fmt.Errorf("partition: need >= 3 distinct P values with finite times, have %d", len(distinct))
	}
	// Normal equations A·θ = b over basis x = (1, 1/P, P).
	var a [3][3]float64
	var b [3]float64
	for _, s := range samples {
		if !isFinite(s.IterTime) {
			continue
		}
		if s.P <= 0 {
			return CostModel{}, fmt.Errorf("partition: sample with P=%d", s.P)
		}
		x := [3]float64{1, 1 / float64(s.P), float64(s.P)}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a[i][j] += x[i] * x[j]
			}
			b[i] += x[i] * s.IterTime
		}
	}
	theta, err := solve3(a, b)
	if err != nil {
		return CostModel{}, err
	}
	return CostModel{Theta0: theta[0], Theta1: theta[1], Theta2: theta[2]}, nil
}

// isFinite reports whether a measured time is usable for fitting.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// solve3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, error) {
	for col := 0; col < 3; col++ {
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return [3]float64{}, fmt.Errorf("partition: singular system (degenerate samples)")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < 3; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [3]float64
	for i := 0; i < 3; i++ {
		x[i] = b[i] / a[i][i]
	}
	return x, nil
}

// Measure runs (a few iterations of) training with the given partition
// count and returns the average iteration time in seconds. In the real
// system this launches workers and servers (§4.2, "worker processes
// transform the input graph to a distributed version and run for a small
// number of iterations"); in this reproduction it is backed by the
// discrete-event engine.
type Measure func(p int) float64

// SearchResult reports the sampling search's outcome.
type SearchResult struct {
	BestP   int
	Model   CostModel
	Samples []Sample
	// Runs is the number of measurement runs performed (the paper's §6.5
	// efficiency metric: "at most 5 runs" for Parallax vs "more than 50"
	// for brute force).
	Runs int
}

// Search implements Parallax's sampling procedure. start is the initial
// sample point (the number of machines, §3.2); maxP bounds the search
// (e.g. the variable's row count).
func Search(measure Measure, start, maxP int) (SearchResult, error) {
	return SearchN(measure, start, maxP, 0)
}

// SearchN is Search with a measurement-run budget: at most maxRuns
// distinct partition counts are measured (0 means unlimited). The budget
// is the paper's §6.5 efficiency claim — Parallax settles "within at most
// 5 runs" — and the live runtime search passes 5, so tuning on the real
// data plane consumes a bounded number of training steps even when the
// doubling sweep has room to keep descending.
func SearchN(measure Measure, start, maxP, maxRuns int) (SearchResult, error) {
	if start < 1 {
		start = 1
	}
	if maxP < start {
		maxP = start
	}
	res := SearchResult{}
	seen := map[int]float64{}
	canProbe := func(p int) bool {
		if _, ok := seen[p]; ok {
			return true // a cached read, not a new run
		}
		return maxRuns <= 0 || res.Runs < maxRuns
	}
	probe := func(p int) float64 {
		if t, ok := seen[p]; ok {
			return t
		}
		t := measure(p)
		seen[p] = t
		res.Runs++
		res.Samples = append(res.Samples, Sample{P: p, IterTime: t})
		return t
	}

	// Double from the start point until iteration time increases.
	cur := probe(start)
	p := start
	for p*2 <= maxP && canProbe(p*2) {
		next := probe(p * 2)
		p *= 2
		if next > cur {
			break
		}
		cur = next
	}
	// Halve from the start point until iteration time increases.
	cur = seen[start]
	p = start
	for p/2 >= 1 && canProbe(p/2) {
		next := probe(p / 2)
		p /= 2
		if next > cur {
			break
		}
		cur = next
	}

	sort.Slice(res.Samples, func(i, j int) bool { return res.Samples[i].P < res.Samples[j].P })

	model, err := Fit(res.Samples)
	if err != nil {
		// Fewer than three distinct samples means the minimum sat at the
		// first probe and its both neighbours increased; fall back to the
		// best sampled point.
		res.BestP = argminSample(res.Samples)
		return res, nil
	}
	res.Model = model

	lo := res.Samples[0].P
	hi := res.Samples[len(res.Samples)-1].P
	if crit, ok := model.CriticalP(); ok {
		// Clamp inside the sampled bracket: no extrapolation (§3.2).
		if crit < float64(lo) {
			crit = float64(lo)
		}
		if crit > float64(hi) {
			crit = float64(hi)
		}
		predicted := int(math.Round(crit))
		if predicted < 1 {
			predicted = 1
		}
		// Verify the model's prediction with one more measurement and keep
		// whichever sampled point is actually fastest — the fitted curve
		// can mispredict when the real curve has a knee (e.g. the CPU
		// parallelism cap) rather than a smooth minimum.
		if canProbe(predicted) {
			probe(predicted)
		}
		res.BestP = argminSample(res.Samples)
	} else {
		res.BestP = argminSample(res.Samples)
	}
	return res, nil
}

func argminSample(samples []Sample) int {
	best := samples[0]
	for _, s := range samples[1:] {
		if s.IterTime < best.IterTime {
			best = s
		}
	}
	return best.P
}

// BruteForce reproduces §6.5's baseline: start from minP (the smallest
// count that fits in memory), increase P by 2 each run, and stop when the
// iteration time is more than 10% worse than the best observed. It returns
// the best P and the number of runs consumed.
func BruteForce(measure Measure, minP, maxP int) SearchResult {
	res := SearchResult{}
	best := math.Inf(1)
	bestP := minP
	for p := minP; p <= maxP; p += 2 {
		t := measure(p)
		res.Runs++
		res.Samples = append(res.Samples, Sample{P: p, IterTime: t})
		if t < best {
			best = t
			bestP = p
		} else if t > best*1.10 {
			break
		}
	}
	res.BestP = bestP
	return res
}
