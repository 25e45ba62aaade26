package parallax

import (
	"parallax/internal/metrics"
	"parallax/internal/partition"
)

// PartitionSearch is the sampling search's outcome: the sampled
// operating points, the fitted Eq. 1 cost model, the chosen P, and the
// measurement-run budget consumed.
type PartitionSearch = partition.SearchResult

// PartitionSample is one measured (P, iteration time) operating point.
type PartitionSample = partition.Sample

// PartitionCostModel is the fitted iter_time(P) = θ0 + θ1/P + θ2·P.
type PartitionCostModel = partition.CostModel

// PartitionDecision reports how the sparse-variable partition count was
// chosen (§3.2): fixed by configuration, or searched against real
// measured steps on the live runtime.
type PartitionDecision struct {
	// P is the partition count in effect.
	P int
	// Source is "fixed" or "online" (the search the first step loop
	// runs). A restored session reports the source its checkpoint
	// recorded (older checkpoints may say "simulated").
	Source string
	// Pending marks a search that has not run yet; it runs during the
	// first Steps iteration.
	Pending bool
	// Search is the search outcome; nil for fixed and restored decisions
	// (and for searches still pending).
	Search *PartitionSearch
}

// String renders the decision the way parallax-info does.
func (d PartitionDecision) String() string {
	src := d.Source
	if d.Pending {
		src += ", pending first step loop"
		return metrics.FormatPartitionDecision(src, d.P, nil)
	}
	return metrics.FormatPartitionDecision(src, d.P, d.Search)
}

// StepStats is one training step's measurements (loss, wall-clock step
// time, gradient bytes pushed to the synchronization layer).
type StepStats = metrics.StepStats

// LoopStats aggregates StepStats over a step loop (LoopStats.Observe).
type LoopStats = metrics.LoopStats
