package experiments

import (
	"fmt"

	"parallax/internal/core"
	"parallax/internal/engine"
	"parallax/internal/metrics"
	"parallax/internal/models"
)

// The paper's stated future work (§7, "Increasing Variable Sparsity
// through Network Sparsification"): pruning techniques make a dense model
// sparse by touching only a subset of each variable per input, and "even
// when the model is intrinsically dense, by applying network pruning or
// quantization, we believe that Parallax's hybrid architecture can
// outperform other frameworks that only utilize the PS or AR
// architecture". This experiment implements it: ResNet-50 with runtime
// pruning at ratio r makes every variable sparse with α = 1−r, and the
// hybrid architecture (with the α-threshold rule enabled, so hot variables
// stay on AllReduce) is compared against pure AR and pure PS.
//
// Finding (pinned by testdata/pruning.golden): the conjecture holds at moderate
// pruning and inverts at extreme pruning. At 50-80% pruning the hybrid
// clearly beats pure AR (whose AllGatherv must circulate large
// 48-worker concatenations) — the paper's intuition is right. At 95-99%
// pruning the AllGatherv blocks become tiny while the PS path still pays
// its fixed per-message cost (48 workers × P partitions × ~2 ms of
// server-side RPC/accumulator handling — the constant calibrated to
// reproduce the paper's own TF-PS throughput), so pure AR overtakes both
// PS and the byte-threshold hybrid. A production hybrid would want a
// cost-model-based routing decision rather than the byte-only α rule for
// many-small-variable models.

// PruningRow is one pruning ratio's comparison.
type PruningRow struct {
	PruneRatio float64
	Alpha      float64
	Hybrid     float64
	PureAR     float64
	PurePS     float64
	// HybridPSVars counts variables the hybrid plan kept on the PS path.
	HybridPSVars int
}

// ExtensionPruning sweeps pruning ratios on a sparsified ResNet-50.
func ExtensionPruning(env Env) []PruningRow {
	threshold := core.DefaultAlphaThreshold(env.HW)
	var out []PruningRow
	for _, prune := range []float64{0.0, 0.5, 0.8, 0.95, 0.99} {
		alpha := 1 - prune
		if alpha <= 0 {
			alpha = 0.01
		}
		spec := models.ResNet50()
		spec.Name = fmt.Sprintf("ResNet-50-pruned-%.0f%%", prune*100)
		if prune > 0 {
			for i := range spec.Vars {
				spec.Vars[i].Sparse = true
				spec.Vars[i].Alpha = alpha
				spec.Vars[i].PartitionTarget = spec.Vars[i].Elements() > 1_000_000
			}
			// Pruned networks also compute less.
			spec.FwdTime *= alpha
			spec.BwdTime *= alpha
		}

		run := func(arch core.Arch, thresholdOn bool) (engine.Result, *core.Plan) {
			th := 0.0
			if thresholdOn {
				th = threshold
			}
			return env.sim(spec, core.Options{
				Arch: arch, NumMachines: env.Machines, SparsePartitions: 32,
				SmartPlacement:      arch != core.ArchNaivePS,
				AlphaDenseThreshold: th,
			}, env.GPUs, arch == core.ArchHybrid || arch == core.ArchOptPS)
		}

		hyb, plan := run(core.ArchHybrid, true)
		ar, _ := run(core.ArchAR, false)
		ps, _ := run(core.ArchNaivePS, false)
		out = append(out, PruningRow{
			PruneRatio:   prune,
			Alpha:        alpha,
			Hybrid:       hyb.Throughput,
			PureAR:       ar.Throughput,
			PurePS:       ps.Throughput,
			HybridPSVars: plan.CountByMethod()[core.MethodPS],
		})
	}
	return out
}

// RenderPruning formats the extension experiment.
func RenderPruning(rows []PruningRow) string {
	t := metrics.NewTable("Extension (paper §7 future work): pruned ResNet-50, hybrid vs pure architectures",
		"prune", "alpha", "Hybrid", "pure AR", "pure PS", "PS-routed vars")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0f%%", r.PruneRatio*100),
			fmt.Sprintf("%.2f", r.Alpha),
			humanize(r.Hybrid), humanize(r.PureAR), humanize(r.PurePS),
			fmt.Sprintf("%d", r.HybridPSVars))
	}
	t.AddNote("hybrid uses the alpha-threshold rule: hot variables stay on AllReduce, cold ones move to PS")
	return t.String()
}
