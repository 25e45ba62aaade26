package experiments

import (
	"fmt"

	"parallax/internal/core"
	"parallax/internal/metrics"
	"parallax/internal/models"
)

// The ablations cover the design choices DESIGN.md calls out beyond the
// paper's own tables: the α threshold for treating hot sparse variables as
// dense (§3.1, last paragraph), local aggregation in isolation, and smart
// placement vs round-robin.

// AblationAlphaRow is one sparsity level of the threshold ablation.
type AblationAlphaRow struct {
	Alpha            float64
	AsPS, AsDense    float64 // hybrid throughput with variable on each path
	DenseWins        bool
	ThresholdPredict bool // what DefaultAlphaThreshold would choose
}

// AblationAlphaThreshold sweeps the LM's sparse-variable α at full paper
// scale (1.6 GB embedding tables — the crossover depends on the variable's
// size as well as α, since per-row update costs do not shrink with width)
// and compares handling the variables via PS against promoting them to
// AllReduce, validating the paper's "if the α value of a sparse variable
// is close to 1, then it may be helpful to handle the variable as a dense
// variable".
func AblationAlphaThreshold(env Env) []AblationAlphaRow {
	threshold := core.DefaultAlphaThreshold(env.HW)
	var out []AblationAlphaRow
	for _, alpha := range []float64{0.02, 0.05, 0.15, 0.3, 0.6, 0.9} {
		spec := models.LM()
		for i := range spec.Vars {
			if spec.Vars[i].Sparse {
				spec.Vars[i].Alpha = alpha
			}
		}
		asPS := env.run(spec, core.ArchHybrid, env.Machines, env.GPUs, 128)
		// Force dense treatment by planning with a threshold at alpha.
		asDense, _ := env.sim(spec, core.Options{
			Arch: core.ArchHybrid, NumMachines: env.Machines,
			SparsePartitions: 128, SmartPlacement: true,
			AlphaDenseThreshold: alpha, // >= alpha, so the variable promotes
		}, env.GPUs, true)
		out = append(out, AblationAlphaRow{
			Alpha:            alpha,
			AsPS:             asPS.Throughput,
			AsDense:          asDense.Throughput,
			DenseWins:        asDense.Throughput > asPS.Throughput,
			ThresholdPredict: alpha >= threshold,
		})
	}
	return out
}

// RenderAblationAlpha formats the threshold ablation.
func RenderAblationAlpha(rows []AblationAlphaRow, env Env) string {
	t := metrics.NewTable("Ablation: alpha threshold for dense promotion (constructed LM)",
		"alpha", "as PS", "as dense(AR)", "dense wins", "threshold predicts dense")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.2f", r.Alpha), humanize(r.AsPS), humanize(r.AsDense),
			fmt.Sprintf("%v", r.DenseWins), fmt.Sprintf("%v", r.ThresholdPredict))
	}
	t.AddNote("derived threshold = bw(RPC)/bw(NCCL) = %.2f", core.DefaultAlphaThreshold(env.HW))
	return t.String()
}

// AblationLocalAggRow compares OptPS with and without local aggregation.
type AblationLocalAggRow struct {
	Model              string
	WithLocal, Without float64
}

// AblationLocalAggregation isolates local aggregation's contribution
// (part of the NaivePS→OptPS gap in Table 4).
func AblationLocalAggregation(env Env) []AblationLocalAggRow {
	var out []AblationLocalAggRow
	for _, spec := range []*models.Spec{models.LM(), models.NMT()} {
		p := bestPartitions(spec)
		run := func(local bool) float64 {
			res, _ := env.sim(spec, core.Options{
				Arch: core.ArchOptPS, NumMachines: env.Machines,
				SparsePartitions: p, SmartPlacement: true,
			}, env.GPUs, local)
			return res.Throughput
		}
		out = append(out, AblationLocalAggRow{
			Model: spec.Name, WithLocal: run(true), Without: run(false),
		})
	}
	return out
}

// RenderAblationLocalAgg formats the local-aggregation ablation.
func RenderAblationLocalAgg(rows []AblationLocalAggRow) string {
	t := metrics.NewTable("Ablation: local aggregation (OptPS placement, 48 GPUs)",
		"Model", "with local agg", "without", "gain")
	for _, r := range rows {
		t.AddRow(r.Model, humanize(r.WithLocal), humanize(r.Without),
			metrics.Ratio(r.WithLocal, r.Without))
	}
	return t.String()
}

// AblationPlacementRow compares smart vs round-robin placement.
type AblationPlacementRow struct {
	Model        string
	Smart, Naive float64
	SmartImbal   float64
	NaiveImbal   float64
}

// AblationPlacement isolates smart (size-balanced, update-colocated)
// placement against naive round-robin.
func AblationPlacement(env Env) []AblationPlacementRow {
	var out []AblationPlacementRow
	for _, spec := range []*models.Spec{models.LM(), models.NMT()} {
		p := bestPartitions(spec)
		run := func(smart bool) (float64, float64) {
			res, plan := env.sim(spec, core.Options{
				Arch: core.ArchOptPS, NumMachines: env.Machines,
				SparsePartitions: p, SmartPlacement: smart,
			}, env.GPUs, true)
			return res.Throughput, plan.MaxServerImbalance()
		}
		st, si := run(true)
		nt, ni := run(false)
		out = append(out, AblationPlacementRow{
			Model: spec.Name, Smart: st, Naive: nt, SmartImbal: si, NaiveImbal: ni,
		})
	}
	return out
}

// RenderAblationPlacement formats the placement ablation.
func RenderAblationPlacement(rows []AblationPlacementRow) string {
	t := metrics.NewTable("Ablation: smart vs round-robin variable placement (48 GPUs)",
		"Model", "smart", "round-robin", "imbalance smart", "imbalance rr")
	for _, r := range rows {
		t.AddRow(r.Model, humanize(r.Smart), humanize(r.Naive),
			fmt.Sprintf("%.2f", r.SmartImbal), fmt.Sprintf("%.2f", r.NaiveImbal))
	}
	return t.String()
}
