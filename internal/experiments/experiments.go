// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cluster, printing measured values next
// to the paper's reported ones. Each experiment returns structured results
// (for tests) and renders a plain-text table.
//
// The per-experiment index lives in DESIGN.md §6; testdata/*.golden holds
// every table as parallax-bench prints it, and the tests pin each one.
package experiments

import (
	"fmt"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/engine"
	"parallax/internal/metrics"
	"parallax/internal/models"
)

// Env fixes the simulated cluster for all experiments: the paper's testbed
// of 8 machines × 6 GPUs on 100 Gbps InfiniBand.
type Env struct {
	HW       cluster.Hardware
	Machines int
	GPUs     int // per machine
}

// DefaultEnv returns the paper's cluster.
func DefaultEnv() Env {
	return Env{HW: cluster.DefaultHardware(), Machines: 8, GPUs: 6}
}

// bestPartitions returns the paper's tuned partition counts (Table 2 best:
// 128 for LM, 64 for NMT; dense models are unpartitioned).
func bestPartitions(spec *models.Spec) int {
	switch spec.Name {
	case "LM":
		return 128
	case "NMT":
		return 64
	default:
		return 1
	}
}

// sim plans spec with custom opts and runs the plan on opts.NumMachines
// machines of gpus GPUs each, with the env's hardware and §4.3 local
// aggregation when local is set. Only the ablations and the pruning
// extension, which vary the baseline conventions, need it; everything else
// goes through run.
func (e Env) sim(spec *models.Spec, opts core.Options, gpus int, local bool) (engine.Result, *core.Plan) {
	plan, err := core.BuildPlan(engine.PlanVars(spec), opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err)) // configs are internal constants
	}
	res, err := engine.Run(engine.Config{
		Model: spec, Plan: plan, Machines: opts.NumMachines, GPUsPerMachine: gpus,
		HW: e.HW, LocalAggregation: local,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res, plan
}

// run simulates spec under arch with each baseline's conventions, which
// engine.RunArch alone decides.
func (e Env) run(spec *models.Spec, arch core.Arch, machines, gpus, parts int) engine.Result {
	res, err := engine.RunArch(spec, arch, machines, gpus, parts, e.HW)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err)) // configs are internal constants
	}
	return res
}

// humanize shortens throughput numbers for table cells.
func humanize(v float64) string { return metrics.Humanize(v) }
