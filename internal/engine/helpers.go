package engine

import (
	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/models"
)

// PlanVars converts a model spec's variables into planner inputs.
func PlanVars(spec *models.Spec) []core.VarInfo {
	out := make([]core.VarInfo, len(spec.Vars))
	for i, v := range spec.Vars {
		out[i] = core.VarInfo{
			Name: v.Name, Rows: v.Rows, Width: v.Width,
			Sparse: v.Sparse, Alpha: v.Alpha, PartitionTarget: v.PartitionTarget,
		}
	}
	return out
}

// RunArch plans and simulates spec under the given architecture with the
// conventions each baseline uses: smart placement and local aggregation for
// Parallax's OptPS and Hybrid, naive placement and per-worker communication
// for TF-PS, collectives only for Horovod.
func RunArch(spec *models.Spec, arch core.Arch, machines, gpus, parts int, hw cluster.Hardware) (Result, error) {
	plan, err := core.BuildPlan(PlanVars(spec), core.Options{
		Arch:             arch,
		NumMachines:      machines,
		SparsePartitions: parts,
		SmartPlacement:   arch == core.ArchOptPS || arch == core.ArchHybrid,
	})
	if err != nil {
		return Result{}, err
	}
	return Run(Config{
		Model:            spec,
		Plan:             plan,
		Machines:         machines,
		GPUsPerMachine:   gpus,
		HW:               hw,
		LocalAggregation: arch == core.ArchOptPS || arch == core.ArchHybrid,
	})
}
