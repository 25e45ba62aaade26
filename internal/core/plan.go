// Package core implements the paper's primary contribution: the
// sparsity-aware assignment of variables to synchronization architectures.
//
// Given the model's variables (with their gradient types and per-iteration
// element ratios α), a cluster size, and an architecture choice, BuildPlan
// decides per variable:
//
//   - synchronization method: AllReduce (dense path) or Parameter Server
//     (sparse path) — the hybrid architecture of §3.1;
//   - for PS variables, how many partitions to split the variable into and
//     which server machine owns each partition — §3.2's partitioning plus
//     §4.3's "evenly distributes variables across servers";
//   - the α-threshold special case of §3.1: a sparse variable whose α is
//     close enough to 1 is handled as dense, because AllReduce's efficient
//     bandwidth use beats the PS path despite moving 1/α× more bytes.
//
// The plan drives both the graph transformation (internal/transform) for
// real execution and the discrete-event engine (internal/engine) for
// paper-scale simulation.
package core

import (
	"fmt"

	"parallax/internal/cluster"
)

// Arch selects the overall training architecture. The four values match
// the systems compared in Table 4; Parallax's default, ArchHybrid, is
// the zero value.
type Arch int

const (
	// ArchHybrid is Parallax's default: AllReduce for dense variables,
	// optimized PS for sparse variables.
	ArchHybrid Arch = iota
	// ArchAR synchronizes everything with collectives (Horovod): AllReduce
	// for dense gradients, AllGatherv for sparse ones.
	ArchAR
	// ArchNaivePS synchronizes everything through parameter servers with
	// per-worker pull/push and no local aggregation (TF-PS).
	ArchNaivePS
	// ArchOptPS is Parallax's optimized PS: local aggregation and smart
	// operation placement, still PS for all variables.
	ArchOptPS
)

// Optimized reports whether the architecture gets §4.3's local
// aggregation and smart placement: OptPS and Hybrid, not the baselines.
func (a Arch) Optimized() bool { return a == ArchOptPS || a == ArchHybrid }

func (a Arch) String() string {
	switch a {
	case ArchAR:
		return "AR"
	case ArchNaivePS:
		return "NaivePS"
	case ArchOptPS:
		return "OptPS"
	case ArchHybrid:
		return "Hybrid"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Method is the per-variable synchronization mechanism.
type Method int

const (
	// MethodAllReduce replicates the variable on every worker and
	// aggregates dense gradients with ring AllReduce.
	MethodAllReduce Method = iota
	// MethodAllGatherv replicates the variable and aggregates sparse
	// gradients by concatenation (pure-AR architecture only).
	MethodAllGatherv
	// MethodPS stores the variable on parameter servers; workers pull
	// values and push gradients.
	MethodPS
)

func (m Method) String() string {
	switch m {
	case MethodAllReduce:
		return "allreduce"
	case MethodAllGatherv:
		return "allgatherv"
	case MethodPS:
		return "ps"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// VarInfo is the planner's view of one variable.
type VarInfo struct {
	Name  string
	Rows  int64
	Width int64
	// Sparse is the gradient type from graph.GradKind (or models.VarSpec).
	Sparse bool
	// Alpha is the per-worker element ratio (1 for dense).
	Alpha float64
	// PartitionTarget marks membership in a partitioner scope.
	PartitionTarget bool
}

// Elements returns Rows*Width.
func (v VarInfo) Elements() int64 { return v.Rows * v.Width }

// Bytes returns 4*Elements.
func (v VarInfo) Bytes() int64 { return v.Elements() * 4 }

// Assignment is the planner's decision for one variable.
type Assignment struct {
	VarInfo
	Method Method
	// Partitions is the number of pieces (1 = unpartitioned). Only PS
	// variables are partitioned.
	Partitions int
	// Servers holds the owning machine of each partition,
	// len == Partitions. Empty for collective methods.
	Servers []int
	// TreatAsDense is set when a sparse variable crossed the α threshold
	// and is synchronized as if dense (§3.1).
	TreatAsDense bool
}

// Plan is the full assignment for a model.
type Plan struct {
	Arch        Arch
	Assignments []Assignment
	// ServerBytes is the PS storage load per machine, for balance checks.
	ServerBytes []int64
}

// Options configures BuildPlan.
type Options struct {
	Arch        Arch
	NumMachines int
	// SparsePartitions is the partition count applied to partition-target
	// variables (all scopes use the same count, as each partitioner
	// partitions its variables uniformly; the optimal value comes from
	// internal/partition). 0 means 1 (unpartitioned).
	SparsePartitions int
	// AlphaDenseThreshold: sparse variables with α >= threshold are
	// treated as dense under ArchHybrid. <= 0 disables the rule.
	AlphaDenseThreshold float64
	// SmartPlacement balances PS variables across servers by bytes
	// (greedy least-loaded); otherwise variables are placed round-robin
	// by declaration order. Parallax uses smart placement (§4.3).
	SmartPlacement bool
}

// DefaultAlphaThreshold derives the α above which AllReduce beats PS for a
// sparse variable from the hardware's protocol efficiencies: AR moves
// ~4w(N−1)/N bytes per machine at NCCL speed, PS moves ~4αw(N−1)/N at RPC
// speed (Table 3, m-variables column), so AR wins when
// α > bw(RPC)/bw(NCCL).
func DefaultAlphaThreshold(hw cluster.Hardware) float64 {
	nccl := hw.Bandwidth(cluster.ProtoNCCL)
	if nccl == 0 {
		return 1
	}
	return hw.Bandwidth(cluster.ProtoRPC) / nccl
}

// BuildPlan assigns every variable a synchronization method and placement.
func BuildPlan(vars []VarInfo, opt Options) (*Plan, error) {
	if opt.NumMachines <= 0 {
		return nil, fmt.Errorf("core: %d machines", opt.NumMachines)
	}
	if len(vars) == 0 {
		return nil, fmt.Errorf("core: no variables")
	}
	p := opt.SparsePartitions
	if p <= 0 {
		p = 1
	}
	plan := &Plan{Arch: opt.Arch, ServerBytes: make([]int64, opt.NumMachines)}
	rr := 0 // round-robin cursor for naive placement

	for _, v := range vars {
		if v.Alpha <= 0 || v.Alpha > 1 {
			return nil, fmt.Errorf("core: variable %q alpha %v out of (0,1]", v.Name, v.Alpha)
		}
		a := Assignment{VarInfo: v, Partitions: 1}
		switch opt.Arch {
		case ArchAR:
			if v.Sparse {
				a.Method = MethodAllGatherv
			} else {
				a.Method = MethodAllReduce
			}
		case ArchNaivePS, ArchOptPS:
			a.Method = MethodPS
		case ArchHybrid:
			if v.Sparse && opt.AlphaDenseThreshold > 0 && v.Alpha >= opt.AlphaDenseThreshold {
				a.Method = MethodAllReduce
				a.TreatAsDense = true
			} else if v.Sparse {
				a.Method = MethodPS
			} else {
				a.Method = MethodAllReduce
			}
		default:
			return nil, fmt.Errorf("core: unknown arch %v", opt.Arch)
		}

		if a.Method == MethodPS {
			if v.PartitionTarget && v.Sparse {
				a.Partitions = p
			}
			a.Servers = make([]int, a.Partitions)
			perPart := v.Bytes() / int64(a.Partitions)
			if opt.SmartPlacement {
				// Greedy: place each partition on the currently
				// least-loaded server; equal loads break by index, which
				// spreads partitions of one variable across machines.
				for i := range a.Servers {
					best := 0
					for m := 1; m < opt.NumMachines; m++ {
						if plan.ServerBytes[m] < plan.ServerBytes[best] {
							best = m
						}
					}
					a.Servers[i] = best
					plan.ServerBytes[best] += perPart
				}
			} else {
				for i := range a.Servers {
					a.Servers[i] = rr % opt.NumMachines
					plan.ServerBytes[rr%opt.NumMachines] += perPart
					rr++
				}
			}
		}
		plan.Assignments = append(plan.Assignments, a)
	}
	return plan, nil
}

// PSBytes returns total bytes stored on parameter servers.
func (p *Plan) PSBytes() int64 {
	var n int64
	for _, b := range p.ServerBytes {
		n += b
	}
	return n
}

// CountByMethod returns how many variables use each method.
func (p *Plan) CountByMethod() map[Method]int {
	out := make(map[Method]int)
	for _, a := range p.Assignments {
		out[a.Method]++
	}
	return out
}

// MaxServerImbalance returns (max-min)/mean of ServerBytes, 0 when no PS
// variables exist.
func (p *Plan) MaxServerImbalance() float64 {
	total := p.PSBytes()
	if total == 0 {
		return 0
	}
	minB, maxB := p.ServerBytes[0], p.ServerBytes[0]
	for _, b := range p.ServerBytes {
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
	}
	mean := float64(total) / float64(len(p.ServerBytes))
	return float64(maxB-minB) / mean
}
