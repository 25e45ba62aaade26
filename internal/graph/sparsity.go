package graph

import "slices"

// GradKind classifies a variable's gradient type, the property Parallax's
// hybrid architecture dispatches on: dense gradients synchronize via
// AllReduce, sparse gradients via parameter servers (§3.1).
type GradKind int

const (
	// GradNone means the variable is unused (Validate rejects this).
	GradNone GradKind = iota
	// GradDense means at least one consumer produces a dense gradient.
	GradDense
	// GradSparse means every consumer is a Gather lookup, so the gradient
	// is IndexedSlices-shaped.
	GradSparse
)

func (k GradKind) String() string {
	switch k {
	case GradDense:
		return "dense"
	case GradSparse:
		return "sparse"
	default:
		return "none"
	}
}

// GradKind statically classifies v by inspecting its consumers, mirroring
// how TensorFlow chooses the gradient tensor type at graph-construction
// time ("TensorFlow creates a sparse type gradient tensor for a variable
// used in a sparse access operation, gather", §5).
func (g *Graph) GradKind(v *Variable) GradKind {
	kind := GradNone
	for _, n := range g.nodes {
		for slot, in := range n.Inputs {
			if in != v.node {
				continue
			}
			if n.Kind == OpGather && slot == 0 {
				if kind == GradNone {
					kind = GradSparse
				}
			} else {
				kind = GradDense
			}
		}
	}
	return kind
}

// GatherInputs returns the int inputs indexing v when the graph only
// gathers v — its gradient is sparse — and every such Gather takes its
// indices straight from a graph input, so a feed names every row of v a
// step can read; nil otherwise. Such a variable is row-addressable: a
// step needs only the rows its feed names, whatever happened to the
// others (NewExec's rowVars, the trainer's row-addressed pulls). It is a
// property of the graph alone.
func (g *Graph) GatherInputs(v *Variable) []*Node {
	if g.GradKind(v) != GradSparse {
		return nil
	}
	var ins []*Node
	for _, n := range g.nodes {
		if n.Kind != OpGather || n.Inputs[0].Var != v {
			continue
		}
		idx := n.Inputs[1]
		if idx.Kind != OpInput {
			return nil
		}
		if !slices.Contains(ins, idx) {
			ins = append(ins, idx)
		}
	}
	return ins
}

// DenseVariables returns variables with dense gradients, in declaration
// order.
func (g *Graph) DenseVariables() []*Variable {
	var out []*Variable
	for _, v := range g.vars {
		if g.GradKind(v) == GradDense {
			out = append(out, v)
		}
	}
	return out
}

// SparseVariables returns variables with sparse gradients, in declaration
// order.
func (g *Graph) SparseVariables() []*Variable {
	var out []*Variable
	for _, v := range g.vars {
		if g.GradKind(v) == GradSparse {
			out = append(out, v)
		}
	}
	return out
}
