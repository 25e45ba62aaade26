// Package graph implements the single-GPU computation graph abstraction the
// Parallax reproduction transforms for distributed execution.
//
// A Graph is a static dataflow description: inputs (fed each step),
// variables (trainable parameters), and operations, ending in a scalar
// loss. The executor (exec.go) runs forward and reverse-mode backward
// passes over real tensors. Mirroring TensorFlow — and this is the detail
// Parallax's sparsity detection rests on (§5, "Identifying the sparsity of
// a variable") — the *type* of a variable's gradient is determined by how
// the variable is consumed: a variable read only through Gather (embedding
// lookup) receives an IndexedSlices-style sparse gradient; any other use
// produces a dense gradient.
//
// Because the graph is static, an Exec's steps all compute the same
// shapes in the same order, and every dense tensor of a step — forward
// outputs, backward temporaries, dense gradients — comes from a
// per-Exec arena that hands the previous step's tensors out again. The
// lifetime rule that follows: a dense gradient is valid until the next
// Step on its Exec begins; a sparse gradient is freshly built and owned
// by whoever receives it (DESIGN.md §3, "Kernel contract").
package graph

import (
	"fmt"

	"parallax/internal/tensor"
)

// OpKind enumerates the graph's operation set.
type OpKind int

const (
	// OpInput is a per-step placeholder (float tensor or int vector).
	OpInput OpKind = iota
	// OpVariable is a trainable parameter.
	OpVariable
	// OpGather looks up rows of a variable by an int-vector input
	// (embedding lookup). Its gradient w.r.t. the table is sparse.
	OpGather
	// OpMatMul multiplies two 2-D tensors.
	OpMatMul
	// OpAddBias adds a [n] bias to each row of a [m,n] tensor.
	OpAddBias
	// OpAdd adds two same-shape tensors element-wise.
	OpAdd
	// OpRelu applies max(x,0).
	OpRelu
	// OpTanh applies tanh(x).
	OpTanh
	// OpConcatCols concatenates two [m,a] and [m,b] tensors into [m,a+b].
	OpConcatCols
	// OpSoftmaxCE computes mean softmax cross-entropy of logits against an
	// int-vector label input; it is the loss node.
	OpSoftmaxCE
)

func (k OpKind) String() string {
	switch k {
	case OpInput:
		return "Input"
	case OpVariable:
		return "Variable"
	case OpGather:
		return "Gather"
	case OpMatMul:
		return "MatMul"
	case OpAddBias:
		return "AddBias"
	case OpAdd:
		return "Add"
	case OpRelu:
		return "Relu"
	case OpTanh:
		return "Tanh"
	case OpConcatCols:
		return "ConcatCols"
	case OpSoftmaxCE:
		return "SoftmaxCE"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// DType distinguishes float tensors from int-vector feeds.
type DType int

const (
	// Float is a float32 tensor.
	Float DType = iota
	// Int is an integer vector (token ids, labels).
	Int
)

// Node is one vertex of the graph.
type Node struct {
	ID     int
	Kind   OpKind
	Name   string
	Inputs []*Node
	DType  DType

	// Shape is the static output shape; the leading dimension may be the
	// batch size.
	Shape []int

	// Var is set for OpVariable nodes.
	Var *Variable
}

// Variable is a trainable parameter of the model.
type Variable struct {
	Name string
	// Init is the initial value; its shape is the variable's shape.
	Init *tensor.Dense
	// Shape of the variable.
	Shape []int
	// PartitionScope is >= 0 if the variable was declared inside a
	// parallax.Partitioner scope (Fig. 3 line 9), marking it as a target
	// for sparse-variable partitioning; -1 otherwise.
	PartitionScope int

	node *Node
}

// Elements returns the variable's total element count.
func (v *Variable) Elements() int64 {
	n := int64(1)
	for _, d := range v.Shape {
		n *= int64(d)
	}
	return n
}

// Bytes returns the variable's wire size (4 bytes/element).
func (v *Variable) Bytes() int64 { return v.Elements() * 4 }

// Graph is a single-GPU computation graph under construction or ready for
// execution/transformation.
type Graph struct {
	nodes []*Node
	vars  []*Variable
	loss  *Node

	nextPartitionScope int
	inPartitionScope   int // current scope id, -1 when outside
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{inPartitionScope: -1}
}

// Nodes returns all nodes in creation (topological) order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Variables returns all variables in declaration order.
func (g *Graph) Variables() []*Variable { return g.vars }

// Loss returns the loss node, or nil if not set.
func (g *Graph) Loss() *Node { return g.loss }

func (g *Graph) add(n *Node) *Node {
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return n
}

// Input declares a per-step placeholder with the given dtype and shape.
func (g *Graph) Input(name string, dt DType, shape ...int) *Node {
	return g.add(&Node{Kind: OpInput, Name: name, DType: dt, Shape: shape})
}

// Variable declares a trainable parameter with the given initial value.
func (g *Graph) Variable(name string, init *tensor.Dense) *Node {
	v := &Variable{
		Name:           name,
		Init:           init,
		Shape:          append([]int(nil), init.Shape()...),
		PartitionScope: g.inPartitionScope,
	}
	n := g.add(&Node{Kind: OpVariable, Name: name, DType: Float, Shape: v.Shape, Var: v})
	v.node = n
	g.vars = append(g.vars, v)
	return n
}

// InPartitioner runs fn with a fresh partitioner scope active: variables
// declared inside are partition targets (Fig. 3's `with parallax.
// partitioner():`). Each call creates a distinct scope; all variables in
// one scope are partitioned into the same number of pieces (§4.1).
func (g *Graph) InPartitioner(fn func()) int {
	if g.inPartitionScope >= 0 {
		panic("graph: nested partitioner scopes are not supported")
	}
	id := g.nextPartitionScope
	g.nextPartitionScope++
	g.inPartitionScope = id
	defer func() { g.inPartitionScope = -1 }()
	fn()
	return id
}

// Gather looks up rows of table (a variable or float tensor with rank 2)
// using the int-vector indices node.
func (g *Graph) Gather(table, indices *Node) *Node {
	if table.DType != Float || len(table.Shape) != 2 {
		panic(fmt.Sprintf("graph: Gather table must be rank-2 float, got %v", table.Shape))
	}
	if indices.DType != Int || len(indices.Shape) != 1 {
		panic("graph: Gather indices must be an int vector")
	}
	return g.add(&Node{
		Kind:   OpGather,
		Name:   fmt.Sprintf("gather(%s)", table.Name),
		Inputs: []*Node{table, indices},
		DType:  Float,
		Shape:  []int{indices.Shape[0], table.Shape[1]},
	})
}

// MatMul multiplies a [m,k] node by a [k,n] node.
func (g *Graph) MatMul(a, b *Node) *Node {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("graph: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	return g.add(&Node{
		Kind:   OpMatMul,
		Name:   fmt.Sprintf("matmul#%d", len(g.nodes)),
		Inputs: []*Node{a, b},
		DType:  Float,
		Shape:  []int{a.Shape[0], b.Shape[1]},
	})
}

// AddBias adds a [n] bias node to each row of a [m,n] node.
func (g *Graph) AddBias(x, bias *Node) *Node {
	if len(x.Shape) != 2 || len(bias.Shape) != 1 || x.Shape[1] != bias.Shape[0] {
		panic(fmt.Sprintf("graph: AddBias shape mismatch %v + %v", x.Shape, bias.Shape))
	}
	return g.add(&Node{
		Kind:   OpAddBias,
		Name:   fmt.Sprintf("addbias#%d", len(g.nodes)),
		Inputs: []*Node{x, bias},
		DType:  Float,
		Shape:  append([]int(nil), x.Shape...),
	})
}

// Add adds two same-shape nodes element-wise.
func (g *Graph) Add(a, b *Node) *Node {
	if len(a.Shape) != len(b.Shape) {
		panic(fmt.Sprintf("graph: Add shape mismatch %v + %v", a.Shape, b.Shape))
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			panic(fmt.Sprintf("graph: Add shape mismatch %v + %v", a.Shape, b.Shape))
		}
	}
	return g.add(&Node{
		Kind:   OpAdd,
		Name:   fmt.Sprintf("add#%d", len(g.nodes)),
		Inputs: []*Node{a, b},
		DType:  Float,
		Shape:  append([]int(nil), a.Shape...),
	})
}

// Relu applies max(x,0).
func (g *Graph) Relu(x *Node) *Node {
	return g.add(&Node{
		Kind: OpRelu, Name: fmt.Sprintf("relu#%d", len(g.nodes)),
		Inputs: []*Node{x}, DType: Float, Shape: append([]int(nil), x.Shape...),
	})
}

// Tanh applies tanh(x).
func (g *Graph) Tanh(x *Node) *Node {
	return g.add(&Node{
		Kind: OpTanh, Name: fmt.Sprintf("tanh#%d", len(g.nodes)),
		Inputs: []*Node{x}, DType: Float, Shape: append([]int(nil), x.Shape...),
	})
}

// ConcatCols concatenates [m,a] and [m,b] into [m,a+b].
func (g *Graph) ConcatCols(a, b *Node) *Node {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("graph: ConcatCols shape mismatch %v ++ %v", a.Shape, b.Shape))
	}
	return g.add(&Node{
		Kind:   OpConcatCols,
		Name:   fmt.Sprintf("concat#%d", len(g.nodes)),
		Inputs: []*Node{a, b},
		DType:  Float,
		Shape:  []int{a.Shape[0], a.Shape[1] + b.Shape[1]},
	})
}

// SoftmaxCE declares the scalar loss: mean softmax cross-entropy of logits
// [m, classes] against int labels [m]. It must be the graph's single loss.
func (g *Graph) SoftmaxCE(logits, labels *Node) *Node {
	if len(logits.Shape) != 2 || labels.DType != Int || len(labels.Shape) != 1 ||
		logits.Shape[0] != labels.Shape[0] {
		panic(fmt.Sprintf("graph: SoftmaxCE shape mismatch %v vs %v", logits.Shape, labels.Shape))
	}
	n := g.add(&Node{
		Kind:   OpSoftmaxCE,
		Name:   "loss",
		Inputs: []*Node{logits, labels},
		DType:  Float,
		Shape:  []int{},
	})
	if g.loss != nil {
		panic("graph: loss already set")
	}
	g.loss = n
	return n
}

// Validate checks structural invariants: a loss exists, node inputs precede
// their consumers (the builder guarantees this; Validate re-checks), and
// every variable is consumed.
func (g *Graph) Validate() error {
	if g.loss == nil {
		return fmt.Errorf("graph: no loss node; call SoftmaxCE")
	}
	used := make(map[int]bool)
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			if in.ID >= n.ID {
				return fmt.Errorf("graph: node %d(%s) consumes later node %d", n.ID, n.Name, in.ID)
			}
			used[in.ID] = true
		}
	}
	for _, v := range g.vars {
		if !used[v.node.ID] {
			return fmt.Errorf("graph: variable %q is never used", v.Name)
		}
	}
	return nil
}

// VarNode returns the graph node for a variable.
func (v *Variable) Node() *Node { return v.node }
