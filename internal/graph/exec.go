package graph

import (
	"fmt"
	"slices"

	"parallax/internal/tensor"
)

// Feed supplies per-step input values by input-node name.
type Feed struct {
	Floats map[string]*tensor.Dense
	Ints   map[string][]int
}

// GradSet is the result of a backward pass: one gradient per variable,
// either dense or sparse according to the variable's usage. It is the Go
// analogue of the variable→gradient mapping Parallax records in
// MetaGraphDef (§5).
type GradSet struct {
	Dense  map[string]*tensor.Dense
	Sparse map[string]*tensor.Sparse
}

// NewGradSet returns an empty gradient set.
func NewGradSet() *GradSet {
	return &GradSet{Dense: map[string]*tensor.Dense{}, Sparse: map[string]*tensor.Sparse{}}
}

// Exec evaluates a graph with real tensors: it owns the variable storage
// and runs forward+backward steps. One Exec corresponds to one model
// replica (one "GPU" in the paper's terms). An Exec is a persistent
// runtime object: it keeps its per-step scratch tables and its dense
// scratch tensors between steps, so it must only be driven by one
// goroutine at a time.
//
// A variable is stored whole, or — when NewExec names it among its
// rowVars — row-addressed: its storage then holds only the rows one
// step gathers, packed in the ascending order of the ids SetRows binds,
// so a replica of an embedding costs a batch, not the vocabulary. The
// backward pass does not care which: a gathered table's gradient is
// built from the feed's global ids either way.
type Exec struct {
	g      *Graph
	values map[string]*tensor.Dense // variable storage by name

	// rows[name] is a row-addressed variable's binding, and rowOf[id]
	// the same binding by the variable's node ID (nil for variables
	// stored whole); slotIdx[id] is a gather node's per-step scratch of
	// storage slots, allocated only for gathers of row-addressed tables.
	rows    map[string]*rowBinding
	rowOf   []*rowBinding
	slotIdx [][]int

	// Per-step scratch, reused across Step calls.
	floats    []*tensor.Dense
	ints      [][]int
	denseGrad []*tensor.Dense
	varSparse map[string][]*tensor.Sparse
	grads     *GradSet
	varAt     []*Variable // node ID -> variable, nil for non-variable nodes

	// arena holds every dense tensor a step computes — forward outputs,
	// backward temporaries, dense gradients. The graph is static, so
	// each step asks for the same shapes in the same order: drawn
	// counts the step's requests so far and request i is served by
	// arena[i], allocated the first time a step gets that far.
	arena []*tensor.Dense
	drawn int
}

// rowBinding says which rows a row-addressed variable's storage holds:
// storage row k is the variable's row ids[k].
type rowBinding struct {
	v   *Variable
	ids []int // strictly ascending, borrowed from SetRows
}

// slots maps global row ids to the storage slots they are bound to,
// into out; an id the binding does not hold is an error.
func (b *rowBinding) slots(out, ids []int) ([]int, error) {
	for i, id := range ids {
		k, ok := slices.BinarySearch(b.ids, id)
		if !ok {
			return nil, fmt.Errorf("graph: gather of %s row %d, which SetRows did not bind", b.v.Name, id)
		}
		out[i] = k
	}
	return out, nil
}

// NewExec creates an executor with variables initialized from their Init
// tensors. It returns an error if the graph is invalid.
//
// rowVars names variables to store row-addressed: each must be one the
// graph only gathers, by graph inputs (Graph.GatherInputs), and gets
// storage of Σ(index-input lengths) rows — every row one step can
// gather — instead of a clone of its Init. Its rows hold nothing until
// SetRows binds them and the caller fills them (the trainer pulls them
// from the parameter servers).
func NewExec(g *Graph, rowVars ...string) (*Exec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	e := &Exec{
		g: g, values: make(map[string]*tensor.Dense, len(g.vars)),
		rows: map[string]*rowBinding{}, rowOf: make([]*rowBinding, len(g.nodes)), slotIdx: make([][]int, len(g.nodes)),
	}
	for _, name := range rowVars {
		i := slices.IndexFunc(g.vars, func(v *Variable) bool { return v.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("graph: row-addressed variable %q is not in the graph", name)
		}
		if e.rows[name] != nil {
			return nil, fmt.Errorf("graph: row-addressed variable %q named twice", name)
		}
		v := g.vars[i]
		ins := g.GatherInputs(v)
		if ins == nil {
			return nil, fmt.Errorf("graph: variable %q cannot be row-addressed: the graph reads it other than by gathering graph inputs", name)
		}
		capacity := 0
		for _, in := range ins {
			capacity += in.Shape[0]
		}
		e.values[name] = tensor.NewDense(capacity, v.Shape[1])
		e.rows[name] = &rowBinding{v: v}
		e.rowOf[v.node.ID] = e.rows[name]
	}
	for _, v := range g.vars {
		if e.rows[v.Name] == nil {
			e.values[v.Name] = v.Init.Clone()
		}
	}
	for _, n := range g.nodes {
		if n.Kind == OpGather && e.rowOf[n.Inputs[0].ID] != nil {
			e.slotIdx[n.ID] = make([]int, n.Inputs[1].Shape[0])
		}
	}
	return e, nil
}

// Graph returns the executor's graph.
func (e *Exec) Graph() *Graph { return e.g }

// SetRows binds the rows a row-addressed variable's storage holds until
// the next SetRows for it: storage row k is the variable's row ids[k].
// ids must be strictly ascending row ids of the variable, no more of
// them than the storage has rows, and must name every id the next
// steps' feeds gather from it; Step fails on one it does not. ids is
// borrowed until the next call.
func (e *Exec) SetRows(name string, ids []int) error {
	b, ok := e.rows[name]
	if !ok {
		return fmt.Errorf("graph: variable %q is not row-addressed", name)
	}
	if held := e.values[name].Dim(0); len(ids) > held {
		return fmt.Errorf("graph: %d rows of %s bound, its storage holds %d", len(ids), name, held)
	}
	rows := b.v.Shape[0]
	for k, id := range ids {
		if id < 0 || id >= rows || k > 0 && id <= ids[k-1] {
			return fmt.Errorf("graph: rows bound to %s are not strictly ascending ids in [0,%d): %d at %d", name, rows, id, k)
		}
	}
	b.ids = ids
	return nil
}

// VarValue returns the current value of a variable (live storage, not a
// copy). The runtimes use it to apply updates and synchronize replicas.
// A row-addressed variable's value is its packed storage: SetRows says
// which rows it holds.
func (e *Exec) VarValue(name string) *tensor.Dense {
	v, ok := e.values[name]
	if !ok {
		panic(fmt.Sprintf("graph: unknown variable %q", name))
	}
	return v
}

// GradReady observes one variable's gradient the moment the backward
// sweep finishes it: exactly one of dense/sparse is non-nil, and the
// tensors are the same ones placed in the step's GradSet. See StepStream
// for the ordering contract.
type GradReady func(name string, dense *tensor.Dense, sparse *tensor.Sparse)

// Step runs one forward+backward pass with the given feed and returns the
// loss and per-variable gradients.
//
// The returned GradSet and the dense gradients in it are owned by the
// executor and reused: they are valid only until the next Step call
// begins, so a caller that needs one longer copies it. Sparse gradients
// are freshly built each step and belong to the caller, who may hand
// them off (e.g. to a parameter server or an aggregation slot) and keep
// them across steps.
func (e *Exec) Step(feed Feed) (float64, *GradSet, error) {
	return e.StepStream(feed, nil)
}

// scratch returns the step's next dense scratch tensor, of the given
// shape and with unspecified contents: every use overwrites it.
func (e *Exec) scratch(shape ...int) *tensor.Dense {
	i := e.drawn
	e.drawn++
	if i == len(e.arena) {
		e.arena = append(e.arena, tensor.NewDense(shape...))
	} else if !slices.Equal(e.arena[i].Shape(), shape) {
		// Feeds are shape-checked against a static graph before anything
		// is drawn, so only a bug in the sweep can get here.
		// (Printing a copy keeps shape itself on the caller's stack.)
		panic(fmt.Sprintf("graph: scratch request %d wants %v, last step drew %v", i, slices.Clone(shape), e.arena[i].Shape()))
	}
	return e.arena[i]
}

// scratchCopy returns a scratch tensor holding a copy of t.
func (e *Exec) scratchCopy(t *tensor.Dense) *tensor.Dense {
	out := e.scratch(t.Shape()...)
	copy(out.Data(), t.Data())
	return out
}

// StepStream is Step with a gradient-ready callback: onReady (when
// non-nil) fires for every variable as soon as its gradient is final,
// while the backward sweep over earlier layers is still running. This is
// the hook the distributed trainer uses to overlap gradient
// synchronization with the remaining backward compute (the paper's §4.3
// transformation made pipeline-aware).
//
// Contract: the sweep visits nodes in reverse construction order, and a
// variable's gradient receives contributions only from consumer nodes,
// which the builder guarantees come later in construction order — so when
// the sweep reaches the variable's own node, its gradient is complete.
// onReady therefore fires exactly once per variable, in reverse
// declaration order, synchronously on the calling goroutine. The same
// deterministic order holds on every replica of the graph, which is what
// lets every worker dispatch collectives in ready order without a
// schedule rendezvous.
func (e *Exec) StepStream(feed Feed, onReady GradReady) (float64, *GradSet, error) {
	if e.floats == nil {
		e.floats = make([]*tensor.Dense, len(e.g.nodes))
		e.ints = make([][]int, len(e.g.nodes))
		e.denseGrad = make([]*tensor.Dense, len(e.g.nodes))
		e.varSparse = make(map[string][]*tensor.Sparse)
		e.grads = NewGradSet()
		e.varAt = make([]*Variable, len(e.g.nodes))
		for _, v := range e.g.vars {
			e.varAt[v.node.ID] = v
		}
	}
	floats, ints := e.floats, e.ints
	clear(floats)
	clear(ints)
	e.drawn = 0

	// Forward pass in construction (topological) order.
	var loss float64
	var lossGrad *tensor.Dense // d(loss)/d(logits), computed with the loss
	for _, n := range e.g.nodes {
		switch n.Kind {
		case OpInput:
			if n.DType == Int {
				v, ok := feed.Ints[n.Name]
				if !ok {
					return 0, nil, fmt.Errorf("graph: missing int feed %q", n.Name)
				}
				if len(v) != n.Shape[0] {
					return 0, nil, fmt.Errorf("graph: feed %q has %d entries, want %d", n.Name, len(v), n.Shape[0])
				}
				ints[n.ID] = v
			} else {
				v, ok := feed.Floats[n.Name]
				if !ok {
					return 0, nil, fmt.Errorf("graph: missing float feed %q", n.Name)
				}
				if !slices.Equal(v.Shape(), n.Shape) {
					return 0, nil, fmt.Errorf("graph: feed %q has shape %v, want %v", n.Name, v.Shape(), n.Shape)
				}
				floats[n.ID] = v
			}
		case OpVariable:
			floats[n.ID] = e.values[n.Name]
		case OpGather:
			table, idx := floats[n.Inputs[0].ID], ints[n.Inputs[1].ID]
			if b := e.rowOf[n.Inputs[0].ID]; b != nil {
				var err error
				if idx, err = b.slots(e.slotIdx[n.ID], idx); err != nil {
					return 0, nil, err
				}
			}
			floats[n.ID] = tensor.GatherInto(e.scratch(len(idx), table.RowWidth()), table, idx)
		case OpMatMul:
			a, b := floats[n.Inputs[0].ID], floats[n.Inputs[1].ID]
			floats[n.ID] = tensor.MatMulInto(e.scratch(a.Dim(0), b.Dim(1)), a, b)
		case OpAddBias:
			out := e.scratchCopy(floats[n.Inputs[0].ID])
			tensor.AddBiasRows(out, floats[n.Inputs[1].ID])
			floats[n.ID] = out
		case OpAdd:
			out := e.scratchCopy(floats[n.Inputs[0].ID])
			out.AddInto(floats[n.Inputs[1].ID])
			floats[n.ID] = out
		case OpRelu:
			x := floats[n.Inputs[0].ID]
			floats[n.ID] = tensor.ReluForwardInto(e.scratch(x.Shape()...), x)
		case OpTanh:
			x := floats[n.Inputs[0].ID]
			floats[n.ID] = tensor.TanhForwardInto(e.scratch(x.Shape()...), x)
		case OpConcatCols:
			a, b := floats[n.Inputs[0].ID], floats[n.Inputs[1].ID]
			m, wa, wb := a.Dim(0), a.Dim(1), b.Dim(1)
			out := e.scratch(m, wa+wb)
			for i := 0; i < m; i++ {
				copy(out.Data()[i*(wa+wb):], a.Data()[i*wa:(i+1)*wa])
				copy(out.Data()[i*(wa+wb)+wa:], b.Data()[i*wb:(i+1)*wb])
			}
			floats[n.ID] = out
		case OpSoftmaxCE:
			logits := floats[n.Inputs[0].ID]
			labels := ints[n.Inputs[1].ID]
			lossGrad = e.scratch(logits.Shape()...)
			loss = tensor.SoftmaxCrossEntropyInto(lossGrad, logits, labels)
		default:
			return 0, nil, fmt.Errorf("graph: cannot execute op %v", n.Kind)
		}
	}

	// Backward pass in reverse order. denseGrad[id] accumulates dense
	// output-gradients; sparse contributions flow straight into varSparse.
	denseGrad, varSparse := e.denseGrad, e.varSparse
	clear(denseGrad)
	for k, l := range varSparse {
		clear(l)
		varSparse[k] = l[:0]
	}
	// addOwned accumulates g, a scratch tensor nothing else refers to,
	// into n's output-gradient: the first contribution becomes the
	// gradient itself. addDense is for a g someone else still reads.
	addOwned := func(n *Node, g *tensor.Dense) {
		if denseGrad[n.ID] == nil {
			denseGrad[n.ID] = g
		} else {
			denseGrad[n.ID].AddInto(g)
		}
	}
	addDense := func(n *Node, g *tensor.Dense) {
		if denseGrad[n.ID] == nil {
			g = e.scratchCopy(g)
		}
		addOwned(n, g)
	}

	// Per-variable gradients are assembled inline, the moment the sweep
	// passes the variable's node (all its consumers are behind the sweep
	// by then), so onReady can stream them out mid-backprop.
	gs := e.grads
	clear(gs.Dense)
	clear(gs.Sparse)

	for i := len(e.g.nodes) - 1; i >= 0; i-- {
		n := e.g.nodes[i]
		if n.Kind == OpSoftmaxCE {
			addOwned(n.Inputs[0], lossGrad)
			continue
		}
		if v := e.varAt[n.ID]; v != nil {
			e.assembleVarGrad(v, onReady)
			continue
		}
		dy := denseGrad[n.ID]
		if dy == nil {
			continue // node does not influence the loss
		}
		switch n.Kind {
		case OpInput:
			// leaf
		case OpGather:
			table, idx := n.Inputs[0], ints[n.Inputs[1].ID]
			sp := tensor.NewSparse(idx, dy.Clone(), table.Shape[0])
			if table.Kind == OpVariable {
				varSparse[table.Name] = append(varSparse[table.Name], sp)
			} else {
				// Gather from an intermediate tensor: densify.
				addOwned(table, sp.ToDense())
			}
		case OpMatMul:
			a, b := floats[n.Inputs[0].ID], floats[n.Inputs[1].ID]
			addOwned(n.Inputs[0], tensor.MatMulT2Into(e.scratch(a.Shape()...), dy, b))
			addOwned(n.Inputs[1], tensor.MatMulT1Into(e.scratch(b.Shape()...), a, dy))
		case OpAddBias:
			addDense(n.Inputs[0], dy)
			addOwned(n.Inputs[1], tensor.SumRowsInto(e.scratch(dy.Dim(1)), dy))
		case OpAdd:
			addDense(n.Inputs[0], dy)
			addDense(n.Inputs[1], dy)
		case OpRelu:
			addOwned(n.Inputs[0], tensor.ReluBackwardInto(e.scratch(dy.Shape()...), floats[n.Inputs[0].ID], dy))
		case OpTanh:
			addOwned(n.Inputs[0], tensor.TanhBackwardInto(e.scratch(dy.Shape()...), floats[n.ID], dy))
		case OpConcatCols:
			a, b := n.Inputs[0], n.Inputs[1]
			m, wa, wb := a.Shape[0], a.Shape[1], b.Shape[1]
			da := e.scratch(m, wa)
			db := e.scratch(m, wb)
			for r := 0; r < m; r++ {
				copy(da.Data()[r*wa:(r+1)*wa], dy.Data()[r*(wa+wb):r*(wa+wb)+wa])
				copy(db.Data()[r*wb:(r+1)*wb], dy.Data()[r*(wa+wb)+wa:(r+1)*(wa+wb)])
			}
			addOwned(a, da)
			addOwned(b, db)
		default:
			return 0, nil, fmt.Errorf("graph: no backward for op %v", n.Kind)
		}
	}

	return loss, gs, nil
}

// assembleVarGrad finalizes one variable's gradient, honoring the static
// GradKind — a variable with any dense contribution gets a dense gradient
// (sparse parts densified), otherwise the concatenated sparse gradient —
// records it in the step's GradSet, and notifies onReady.
func (e *Exec) assembleVarGrad(v *Variable, onReady GradReady) {
	gs := e.grads
	d := e.denseGrad[v.node.ID]
	sps := e.varSparse[v.Name]
	switch {
	case d == nil && len(sps) == 0:
		// Variable did not influence this step's loss: contribute an
		// explicit zero so synchronization stays uniform.
		if e.g.GradKind(v) == GradSparse {
			gs.Sparse[v.Name] = tensor.NewSparse(nil, tensor.NewDense(0, v.Shape[1]), v.Shape[0])
		} else {
			zero := e.scratch(v.Shape...)
			zero.Zero()
			gs.Dense[v.Name] = zero
		}
	case d == nil && len(sps) == 1:
		gs.Sparse[v.Name] = sps[0] // already a fresh tensor of its own
	case d == nil:
		gs.Sparse[v.Name] = tensor.ConcatSparse(sps)
	default:
		for _, sp := range sps {
			d.AddInto(sp.ToDense())
		}
		gs.Dense[v.Name] = d
	}
	if onReady != nil {
		onReady(v.Name, gs.Dense[v.Name], gs.Sparse[v.Name])
	}
}
