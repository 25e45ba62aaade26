package graph

import (
	"strings"
	"testing"

	"parallax/internal/tensor"
)

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpInput: "Input", OpVariable: "Variable", OpGather: "Gather",
		OpMatMul: "MatMul", OpAddBias: "AddBias", OpAdd: "Add",
		OpRelu: "Relu", OpTanh: "Tanh", OpConcatCols: "ConcatCols",
		OpSoftmaxCE: "SoftmaxCE",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if !strings.Contains(OpKind(99).String(), "OpKind") {
		t.Error("unknown op kind string")
	}
	if GradDense.String() != "dense" || GradSparse.String() != "sparse" || GradNone.String() != "none" {
		t.Error("bad GradKind strings")
	}
}

func TestBuilderShapePanics(t *testing.T) {
	rng := tensor.NewRNG(1)
	cases := []func(g *Graph){
		func(g *Graph) { // gather on rank-1
			v := g.Variable("v", rng.RandN(1, 4))
			g.Gather(v, g.Input("i", Int, 2))
		},
		func(g *Graph) { // gather with float indices
			v := g.Variable("v", rng.RandN(1, 4, 2))
			g.Gather(v, g.Input("i", Float, 2))
		},
		func(g *Graph) { // matmul mismatch
			g.MatMul(g.Input("a", Float, 2, 3), g.Input("b", Float, 4, 5))
		},
		func(g *Graph) { // addbias mismatch
			g.AddBias(g.Input("a", Float, 2, 3), g.Input("b", Float, 4))
		},
		func(g *Graph) { // add mismatch
			g.Add(g.Input("a", Float, 2, 3), g.Input("b", Float, 3, 2))
		},
		func(g *Graph) { // concat rows mismatch
			g.ConcatCols(g.Input("a", Float, 2, 3), g.Input("b", Float, 3, 3))
		},
		func(g *Graph) { // softmax label mismatch
			g.SoftmaxCE(g.Input("a", Float, 2, 3), g.Input("l", Int, 4))
		},
		func(g *Graph) { // double loss
			l := g.Input("l", Int, 2)
			x := g.Input("x", Float, 2, 3)
			g.SoftmaxCE(x, l)
			g.SoftmaxCE(x, l)
		},
	}
	for i, build := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			build(New())
		}()
	}
}

func TestStepFeedErrors(t *testing.T) {
	rng := tensor.NewRNG(2)
	g := New()
	tokens := g.Input("tokens", Int, 2)
	labels := g.Input("labels", Int, 2)
	x := g.Input("x", Float, 2, 4)
	emb := g.Variable("emb", rng.RandN(0.1, 10, 4))
	h := g.Add(g.Gather(emb, tokens), x)
	w := g.Variable("w", rng.RandN(0.1, 4, 5))
	g.SoftmaxCE(g.MatMul(h, w), labels)
	e, err := NewExec(g)
	if err != nil {
		t.Fatal(err)
	}
	good := Feed{
		Ints:   map[string][]int{"tokens": {1, 2}, "labels": {0, 1}},
		Floats: map[string]*tensor.Dense{"x": rng.RandN(1, 2, 4)},
	}
	if _, _, err := e.Step(good); err != nil {
		t.Fatal(err)
	}
	// Missing int feed.
	if _, _, err := e.Step(Feed{
		Ints:   map[string][]int{"labels": {0, 1}},
		Floats: good.Floats,
	}); err == nil || !strings.Contains(err.Error(), "tokens") {
		t.Errorf("missing int feed: err = %v", err)
	}
	// Wrong-length int feed.
	if _, _, err := e.Step(Feed{
		Ints:   map[string][]int{"tokens": {1}, "labels": {0, 1}},
		Floats: good.Floats,
	}); err == nil {
		t.Error("wrong-length feed accepted")
	}
	// Missing float feed.
	if _, _, err := e.Step(Feed{Ints: good.Ints}); err == nil || !strings.Contains(err.Error(), "x") {
		t.Errorf("missing float feed: err = %v", err)
	}
	// Mis-shaped float feeds — right element count in the wrong shape,
	// and a wrong row count — are refused by name before any op runs
	// (they used to panic inside the first kernel they reached).
	for _, shape := range [][]int{{4, 2}, {8}, {3, 4}} {
		_, _, err := e.Step(Feed{
			Ints:   good.Ints,
			Floats: map[string]*tensor.Dense{"x": tensor.NewDense(shape...)},
		})
		if err == nil || !strings.Contains(err.Error(), `"x"`) {
			t.Errorf("float feed of shape %v: err = %v", shape, err)
		}
	}
	if _, _, err := e.Step(good); err != nil {
		t.Errorf("good feed after refused ones: %v", err)
	}
}

func TestVarValueAccessors(t *testing.T) {
	rng := tensor.NewRNG(3)
	g := New()
	x := g.Input("x", Float, 1, 2)
	l := g.Input("l", Int, 1)
	w := g.Variable("w", rng.RandN(0.1, 2, 3))
	g.SoftmaxCE(g.MatMul(x, w), l)
	e, _ := NewExec(g)

	// VarValue hands out the variable's own storage.
	if e.VarValue("w") != e.VarValue("w") || e.VarValue("w").MaxAbsDiff(w.Var.Init) != 0 {
		t.Error("VarValue is not the variable's storage")
	}
	// Unknown variable panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on unknown variable")
			}
		}()
		e.VarValue("nope")
	}()
	if w.Var.Node() != w {
		t.Error("Variable.Node mismatch")
	}
}

func TestGatherFromIntermediateTensorDensifies(t *testing.T) {
	// Gather whose table is a computed tensor (not a variable) must route
	// a dense gradient through the table expression.
	rng := tensor.NewRNG(4)
	g := New()
	tokens := g.Input("tokens", Int, 2)
	labels := g.Input("labels", Int, 2)
	a := g.Variable("a", rng.RandN(0.1, 5, 3))
	b := g.Variable("b", rng.RandN(0.1, 5, 3))
	table := g.Add(a, b) // intermediate tensor
	g.SoftmaxCE(g.Gather(table, tokens), labels)
	e, err := NewExec(g)
	if err != nil {
		t.Fatal(err)
	}
	_, grads, err := e.Step(Feed{Ints: map[string][]int{"tokens": {1, 3}, "labels": {0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if grads.Dense["a"] == nil || grads.Dense["b"] == nil {
		t.Fatal("gather through intermediate did not produce dense grads")
	}
	// Both variables feed Add, so both must be classified dense.
	for _, v := range g.Variables() {
		if g.GradKind(v) != GradDense {
			t.Errorf("%s: kind %v, want dense", v.Name, g.GradKind(v))
		}
	}
}
