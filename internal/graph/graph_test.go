package graph

import (
	"math"
	"strings"
	"testing"

	"parallax/internal/tensor"
)

// buildTinyLM builds a small embedding -> hidden -> softmax model, the
// structural skeleton of the paper's LM: a sparse embedding variable plus
// dense projection variables.
func buildTinyLM(batch, vocab, dim, hidden int, rng *tensor.RNG) (*Graph, *Node, *Node) {
	g := New()
	tokens := g.Input("tokens", Int, batch)
	labels := g.Input("labels", Int, batch)
	var emb *Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, vocab, dim))
	})
	w1 := g.Variable("w1", rng.RandN(0.1, dim, hidden))
	b1 := g.Variable("b1", tensor.NewDense(hidden))
	w2 := g.Variable("w2", rng.RandN(0.1, hidden, vocab))

	h := g.Gather(emb, tokens)
	h = g.AddBias(g.MatMul(h, w1), b1)
	h = g.Tanh(h)
	logits := g.MatMul(h, w2)
	g.SoftmaxCE(logits, labels)
	return g, tokens, labels
}

func TestValidateRequiresLoss(t *testing.T) {
	g := New()
	rng := tensor.NewRNG(1)
	x := g.Input("x", Float, 2, 3)
	w := g.Variable("w", rng.RandN(1, 3, 4))
	g.MatMul(x, w)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "loss") {
		t.Fatalf("err = %v, want loss error", err)
	}
}

func TestValidateRejectsUnusedVariable(t *testing.T) {
	g := New()
	rng := tensor.NewRNG(1)
	x := g.Input("x", Float, 2, 3)
	w := g.Variable("w", rng.RandN(1, 3, 4))
	lbl := g.Input("y", Int, 2)
	g.Variable("orphan", rng.RandN(1, 2, 2))
	g.SoftmaxCE(g.MatMul(x, w), lbl)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Fatalf("err = %v, want unused-variable error", err)
	}
}

func TestGradKindClassification(t *testing.T) {
	rng := tensor.NewRNG(2)
	g, _, _ := buildTinyLM(4, 20, 8, 6, rng)
	byName := map[string]*Variable{}
	for _, v := range g.Variables() {
		byName[v.Name] = v
	}
	if k := g.GradKind(byName["embedding"]); k != GradSparse {
		t.Fatalf("embedding grad kind = %v, want sparse", k)
	}
	for _, name := range []string{"w1", "b1", "w2"} {
		if k := g.GradKind(byName[name]); k != GradDense {
			t.Fatalf("%s grad kind = %v, want dense", name, k)
		}
	}
}

func TestMixedUseVariableIsDense(t *testing.T) {
	// A variable consumed by both Gather and MatMul must be classified
	// dense (any dense consumer wins), matching TF semantics.
	g := New()
	rng := tensor.NewRNG(3)
	tokens := g.Input("tokens", Int, 2)
	labels := g.Input("labels", Int, 2)
	x := g.Input("x", Float, 2, 10)
	emb := g.Variable("emb", rng.RandN(0.1, 10, 5))
	a := g.Gather(emb, tokens) // sparse use
	b := g.MatMul(x, emb)      // dense use
	logits := g.Add(a, b)
	g.SoftmaxCE(logits, labels)
	if k := g.GradKind(g.Variables()[0]); k != GradDense {
		t.Fatalf("mixed-use grad kind = %v, want dense", k)
	}
	// And the executor must deliver a dense gradient.
	e, err := NewExec(g)
	if err != nil {
		t.Fatal(err)
	}
	_, gs, err := e.Step(Feed{
		Ints:   map[string][]int{"tokens": {1, 2}, "labels": {0, 3}},
		Floats: map[string]*tensor.Dense{"x": rng.RandN(0.5, 2, 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gs.Dense["emb"]; !ok {
		t.Fatal("mixed-use variable did not get dense gradient")
	}
}

func TestPartitionScopeMarksVariables(t *testing.T) {
	rng := tensor.NewRNG(4)
	g, _, _ := buildTinyLM(4, 20, 8, 6, rng)
	for _, v := range g.Variables() {
		if v.Name == "embedding" && v.PartitionScope != 0 {
			t.Fatalf("embedding scope = %d, want 0", v.PartitionScope)
		}
		if v.Name != "embedding" && v.PartitionScope != -1 {
			t.Fatalf("%s scope = %d, want -1", v.Name, v.PartitionScope)
		}
	}
}

func TestNestedPartitionerPanics(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nested partitioner")
		}
	}()
	g.InPartitioner(func() { g.InPartitioner(func() {}) })
}

func TestStepLossDecreasesUnderSGD(t *testing.T) {
	rng := tensor.NewRNG(5)
	g, _, _ := buildTinyLM(8, 30, 8, 8, rng)
	e, err := NewExec(g)
	if err != nil {
		t.Fatal(err)
	}
	data := tensor.NewRNG(99)
	feed := Feed{Ints: map[string][]int{
		"tokens": randInts(data, 8, 30),
		"labels": randInts(data, 8, 30),
	}}
	var first, last float64
	const lr = 0.5
	for it := 0; it < 60; it++ {
		loss, gs, err := e.Step(feed)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = loss
		}
		last = loss
		for name, d := range gs.Dense {
			e.VarValue(name).AXPY(-lr, d)
		}
		for name, sp := range gs.Sparse {
			tensor.ScatterAddSparse(e.VarValue(name), -lr, sp)
		}
	}
	if !(last < first*0.5) {
		t.Fatalf("loss did not halve under SGD on fixed batch: first=%v last=%v", first, last)
	}
}

func randInts(g *tensor.RNG, n, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = g.Intn(hi)
	}
	return out
}

// Gradient check: every variable's analytic gradient matches central
// finite differences of the loss.
func TestGradientsMatchFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(6)
	g, _, _ := buildTinyLM(3, 12, 4, 5, rng)
	e, err := NewExec(g)
	if err != nil {
		t.Fatal(err)
	}
	feed := Feed{Ints: map[string][]int{
		"tokens": {1, 5, 1},
		"labels": {2, 0, 7},
	}}
	_, gs, err := e.Step(feed)
	if err != nil {
		t.Fatal(err)
	}
	// The GradSet is only valid until the next Step call, and the
	// finite-difference probes below re-run Step many times: snapshot the
	// analytic gradients densely first.
	analyticGrads := map[string]*tensor.Dense{}
	for _, v := range e.Graph().Variables() {
		if d, ok := gs.Dense[v.Name]; ok {
			analyticGrads[v.Name] = d.Clone()
		} else {
			analyticGrads[v.Name] = gs.Sparse[v.Name].ToDense()
		}
	}
	const eps = 1e-2
	lossAt := func() float64 {
		l, _, err := e.Step(feed)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for _, v := range e.Graph().Variables() {
		val := e.VarValue(v.Name)
		dd := analyticGrads[v.Name]
		analytic := func(i int) float64 { return float64(dd.Data()[i]) }
		// Probe a handful of coordinates.
		probe := []int{0, 1, v.Init.NumElements() / 2, v.Init.NumElements() - 1}
		for _, i := range probe {
			orig := val.Data()[i]
			val.Data()[i] = orig + eps
			lp := lossAt()
			val.Data()[i] = orig - eps
			lm := lossAt()
			val.Data()[i] = orig
			fd := (lp - lm) / (2 * eps)
			if math.Abs(fd-analytic(i)) > 2e-2*(1+math.Abs(fd)) {
				t.Fatalf("var %s coord %d: analytic %v vs fd %v", v.Name, i, analytic(i), fd)
			}
		}
	}
}

func TestZeroGradForUntouchedStep(t *testing.T) {
	// All graph variables influence the loss here, but a sparse gradient
	// should only reference the gathered rows.
	rng := tensor.NewRNG(7)
	g, _, _ := buildTinyLM(2, 50, 4, 4, rng)
	e, _ := NewExec(g)
	_, gs, err := e.Step(Feed{Ints: map[string][]int{
		"tokens": {3, 3}, "labels": {1, 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sp := gs.Sparse["embedding"]
	if sp.NNZRows() != 2 {
		t.Fatalf("nnz rows = %d, want 2", sp.NNZRows())
	}
	for _, r := range sp.Rows {
		if r != 3 {
			t.Fatalf("gradient row %d, want 3", r)
		}
	}
	if a := tensor.AlphaOf(sp.Rows, 50); math.Abs(a-0.02) > 1e-9 {
		t.Fatalf("alpha = %v, want 0.02", a)
	}
}

func TestConcatColsForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(9)
	g := New()
	a := g.Input("a", Float, 2, 2)
	b := g.Input("b", Float, 2, 3)
	labels := g.Input("labels", Int, 2)
	w := g.Variable("w", rng.RandN(0.3, 5, 4))
	cat := g.ConcatCols(a, b)
	g.SoftmaxCE(g.MatMul(cat, w), labels)
	e, err := NewExec(g)
	if err != nil {
		t.Fatal(err)
	}
	loss, gs, err := e.Step(Feed{
		Floats: map[string]*tensor.Dense{
			"a": rng.RandN(1, 2, 2),
			"b": rng.RandN(1, 2, 3),
		},
		Ints: map[string][]int{"labels": {0, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	if gs.Dense["w"] == nil {
		t.Fatal("missing dense grad for w")
	}
}
