package graph

import (
	"math"
	"slices"
	"strings"
	"testing"

	"parallax/internal/tensor"
)

// buildTwoInputTable gathers ONE vocab-row table through two index
// inputs, next to a dense projection.
func buildTwoInputTable(batch, vocab, dim, classes int) *Graph {
	rng := tensor.NewRNG(21)
	g := New()
	a := g.Input("a", Int, batch)
	b := g.Input("b", Int, batch)
	labels := g.Input("labels", Int, batch)
	emb := g.Variable("emb", rng.RandN(0.1, vocab, dim))
	out := g.Variable("out", rng.RandN(0.1, 2*dim, classes))
	h := g.Tanh(g.ConcatCols(g.Gather(emb, a), g.Gather(emb, b)))
	g.SoftmaxCE(g.MatMul(h, out), labels)
	return g
}

func sameBits(x, y []float32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}

// A row-addressed executor — the table stored as just the rows one step
// gathers, packed in ascending id order — computes the same loss and the
// same gradient, bit for bit, as one holding the whole table, step after
// step as the table changes: the feeds repeat ids within and across the
// two inputs and name both edge rows of the table.
func TestRowAddressedExecBitIdenticalToFull(t *testing.T) {
	const batch, vocab, dim, classes, lr = 5, 40, 6, 7, 0.3
	g := buildTwoInputTable(batch, vocab, dim, classes)
	full, err := NewExec(g)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := NewExec(g, "emb")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.VarValue("emb").Shape(); !slices.Equal(got, []int{2 * batch, dim}) {
		t.Fatalf("row-addressed storage is %v, want [%d %d]", got, 2*batch, dim)
	}
	data := tensor.NewRNG(5)
	var ids []int
	for step := 0; step < 6; step++ {
		a, b := randInts(data, batch, vocab), randInts(data, batch, vocab)
		a[1], b[0], b[3] = a[0], a[0], b[2] // duplicates within and across inputs
		a[4], b[4] = 0, vocab-1             // both edges of the table
		feed := Feed{Ints: map[string][]int{"a": a, "b": b, "labels": randInts(data, batch, classes)}}

		// Bind the step's rows and fill them from the whole table, as the
		// trainer's pull fills them from the servers.
		ids = append(append(ids[:0], a...), b...)
		slices.Sort(ids)
		ids = slices.Compact(ids)
		if err := rows.SetRows("emb", ids); err != nil {
			t.Fatal(err)
		}
		packed := rows.VarValue("emb")
		tensor.GatherInto(packed.SliceRows(0, len(ids)), full.VarValue("emb"), ids)
		copy(rows.VarValue("out").Data(), full.VarValue("out").Data())

		lf, gf, err := full.Step(feed)
		if err != nil {
			t.Fatal(err)
		}
		lp, gp, err := rows.Step(feed)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(lf) != math.Float64bits(lp) {
			t.Fatalf("step %d: loss %v row-addressed, %v full", step, lp, lf)
		}
		if !sameBits(gp.Dense["out"].Data(), gf.Dense["out"].Data()) {
			t.Fatalf("step %d: dense gradient of out differs", step)
		}
		sf, sr := gf.Sparse["emb"], gp.Sparse["emb"]
		if !slices.Equal(sr.Rows, sf.Rows) || sr.Dim0 != sf.Dim0 || !sameBits(sr.Values.Data(), sf.Values.Data()) {
			t.Fatalf("step %d: sparse gradient of emb differs: rows %v vs %v", step, sr.Rows, sf.Rows)
		}
		full.VarValue("out").AXPY(-lr, gf.Dense["out"])
		tensor.ScatterAddSparse(full.VarValue("emb"), -lr, sf)
	}
}

// An id the feed gathers but SetRows did not bind is a Step error, not a
// panic or a read of another row; so is a step before any binding.
func TestRowAddressedExecRefusesUnboundID(t *testing.T) {
	g := buildTwoInputTable(2, 10, 3, 4)
	e, err := NewExec(g, "emb")
	if err != nil {
		t.Fatal(err)
	}
	feed := Feed{Ints: map[string][]int{"a": {1, 9}, "b": {4, 1}, "labels": {0, 3}}}
	if _, _, err := e.Step(feed); err == nil || !strings.Contains(err.Error(), "SetRows did not bind") {
		t.Fatalf("step before SetRows: err = %v", err)
	}
	if err := e.SetRows("emb", []int{1, 4}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Step(feed); err == nil || !strings.Contains(err.Error(), "emb row 9") {
		t.Fatalf("unbound id 9: err = %v", err)
	}
	if err := e.SetRows("emb", []int{1, 4, 9}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Step(feed); err != nil {
		t.Fatalf("every id bound: %v", err)
	}
	for name, c := range map[string]struct {
		v   string
		ids []int
	}{
		"not row-addressed": {"out", []int{0}},
		"descending":        {"emb", []int{4, 1}},
		"duplicate":         {"emb", []int{4, 4}},
		"past the table":    {"emb", []int{10}},
		"more than stored":  {"emb", []int{0, 1, 2, 3, 4}},
	} {
		if err := e.SetRows(c.v, c.ids); err == nil {
			t.Errorf("SetRows %s: accepted %v", name, c.ids)
		}
	}
}

// NewExec stores a variable row-addressed only where the graph gathers
// it and nothing else: a table the graph also reads densely, a dense
// variable, an unknown name or a name given twice is refused.
func TestNewExecRefusesNonRowAddressable(t *testing.T) {
	rng := tensor.NewRNG(3)
	g := New()
	tokens := g.Input("tokens", Int, 2)
	bag := g.Input("bag", Float, 2, 10)
	labels := g.Input("labels", Int, 2)
	emb := g.Variable("emb", rng.RandN(0.1, 10, 4))
	out := g.Variable("out", rng.RandN(0.1, 4, 3))
	g.SoftmaxCE(g.MatMul(g.Add(g.Gather(emb, tokens), g.MatMul(bag, emb)), out), labels)
	for _, name := range []string{"emb", "out", "ghost"} {
		if _, err := NewExec(g, name); err == nil {
			t.Errorf("NewExec accepted %q as row-addressed", name)
		}
	}
	if g.GatherInputs(g.Variables()[0]) != nil {
		t.Error("a densely read table has gather inputs")
	}
	two := buildTwoInputTable(2, 10, 3, 4)
	if _, err := NewExec(two, "emb", "emb"); err == nil {
		t.Error("NewExec accepted a variable named twice")
	}
	if ins := two.GatherInputs(two.Variables()[0]); len(ins) != 2 || ins[0].Name != "a" || ins[1].Name != "b" {
		t.Errorf("gather inputs of the two-input table: %v", ins)
	}
}
