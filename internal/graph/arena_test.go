package graph_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"parallax/internal/graph"
	"parallax/internal/models"
	"parallax/internal/tensor"
)

// benchMLP is the repo benchmark's dense workload (bench/workload.go's
// buildMLP): 32 tanh layers of 64x64 + bias, 10 classes, batch 32.
func benchMLP() (*graph.Graph, graph.Feed) {
	rng := tensor.NewRNG(1)
	g := graph.New()
	h := g.Input("images", graph.Float, 32, 64)
	labels := g.Input("labels", graph.Int, 32)
	for l := 0; l < 32; l++ {
		w := g.Variable(fmt.Sprintf("layer%02d/kernel", l), rng.RandN(0.15, 64, 64))
		b := g.Variable(fmt.Sprintf("layer%02d/bias", l), tensor.NewDense(64))
		h = g.Tanh(g.AddBias(g.MatMul(h, w), b))
	}
	g.SoftmaxCE(g.MatMul(h, g.Variable("softmax/kernel", rng.RandN(0.15, 64, 10))), labels)
	lab := make([]int, 32)
	for i := range lab {
		lab[i] = i % 10
	}
	return g, graph.Feed{
		Floats: map[string]*tensor.Dense{"images": rng.RandN(1, 32, 64)},
		Ints:   map[string][]int{"labels": lab},
	}
}

func tinyLM(step int) (*graph.Graph, graph.Feed) {
	cfg := models.DefaultTinyLM()
	tokens, labels := make([]int, cfg.Batch), make([]int, cfg.Batch)
	for i := range tokens {
		tokens[i] = (7*i + 13*step) % cfg.Vocab
		labels[i] = (3*i + step) % cfg.Vocab
	}
	return models.BuildTinyLM(cfg), graph.Feed{Ints: map[string][]int{"tokens": tokens, "labels": labels}}
}

// From its second step on an Exec draws every dense tensor from its
// arena: the dense model allocates nothing, and the LM allocates only
// its one sparse gradient (the cloned values tensor, the Sparse and its
// rows), whose ownership leaves with the caller.
func TestExecSteadyStateAllocs(t *testing.T) {
	mlp, mlpFeed := benchMLP()
	lm, lmFeed := tinyLM(0)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		feed graph.Feed
		want float64
	}{
		{"mlp", mlp, mlpFeed, 0},
		{"tinylm", lm, lmFeed, 5},
	} {
		e, err := graph.NewExec(c.g)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(10, func() {
			if _, _, err := e.Step(c.feed); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations a step, want %v", c.name, got, c.want)
		}
	}
}

func bitsOf(t *tensor.Dense) []uint32 {
	out := make([]uint32, t.NumElements())
	for i, v := range t.Data() {
		out[i] = math.Float32bits(v)
	}
	return out
}

// The arena's lifetime rule. A dense gradient handed to onReady reads
// the same for the rest of its step and until the next Step begins —
// later backward work never reuses its buffer — and the next step then
// overwrites it in place. A sparse gradient is never drawn from the
// arena: the one taken from step s is byte-for-byte unchanged after
// step s+1.
func TestGradientLifetimes(t *testing.T) {
	g, feed0 := tinyLM(0)
	_, feed1 := tinyLM(1)
	e, err := graph.NewExec(g)
	if err != nil {
		t.Fatal(err)
	}
	atReady := map[string][]uint32{}
	_, gs, err := e.StepStream(feed0, func(name string, d *tensor.Dense, _ *tensor.Sparse) {
		if d != nil {
			atReady[name] = bitsOf(d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(atReady) != 3 {
		t.Fatalf("dense gradients seen for %d variables, want 3", len(atReady))
	}
	held := map[string]*tensor.Dense{}
	for name, d := range gs.Dense {
		if !slices.Equal(bitsOf(d), atReady[name]) {
			t.Errorf("dense gradient of %s changed between onReady and the end of its step", name)
		}
		held[name] = d
	}
	sp := gs.Sparse["embedding"]
	spRows := append([]int(nil), sp.Rows...)
	spVals := bitsOf(sp.Values)

	_, gs, err = e.Step(feed1)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range gs.Dense {
		if d != held[name] {
			t.Errorf("dense gradient of %s moved to a new tensor on the second step", name)
		}
	}
	if gs.Sparse["embedding"] == sp {
		t.Error("the second step handed out the first step's sparse gradient again")
	}
	if !slices.Equal(bitsOf(sp.Values), spVals) {
		t.Error("step s+1 changed the values of step s's sparse gradient")
	}
	for i, r := range sp.Rows {
		if r != spRows[i] {
			t.Fatal("step s+1 changed the rows of step s's sparse gradient")
		}
	}
}

// A step that fails after drawing part of the arena leaves nothing
// behind: the next good step gives the bits a fresh Exec gives.
func TestErroringStepLeavesNoTrace(t *testing.T) {
	// "labels" is declared after the hidden layer, so a step that lacks
	// it has gathered, multiplied and squashed into the arena before it
	// gives up.
	rng := tensor.NewRNG(5)
	g := graph.New()
	tokens := g.Input("tokens", graph.Int, 6)
	emb := g.Variable("emb", rng.RandN(0.1, 40, 36))
	w := g.Variable("w", rng.RandN(0.1, 36, 40))
	h := g.Tanh(g.MatMul(g.Gather(emb, tokens), w))
	g.SoftmaxCE(h, g.Input("labels", graph.Int, 6))
	feed := graph.Feed{Ints: map[string][]int{"tokens": {1, 5, 5, 9, 39, 0}, "labels": {0, 3, 7, 19, 2, 2}}}

	fresh, _ := graph.NewExec(g)
	wantLoss, want, err := fresh.Step(feed)
	if err != nil {
		t.Fatal(err)
	}

	e, _ := graph.NewExec(g)
	if _, _, err := e.Step(feed); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Step(graph.Feed{Ints: map[string][]int{"tokens": {2, 2, 2, 2, 2, 2}}}); err == nil {
		t.Fatal("missing feed accepted")
	}
	// No step updated the variables, so the same feed must give the
	// same bits again.
	gotLoss, got, err := e.Step(feed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Errorf("loss %v after an erroring step, fresh Exec gives %v", gotLoss, wantLoss)
	}
	if !slices.Equal(bitsOf(got.Dense["w"]), bitsOf(want.Dense["w"])) {
		t.Error("dense gradient of w differs from a fresh Exec's")
	}
	if !slices.Equal(bitsOf(got.Sparse["emb"].Values), bitsOf(want.Sparse["emb"].Values)) {
		t.Error("sparse gradient of emb differs from a fresh Exec's")
	}
}
