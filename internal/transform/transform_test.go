package transform

import (
	"math"
	"testing"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/data"
	"parallax/internal/graph"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/tensor"
)

// planFor builds a plan for graph g's variables using measured alphas of 0.1
// for sparse variables (the value is irrelevant for real-mode correctness).
func planFor(t *testing.T, g *graph.Graph, arch core.Arch, machines, parts int) *core.Plan {
	t.Helper()
	var vars []core.VarInfo
	for _, v := range g.Variables() {
		alpha := 1.0
		sparse := g.GradKind(v) == graph.GradSparse
		if sparse {
			alpha = 0.1
		}
		vars = append(vars, core.VarInfo{
			Name: v.Name, Rows: int64(v.Shape[0]), Width: int64(varWidth(v)),
			Sparse: sparse, Alpha: alpha, PartitionTarget: v.PartitionScope >= 0,
		})
	}
	plan, err := core.BuildPlan(vars, core.Options{
		Arch: arch, NumMachines: machines, SparsePartitions: parts, SmartPlacement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func varWidth(v *graph.Variable) int {
	if len(v.Shape) < 2 {
		return 1
	}
	w := 1
	for _, d := range v.Shape[1:] {
		w *= d
	}
	return w
}

// lmFeeds builds per-worker feeds plus the equivalent single concatenated
// batch.
func lmFeeds(workers, batch, vocab int, seed int64) ([]graph.Feed, graph.Feed) {
	rng := tensor.NewRNG(seed)
	feeds := make([]graph.Feed, workers)
	var allTok, allLbl []int
	for w := range feeds {
		tok := make([]int, batch)
		lbl := make([]int, batch)
		for i := range tok {
			tok[i] = rng.Intn(vocab)
			lbl[i] = rng.Intn(vocab)
		}
		feeds[w] = graph.Feed{Ints: map[string][]int{"tokens": tok, "labels": lbl}}
		allTok = append(allTok, tok...)
		allLbl = append(allLbl, lbl...)
	}
	return feeds, graph.Feed{Ints: map[string][]int{"tokens": allTok, "labels": allLbl}}
}

// clipSequential scales every gradient in gs so their joint L2 norm is
// at most maxNorm: the single-GPU reference for the trainer's ClipNorm.
func clipSequential(gs *graph.GradSet, maxNorm float64) {
	var norm2 float64
	for _, d := range gs.Dense {
		norm2 += d.L2NormSquared()
	}
	for _, sp := range gs.Sparse {
		norm2 += sp.L2NormSquared()
	}
	if norm := math.Sqrt(norm2); norm > maxNorm {
		scale := float32(maxNorm / norm)
		for _, d := range gs.Dense {
			d.Scale(scale)
		}
		for _, sp := range gs.Sparse {
			sp.Scale(scale)
		}
	}
}

// trainSequential runs the mathematically equivalent single-GPU training:
// same initial variables, concatenated batch, same learning rate.
func trainSequential(t *testing.T, cfg models.TinyLMConfig, workers, steps int, lr float32, seed int64) map[string]*tensor.Dense {
	t.Helper()
	big := cfg
	big.Batch = cfg.Batch * workers
	g := models.BuildTinyLM(big)
	e, err := graph.NewExec(g)
	if err != nil {
		t.Fatal(err)
	}
	opt := optim.NewSGD(lr)
	for s := 0; s < steps; s++ {
		_, feed := lmFeeds(workers, cfg.Batch, cfg.Vocab, seed+int64(s))
		_, grads, err := e.Step(feed)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range grads.Dense {
			opt.ApplyDense(name, e.VarValue(name), d)
		}
		for name, sp := range grads.Sparse {
			opt.ApplySparse(name, e.VarValue(name), sp)
		}
	}
	out := map[string]*tensor.Dense{}
	for _, v := range g.Variables() {
		out[v.Name] = e.VarValue(v.Name).Clone()
	}
	return out
}

// trainDistributed runs the same problem through the trainer.
func trainDistributed(t *testing.T, cfg models.TinyLMConfig, arch core.Arch, ri cluster.ResourceInfo,
	parts, steps int, lr float32, localAgg bool, seed int64) map[string]*tensor.Dense {
	t.Helper()
	g := models.BuildTinyLM(cfg)
	plan := planFor(t, g, arch, ri.NumMachines(), parts)
	tr, err := New(g, Options{
		Plan:     plan,
		Resource: ri,
		NewOptimizer: func() optim.Optimizer {
			return optim.NewSGD(lr)
		},
		LocalAggregation: localAgg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, seed+int64(s))
		if _, err := tr.Step(feeds); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]*tensor.Dense{}
	for _, v := range g.Variables() {
		val, err := tr.VarValue(v.Name)
		if err != nil {
			t.Fatal(err)
		}
		out[v.Name] = val
	}
	return out
}

// The central correctness claim (§4.3: transformation preserves
// "correctness"): distributed training under every architecture produces
// the same variable trajectories as the equivalent single-GPU run.
//
// With mean aggregation over W workers of per-worker-mean gradients, the
// update equals single-GPU training on the concatenated batch of W·b
// examples.
func TestDistributedMatchesSequential(t *testing.T) {
	cfg := models.TinyLMConfig{Vocab: 60, Dim: 8, Hidden: 12, Batch: 6, Seed: 7}
	const steps = 4
	const lr = 0.4
	const seed = 1000
	ri := cluster.Uniform(2, 2) // 2 machines x 2 GPUs
	want := trainSequential(t, cfg, ri.TotalGPUs(), steps, lr, seed)

	for _, tc := range []struct {
		name     string
		arch     core.Arch
		parts    int
		localAgg bool
	}{
		{"hybrid", core.ArchHybrid, 3, false},
		{"hybrid+localagg", core.ArchHybrid, 3, true},
		{"pure-AR", core.ArchAR, 1, false},
		{"naive-PS", core.ArchNaivePS, 1, false},
		{"opt-PS", core.ArchOptPS, 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := trainDistributed(t, cfg, tc.arch, ri, tc.parts, steps, lr, tc.localAgg, seed)
			for name, w := range want {
				diff := got[name].MaxAbsDiff(w)
				if diff > 2e-4 {
					t.Errorf("variable %s diverged from sequential by %v", name, diff)
				}
			}
		})
	}
}

func TestAllReplicasAgreeOnARVariables(t *testing.T) {
	cfg := models.DefaultTinyLM()
	cfg.Vocab, cfg.Batch = 50, 4
	g := models.BuildTinyLM(cfg)
	ri := cluster.Uniform(3, 1)
	plan := planFor(t, g, core.ArchHybrid, 3, 2)
	tr, err := New(g, Options{
		Plan: plan, Resource: ri,
		NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.2) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		feeds, _ := lmFeeds(3, 4, 50, int64(s))
		if _, err := tr.Step(feeds); err != nil {
			t.Fatal(err)
		}
	}
	// TinyLM's dense variables, the ones the hybrid plan all-reduces.
	for _, name := range []string{"lstm/kernel", "lstm/bias", "softmax/kernel"} {
		ref := tr.local[0].exec.VarValue(name)
		for w := 1; w < 3; w++ {
			if tr.local[w].exec.VarValue(name).MaxAbsDiff(ref) > 1e-6 {
				t.Errorf("replica %d variable %s out of sync", w, name)
			}
		}
	}
}

func TestLossDecreasesUnderHybridTraining(t *testing.T) {
	cfg := models.DefaultTinyLM()
	g := models.BuildTinyLM(cfg)
	ri := cluster.Uniform(2, 2)
	plan := planFor(t, g, core.ArchHybrid, 2, 4)
	tr, err := New(g, Options{
		Plan: plan, Resource: ri,
		NewOptimizer:     func() optim.Optimizer { return optim.NewSGD(0.5) },
		LocalAggregation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewZipfText(cfg.Vocab, cfg.Batch, 1, 1.0, 5)
	shards := make([]data.Dataset, tr.Workers())
	for w := range shards {
		shards[w] = data.NewShard(data.NewZipfText(cfg.Vocab, cfg.Batch, 1, 1.0, 5), w, tr.Workers())
	}
	_ = ds
	var first, last float64
	for s := 0; s < 30; s++ {
		feeds := make([]graph.Feed, tr.Workers())
		for w := range feeds {
			b := shards[w].Next()
			feeds[w] = graph.Feed{Ints: map[string][]int{"tokens": b.Tokens, "labels": b.Labels}}
		}
		loss, err := tr.Step(feeds)
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease: first %v last %v", first, last)
	}
}

func TestClippingMatchesSequentialClipped(t *testing.T) {
	// Distributed global-norm clipping (chief read-back path) must match
	// sequential training with the same clip threshold.
	cfg := models.TinyLMConfig{Vocab: 40, Dim: 6, Hidden: 8, Batch: 4, Seed: 9}
	const steps = 3
	const lr = 0.5
	const clip = 0.5
	const seed = 2000
	workers := 4
	// Sequential with clipping.
	big := cfg
	big.Batch = cfg.Batch * workers
	gs := models.BuildTinyLM(big)
	es, _ := graph.NewExec(gs)
	opt := optim.NewSGD(lr)
	for s := 0; s < steps; s++ {
		_, feed := lmFeeds(workers, cfg.Batch, cfg.Vocab, seed+int64(s))
		_, grads, err := es.Step(feed)
		if err != nil {
			t.Fatal(err)
		}
		clipSequential(grads, clip)
		for name, d := range grads.Dense {
			opt.ApplyDense(name, es.VarValue(name), d)
		}
		for name, sp := range grads.Sparse {
			opt.ApplySparse(name, es.VarValue(name), sp)
		}
	}

	// Distributed hybrid with ClipNorm.
	gd := models.BuildTinyLM(cfg)
	ri := cluster.Uniform(2, 2)
	plan := planFor(t, gd, core.ArchHybrid, 2, 2)
	tr, err := New(gd, Options{
		Plan: plan, Resource: ri,
		NewOptimizer: func() optim.Optimizer { return optim.NewSGD(lr) },
		ClipNorm:     clip,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		feeds, _ := lmFeeds(workers, cfg.Batch, cfg.Vocab, seed+int64(s))
		if _, err := tr.Step(feeds); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range gs.Variables() {
		got, err := tr.VarValue(v.Name)
		if err != nil {
			t.Fatal(err)
		}
		if diff := got.MaxAbsDiff(es.VarValue(v.Name)); diff > 5e-4 {
			t.Errorf("clipped training: variable %s diverged by %v", v.Name, diff)
		}
	}
}

func TestNMTModelWithTwoPartitionedEmbeddings(t *testing.T) {
	cfg := models.DefaultTinyNMT()
	cfg.Batch = 6
	g := models.BuildTinyNMT(cfg)
	ri := cluster.Uniform(2, 2)
	plan := planFor(t, g, core.ArchHybrid, 2, 3)
	tr, err := New(g, Options{
		Plan: plan, Resource: ri,
		NewOptimizer:     func() optim.Optimizer { return optim.NewSGD(0.3) },
		LocalAggregation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	mk := func() []graph.Feed {
		feeds := make([]graph.Feed, tr.Workers())
		for w := range feeds {
			src := make([]int, cfg.Batch)
			dst := make([]int, cfg.Batch)
			lbl := make([]int, cfg.Batch)
			for i := range src {
				src[i] = rng.Intn(cfg.SrcVocab)
				dst[i] = rng.Intn(cfg.DstVocab)
				lbl[i] = rng.Intn(cfg.DstVocab)
			}
			feeds[w] = graph.Feed{Ints: map[string][]int{"en_texts": src, "de_texts": dst, "labels": lbl}}
		}
		return feeds
	}
	var losses []float64
	for s := 0; s < 10; s++ {
		l, err := tr.Step(mk())
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, l)
	}
	if math.IsNaN(losses[len(losses)-1]) {
		t.Fatal("NaN loss")
	}
}

func TestNewValidations(t *testing.T) {
	g := models.BuildTinyLM(models.DefaultTinyLM())
	ri := cluster.Uniform(2, 1)
	plan := planFor(t, g, core.ArchHybrid, 2, 2)
	if _, err := New(g, Options{Plan: nil, Resource: ri}); err == nil {
		t.Error("nil plan must fail")
	}
	if _, err := New(g, Options{Plan: plan, Resource: ri}); err == nil {
		t.Error("nil optimizer factory must fail")
	}

	// The simulator's α-threshold rule promotes a sparse variable to the
	// dense AllReduce; the runtime has no dense gradient to reduce for it.
	var vars []core.VarInfo
	for _, v := range g.Variables() {
		vars = append(vars, core.VarInfo{Name: v.Name, Rows: int64(v.Shape[0]), Width: int64(varWidth(v)),
			Sparse: g.GradKind(v) == graph.GradSparse, Alpha: 0.9, PartitionTarget: v.PartitionScope >= 0})
	}
	promoted, err := core.BuildPlan(vars, core.Options{Arch: core.ArchHybrid, NumMachines: 2,
		SparsePartitions: 2, AlphaDenseThreshold: 0.5, SmartPlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if a := promoted.Assignments[0]; a.Name != "embedding" || !a.TreatAsDense {
		t.Fatalf("first assignment %s treatAsDense=%v, want the promoted embedding", a.Name, a.TreatAsDense)
	}
	tr, err := New(g, Options{Plan: promoted, Resource: ri,
		NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.1) }})
	if err == nil {
		tr.Close()
		t.Error("a plan with an α-promoted sparse variable must fail")
	}
}
