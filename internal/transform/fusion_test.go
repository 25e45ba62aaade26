package transform

// Tests for the fused, overlapped synchronization schedule: fusion
// buckets must be semantically invisible (bit-identical variable
// trajectories vs the per-variable schedule), and the overlapped dispatch
// must preserve synchronous-training semantics under the race detector.

import (
	"testing"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/graph"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/tensor"
)

// manySmallDense builds a deep MLP over token embeddings: one sparse
// embedding (AllGatherv under pure AR) plus 2·layers+2 small dense
// variables, all of which a pure-AR plan routes through fusion buckets.
func manySmallDense(layers int, seed int64) *graph.Graph {
	rng := tensor.NewRNG(seed)
	g := graph.New()
	tokens := g.Input("tokens", graph.Int, 8)
	labels := g.Input("labels", graph.Int, 8)
	emb := g.Variable("embedding", rng.RandN(0.2, 30, 12))
	h := g.Gather(emb, tokens)
	for l := 0; l < layers; l++ {
		w := g.Variable("w"+string(rune('a'+l)), rng.RandN(0.2, 12, 12))
		b := g.Variable("b"+string(rune('a'+l)), tensor.NewDense(12))
		h = g.Tanh(g.AddBias(g.MatMul(h, w), b))
	}
	wOut := g.Variable("softmax", rng.RandN(0.2, 12, 30))
	g.SoftmaxCE(g.MatMul(h, wOut), labels)
	return g
}

func feedsFor(workers, batch, vocab int, seed int64) []graph.Feed {
	rng := tensor.NewRNG(seed)
	feeds := make([]graph.Feed, workers)
	for w := range feeds {
		tok := make([]int, batch)
		lbl := make([]int, batch)
		for i := range tok {
			tok[i] = rng.Intn(vocab)
			lbl[i] = rng.Intn(vocab)
		}
		feeds[w] = graph.Feed{Ints: map[string][]int{"tokens": tok, "labels": lbl}}
	}
	return feeds
}

// trainAR runs a pure-AR trainer over the many-small-dense model and
// returns the final variable state. Pure AR is fully deterministic (the
// rank-ordered collective fold and rank-ordered AllGatherv concatenation
// leave no arrival-order nondeterminism), so the fused and unfused
// schedules must agree to the bit.
func trainAR(t *testing.T, ri cluster.ResourceInfo, fusionBytes int64, steps int, newOpt func() optim.Optimizer) map[string]*tensor.Dense {
	t.Helper()
	g := manySmallDense(6, 77)
	plan := planFor(t, g, core.ArchAR, ri.NumMachines(), 1)
	tr, err := New(g, Options{
		Plan: plan, Resource: ri,
		NewOptimizer: newOpt,
		FusionBytes:  fusionBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for s := 0; s < steps; s++ {
		if _, err := tr.Step(feedsFor(tr.Workers(), 8, 30, int64(500+s))); err != nil {
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

// The tentpole equivalence claim: the fused schedule (one collective per
// bucket) produces BIT-identical variable state to the per-variable
// schedule, across cluster shapes, bucket size caps, and optimizers.
func TestFusedBitIdenticalToPerVariable(t *testing.T) {
	sgd := func() optim.Optimizer { return optim.NewSGD(0.3) }
	mom := func() optim.Optimizer { return optim.NewMomentum(0.2, 0.9) }
	for _, tc := range []struct {
		name   string
		ri     cluster.ResourceInfo
		fusion int64 // fused-side bucket cap
		newOpt func() optim.Optimizer
	}{
		{"1x2-default-bucket", cluster.Uniform(1, 2), 0, sgd},
		{"1x3-default-bucket", cluster.Uniform(1, 3), 0, sgd},
		{"2x2-default-bucket", cluster.Uniform(2, 2), 0, sgd},
		{"1x5-default-bucket", cluster.Uniform(1, 5), 0, sgd},
		{"2x2-tiny-buckets", cluster.Uniform(2, 2), 1 << 10, sgd}, // several buckets
		{"2x2-momentum", cluster.Uniform(2, 2), 0, mom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fused := trainAR(t, tc.ri, tc.fusion, 4, tc.newOpt)
			unfused := trainAR(t, tc.ri, -1, 4, tc.newOpt)
			for name, want := range unfused {
				got := fused[name]
				if got.MaxAbsDiff(want) != 0 {
					t.Errorf("variable %s: fused differs from per-variable by %v (must be bit-identical)",
						name, got.MaxAbsDiff(want))
				}
			}
		})
	}
}

// A sub-variable bucket cap must actually split the schedule into
// multiple collectives (otherwise the tiny-buckets equivalence case above
// is vacuous), and the default cap must fuse everything into one.
func TestBucketPacking(t *testing.T) {
	g := manySmallDense(6, 11)
	ri := cluster.Uniform(1, 2)
	build := func(fusion int64) *Trainer {
		tr, err := New(g, Options{
			Plan: planFor(t, g, core.ArchAR, 1, 1), Resource: ri,
			NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.1) },
			FusionBytes:  fusion,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr
	}
	if got := len(build(0).buckets); got != 1 {
		t.Errorf("default cap: %d buckets, want 1", got)
	}
	// All variables except the sparse embedding are dense AllReduce routes.
	if got, want := len(build(-1).buckets), len(g.Variables())-1; got != want {
		t.Errorf("fusion disabled: %d buckets, want one per dense variable (%d)", got, want)
	}
	if one, many := len(build(0).buckets), len(build(1<<10).buckets); many <= one {
		t.Errorf("1KiB cap produced %d buckets, want more than %d", many, one)
	}
}

// Overlapped dispatch under every concurrent mechanism at once: fusion
// with several buckets, AllGatherv, PS routes with local aggregation,
// deferred updates, and chief clipping — meaningful under `go test
// -race`. The result must still match the single-GPU clipped reference
// within float tolerance.
func TestRaceOverlappedClippedHybridMatchesSequential(t *testing.T) {
	cfg := models.TinyLMConfig{Vocab: 40, Dim: 6, Hidden: 8, Batch: 4, Seed: 9}
	const steps = 3
	const lr = 0.5
	const clip = 0.5
	const seed = 3000
	workers := 4

	big := cfg
	big.Batch = cfg.Batch * workers
	gs := models.BuildTinyLM(big)
	es, err := graph.NewExec(gs)
	if err != nil {
		t.Fatal(err)
	}
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

	gd := models.BuildTinyLM(cfg)
	ri := cluster.Uniform(2, 2)
	tr, err := New(gd, Options{
		Plan: planFor(t, gd, core.ArchHybrid, 2, 3), Resource: ri,
		NewOptimizer:     func() optim.Optimizer { return optim.NewSGD(lr) },
		LocalAggregation: true,
		ClipNorm:         clip,
		FusionBytes:      256, // force multiple buckets
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
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
			t.Errorf("overlapped clipped training: variable %s diverged by %v", v.Name, diff)
		}
	}
}

// The fused schedule must report identical losses to the unfused one on a
// fixed seed — the convergence-equivalence acceptance check. Pure AR is
// the right arena: it is fully deterministic (no server-side arrival
// order), and fusion only ever touches AllReduce routes, so any loss
// divergence here would be a fusion bug rather than benign float
// reassociation.
func TestFusedLossTrajectoryMatchesUnfused(t *testing.T) {
	run := func(fusion int64) []float64 {
		g := manySmallDense(6, 21)
		tr, err := New(g, Options{
			Plan: planFor(t, g, core.ArchAR, 2, 1), Resource: cluster.Uniform(2, 2),
			NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.4) },
			FusionBytes:  fusion,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		var losses []float64
		for s := 0; s < 6; s++ {
			loss, err := tr.Step(feedsFor(tr.Workers(), 8, 30, int64(900+s)))
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		return losses
	}
	fused, unfused := run(0), run(-1)
	for s := range fused {
		if fused[s] != unfused[s] {
			t.Errorf("step %d: fused loss %v != unfused loss %v", s, fused[s], unfused[s])
		}
	}
}

// Phase stats must be populated and consistent: compute > 0, and comm
// busy time present whenever something was synchronized.
func TestPhaseStatsPopulated(t *testing.T) {
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 2, nil)
	feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 5)
	if _, err := tr.Step(feeds); err != nil {
		t.Fatal(err)
	}
	st := tr.LastStep()
	if st.ComputeTime <= 0 {
		t.Errorf("ComputeTime = %v, want > 0", st.ComputeTime)
	}
	if st.CommTime <= 0 {
		t.Errorf("CommTime = %v, want > 0", st.CommTime)
	}
	if st.SyncWait < 0 {
		t.Errorf("SyncWait = %v, want >= 0", st.SyncWait)
	}
}
