package transform

// Tests for the persistent runtime: long-lived worker goroutines, the
// index-addressed local-aggregation slots, and the buffer-reuse contract
// with the parameter servers. These are written to be meaningful under
// `go test -race`: they drive many steps through the concurrent paths
// (async pushes, multi-GPU local aggregation, clipping read-back) so the
// race detector sees the full channel/mutex choreography.

import (
	"testing"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/graph"
	"parallax/internal/models"
	"parallax/internal/optim"
)

func newTrainer(t *testing.T, cfg models.TinyLMConfig, arch core.Arch, ri cluster.ResourceInfo,
	parts int, mutate func(*Options)) *Trainer {
	t.Helper()
	g := models.BuildTinyLM(cfg)
	opts := Options{
		Plan:     planFor(t, g, arch, ri.NumMachines(), parts),
		Resource: ri,
		NewOptimizer: func() optim.Optimizer {
			return optim.NewSGD(0.2)
		},
		DenseAgg:  optim.AggMean,
		SparseAgg: optim.AggMean,
	}
	if mutate != nil {
		mutate(&opts)
	}
	tr, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// Local aggregation with multiple GPUs per machine: the per-(route,
// machine) slots are hit by every worker of a machine each step, and the
// last arrival pushes merged zero-copy views to the servers.
func TestRaceLocalAggregationMultiGPU(t *testing.T) {
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 3), 4,
		func(o *Options) { o.LocalAggregation = true })
	var prev float64
	for s := 0; s < 20; s++ {
		feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, int64(s%4))
		loss, err := tr.Step(feeds)
		if err != nil {
			t.Fatal(err)
		}
		if s > 0 && loss == prev {
			// Losses on different batches almost surely differ; equal
			// values would suggest a step was dropped.
			t.Fatalf("step %d returned identical loss %v", s, loss)
		}
		prev = loss
	}
	if tr.BytesPushedLastStep() <= 0 {
		t.Fatal("BytesPushedLastStep not recorded")
	}
}

// Clipping combines every concurrent mechanism: deferred server updates,
// the chief-worker norm read-back, and the scaled apply path.
func TestRaceClippedHybridSteps(t *testing.T) {
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 3,
		func(o *Options) {
			o.LocalAggregation = true
			o.ClipNorm = 0.5
		})
	for s := 0; s < 10; s++ {
		feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, int64(s))
		if _, err := tr.Step(feeds); err != nil {
			t.Fatal(err)
		}
	}
}

// The persistent workers survive many steps and Close is idempotent.
func TestPersistentWorkersAndClose(t *testing.T) {
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 2, nil)
	for s := 0; s < 50; s++ {
		feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, int64(s))
		if _, err := tr.Step(feeds); err != nil {
			t.Fatal(err)
		}
	}
	tr.Close()
	tr.Close() // second Close must be a no-op
}

// The zero-copy pull path must route server state into the right replica
// rows. During the first step every worker pulls version 0 — the initial
// server values — so after that step each replica's PS-variable storage
// must be bitwise identical to the variable's Init tensor; a partition
// view with a wrong offset would corrupt exactly this.
func TestPullViewsMatchServerState(t *testing.T) {
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 3,
		func(o *Options) { o.LocalAggregation = true })
	feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 99)
	if _, err := tr.Step(feeds); err != nil {
		t.Fatal(err)
	}
	checkedPS := false
	for _, r := range tr.routes {
		if r.assign.Method != core.MethodPS {
			continue
		}
		checkedPS = true
		for w := 0; w < tr.Workers(); w++ {
			if diff := tr.execs[w].VarValue(r.v.Name).MaxAbsDiff(r.v.Init); diff != 0 {
				t.Errorf("worker %d replica of %s differs from pulled v0 state by %v", w, r.v.Name, diff)
			}
		}
		// The server, meanwhile, has applied the step's update: VarValue
		// must reconstruct a value that differs from Init.
		want, err := tr.VarValue(r.v.Name)
		if err != nil {
			t.Fatal(err)
		}
		if want.MaxAbsDiff(r.v.Init) == 0 {
			t.Errorf("server value of %s unchanged after a training step", r.v.Name)
		}
	}
	if !checkedPS {
		t.Fatal("plan routed no variable to PS; test is vacuous")
	}
}

// Bad feeds must be rejected before dispatch: a worker failing mid-step
// would strand its peers inside collectives, so Step validates up front
// and returns an error with the runtime still usable.
func TestBadFeedRejectedUpFront(t *testing.T) {
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 2, nil)
	feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 1)

	bad := make([]graph.Feed, len(feeds))
	copy(bad, feeds)
	bad[1] = graph.Feed{Ints: map[string][]int{"tokens": feeds[1].Ints["tokens"]}} // labels missing
	if _, err := tr.Step(bad); err == nil {
		t.Fatal("feed missing an input must fail")
	}
	bad[1] = graph.Feed{Ints: map[string][]int{"tokens": {1}, "labels": {2}}} // wrong batch size
	if _, err := tr.Step(bad); err == nil {
		t.Fatal("feed with wrong batch size must fail")
	}

	// The runtime must still work after rejected steps.
	if _, err := tr.Step(feeds); err != nil {
		t.Fatalf("valid step after rejected feeds: %v", err)
	}
}

func TestBytesPushedAccounting(t *testing.T) {
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 2, nil)
	feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 1)
	if _, err := tr.Step(feeds); err != nil {
		t.Fatal(err)
	}
	first := tr.BytesPushedLastStep()
	if first <= 0 {
		t.Fatalf("BytesPushedLastStep = %d, want > 0", first)
	}
	// Dense AR traffic is shape-determined, so a second step pushes at
	// least the dense payload again; the counter must reset, not grow
	// monotonically.
	feeds, _ = lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 2)
	if _, err := tr.Step(feeds); err != nil {
		t.Fatal(err)
	}
	second := tr.BytesPushedLastStep()
	if second <= 0 || second > 2*first {
		t.Fatalf("BytesPushedLastStep = %d after second step (first %d): counter did not reset", second, first)
	}
}
