package transform

// Tests for the persistent runtime: long-lived worker goroutines, the
// index-addressed local-aggregation slots, and the buffer-reuse contract
// with the parameter servers. These are written to be meaningful under
// `go test -race`: they drive many steps through the concurrent paths
// (async pushes, multi-GPU local aggregation, clipping read-back) so the
// race detector sees the full channel/mutex choreography.

import (
	"math"
	"slices"
	"strings"
	"testing"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/graph"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/psrt"
	"parallax/internal/tensor"
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
	if tr.LastStep().BytesPushed <= 0 {
		t.Fatal("LastStep().BytesPushed not recorded")
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

// The pull path must route server state into the right replica rows. A
// worker pulls only the rows its feed gathers and holds only those,
// packed, so after a few steps (the servers have moved away from Init)
// every row the last step's feed named must hold, in the slot of that
// worker's replica its SetRows binding gives it, exactly what the
// servers held when the step began — a packed run, a partition-local
// row id or a binding with a wrong offset would corrupt exactly this —
// and VarValue must still assemble the whole table from the servers,
// which alone hold it.
func TestPullViewsMatchServerState(t *testing.T) {
	cfg := models.DefaultTinyLM()
	mutate := func(o *Options) { o.LocalAggregation = true }
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 3, mutate)
	whole := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 3, mutate)
	wholePartitionPulls(whole)
	const steps = 4
	var before *tensor.Dense
	var feeds []graph.Feed
	for s := 0; s < steps; s++ {
		var err error
		if before, err = tr.VarValue("embedding"); err != nil {
			t.Fatal(err)
		}
		feeds, _ = lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, int64(s))
		for _, x := range []*Trainer{tr, whole} {
			if _, err := x.Step(feeds); err != nil {
				t.Fatal(err)
			}
		}
	}
	if before.MaxAbsDiff(tr.routes[tr.routeIdx["embedding"]].v.Init) == 0 {
		t.Fatal("servers still at Init before the last step; test is vacuous")
	}
	width, ri := cfg.Dim, tr.routeIdx["embedding"]
	for w := 0; w < tr.Workers(); w++ {
		replica, bound := tr.local[w].exec.VarValue("embedding").Data(), tr.local[w].pullIDs[ri]
		for _, id := range feeds[w].Ints["tokens"] {
			slot, ok := slices.BinarySearch(bound, id)
			if !ok {
				t.Fatalf("worker %d: fed row %d is not bound to its replica (%v)", w, id, bound)
			}
			for c := 0; c < width; c++ {
				if got, want := replica[slot*width+c], before.At(id, c); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("worker %d replica row %d (slot %d) col %d = %v, servers held %v when the step began", w, id, slot, c, got, want)
				}
			}
		}
	}
	requireSameVars(t, "row-addressed vs whole-partition pulls", tr, whole)
}

// pullBatches records the batches the endpoint it wraps is asked to pull.
type pullBatches struct {
	psrt.Endpoint
	batches *[][]int // the partitions of each call, in call order
}

func (p pullBatches) PullManyInto(minVersion int64, reqs []psrt.PullReq) error {
	var parts []int
	for _, r := range reqs {
		parts = append(parts, r.Part)
	}
	*p.batches = append(*p.batches, parts)
	return p.Endpoint.PullManyInto(minVersion, reqs)
}

// VarValue reads a partitioned variable with one batched call per
// server, every partition the server owns in it, as a step's pull does.
func TestVarValueOneCallPerServer(t *testing.T) {
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 4, nil)
	feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 1)
	if _, err := tr.Step(feeds); err != nil {
		t.Fatal(err)
	}
	w0 := tr.local[0]
	batches := make([][][]int, len(w0.ps))
	for m, ep := range w0.ps {
		w0.ps[m] = pullBatches{ep, &batches[m]}
	}
	if _, err := tr.VarValue("embedding"); err != nil {
		t.Fatal(err)
	}
	r := tr.routes[tr.routeIdx["embedding"]]
	for m, owned := range r.parts {
		want := [][]int{owned}
		if len(owned) == 0 {
			want = nil
		}
		if !slices.EqualFunc(batches[m], want, slices.Equal[[]int]) {
			t.Errorf("server %d: VarValue pulled batches %v, want %v", m, batches[m], want)
		}
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
	// An id outside the embedding would panic inside the worker's Gather
	// (and take the process down): it is a feed error like the others.
	for _, id := range []int{-1, cfg.Vocab} {
		tokens := slices.Clone(feeds[1].Ints["tokens"])
		tokens[len(tokens)/2] = id
		bad[1] = graph.Feed{Ints: map[string][]int{"tokens": tokens, "labels": feeds[1].Ints["labels"]}}
		if _, err := tr.Step(bad); err == nil || !strings.Contains(err.Error(), "outside embedding's rows") {
			t.Fatalf("token id %d: err = %v, want an out-of-vocabulary feed error", id, err)
		}
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
	first := tr.LastStep().BytesPushed
	if first <= 0 {
		t.Fatalf("LastStep().BytesPushed = %d, want > 0", first)
	}
	// Dense AR traffic is shape-determined, so a second step pushes at
	// least the dense payload again; the counter must reset, not grow
	// monotonically.
	feeds, _ = lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 2)
	if _, err := tr.Step(feeds); err != nil {
		t.Fatal(err)
	}
	second := tr.LastStep().BytesPushed
	if second <= 0 || second > 2*first {
		t.Fatalf("LastStep().BytesPushed = %d after second step (first %d): counter did not reset", second, first)
	}
}

// TestStepAllocationsBounded bounds a whole in-process step's heap
// allocations on the 2×2 TinyLM, hybrid and AllReduce-only: the per-step
// buffers are built once at New, so a step's count is fixed by the model
// and the plan. A change that moves a per-step buffer back into Step
// shows here.
func TestStepAllocationsBounded(t *testing.T) {
	cfg := models.DefaultTinyLM()
	for _, c := range []struct {
		name  string
		arch  core.Arch
		parts int
		bound float64
	}{
		{"hybrid", core.ArchHybrid, 2, 75},
		{"allreduce-only", core.ArchAR, 1, 45},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := newTrainer(t, cfg, c.arch, cluster.Uniform(2, 2), c.parts,
				func(o *Options) { o.LocalAggregation = true })
			feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 1)
			n := testing.AllocsPerRun(20, func() {
				if _, err := tr.Step(feeds); err != nil {
					t.Fatal(err)
				}
			})
			if n > c.bound {
				t.Fatalf("a %s step allocates %v objects, want at most %v", c.name, n, c.bound)
			}
		})
	}
}
