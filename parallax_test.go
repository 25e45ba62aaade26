package parallax

import (
	"context"
	"math"
	"net"
	"strings"
	"testing"

	"parallax/internal/data"
)

// openSession opens a single-process session or fails the test.
func openSession(t testing.TB, g *Graph, res ResourceInfo, opts ...Option) *Session {
	t.Helper()
	s, err := Open(context.Background(), g, res, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runSteps drives n steps of s.Steps over ds, handing each step's stats
// to each (when set), and returns the loop's aggregate.
func runSteps(t testing.TB, s *Session, ds Dataset, n int, each func(StepStats)) LoopStats {
	t.Helper()
	var stats LoopStats
	for st, err := range s.Steps(context.Background(), ds) {
		if err != nil {
			t.Fatal(err)
		}
		stats.Observe(st)
		if each != nil {
			each(st)
		}
		if stats.Steps == n {
			break
		}
	}
	return stats
}

// buildAPIModel constructs a small sparse model purely through the public
// API, following the Fig. 3 pattern.
func buildAPIModel(batch, vocab int) *Graph {
	rng := NewRNG(17)
	g := NewGraph()
	tokens := g.Input("tokens", Int, batch)
	labels := g.Input("labels", Int, batch)
	var emb *Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, vocab, 16))
	})
	w := g.Variable("proj", rng.RandN(0.1, 16, vocab))
	g.SoftmaxCE(g.MatMul(g.Gather(emb, tokens), w), labels)
	return g
}

func TestOpenDefaultsAndTraining(t *testing.T) {
	g := buildAPIModel(8, 120)
	runner := openSession(t, g, Uniform(2, 2), WithSparsePartitions(3))
	defer runner.Close()
	if runner.Workers() != 4 {
		t.Fatalf("workers = %d", runner.Workers())
	}
	shards := make([]Dataset, runner.Workers())
	for w := range shards {
		shards[w] = Shard(data.NewZipfText(120, 8, 1, 1.0, 5), w, runner.Workers())
	}
	var first, last float64
	for step := 0; step < 20; step++ {
		feeds := make([]Feed, runner.Workers())
		for w := range feeds {
			b := shards[w].(*data.Shard).Next()
			feeds[w] = Feed{Ints: map[string][]int{"tokens": b.Tokens, "labels": b.Labels}}
		}
		loss, err := runner.trainer.Step(feeds)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestDescribeShowsHybridSplit(t *testing.T) {
	g := buildAPIModel(4, 50)
	runner := openSession(t, g, Uniform(2, 1), WithSparsePartitions(2))
	defer runner.Close()
	d := runner.Describe()
	if !strings.Contains(d, "embedding") || !strings.Contains(d, "ps") {
		t.Errorf("Describe missing PS route:\n%s", d)
	}
	if !strings.Contains(d, "proj") || !strings.Contains(d, "allreduce") {
		t.Errorf("Describe missing AR route:\n%s", d)
	}
	if !strings.Contains(d, "transport: inproc") {
		t.Errorf("Describe missing transport line:\n%s", d)
	}
}

func TestSessionCloseIdempotentAfterSteps(t *testing.T) {
	g := buildAPIModel(8, 120)
	runner := openSession(t, g, Uniform(2, 2), WithSparsePartitions(3))
	runSteps(t, runner, data.NewZipfText(120, 8, 1, 1.0, 5), 2, nil)
	runner.Close()
	runner.Close() // second Close must be a no-op, not a panic
}

func TestDenseOnlyGraphSkipsSearchAndServers(t *testing.T) {
	rng := NewRNG(3)
	g := NewGraph()
	x := g.Input("x", Float, 4, 8)
	labels := g.Input("labels", Int, 4)
	w := g.Variable("w", rng.RandN(0.2, 8, 5))
	g.SoftmaxCE(g.MatMul(x, w), labels)
	runner := openSession(t, g, Uniform(2, 1))
	defer runner.Close()
	if runner.SparsePartitions() != 1 {
		t.Fatalf("dense model searched partitions: %d", runner.SparsePartitions())
	}
	feeds := make([]Feed, 2)
	for i := range feeds {
		feeds[i] = Feed{
			Floats: map[string]*Dense{"x": rng.RandN(1, 4, 8)},
			Ints:   map[string][]int{"labels": {0, 1, 2, 3}},
		}
	}
	if _, err := runner.trainer.Step(feeds); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidations(t *testing.T) {
	g := NewGraph()
	g.Input("x", Float, 1, 1) // no loss
	if _, err := Open(context.Background(), g, Uniform(1, 1)); err == nil {
		t.Fatal("graph without loss must fail")
	}
	g2 := buildAPIModel(2, 10)
	if _, err := Open(context.Background(), g2, ResourceInfo{}); err == nil {
		t.Fatal("empty resources must fail")
	}

	// Option combinations the docs forbid are refused before any runtime
	// exists, instead of opening a session that ignores them. The
	// distributed case is one machine on a pre-bound listener, which
	// rendezvouses with no peer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	solo := DistConfig{Addrs: []string{ln.Addr().String()}, Listener: ln}
	root := t.TempDir()
	for _, tc := range []struct {
		name string
		opts []Option
		want string
	}{
		{"unknown architecture", []Option{WithArch(Arch(99))}, "unknown arch"},
		{"recovery without auto-checkpoint", []Option{WithRecovery(RecoveryPolicy{Enabled: true})},
			"WithRecovery requires WithAutoCheckpoint"},
		{"single-process recovery", []Option{WithAutoCheckpoint(root, 4), WithRecovery(RecoveryPolicy{Enabled: true})},
			"WithRecovery requires WithDistConfig"},
		{"shrink without recovery", []Option{WithAutoCheckpoint(root, 4), WithRecovery(RecoveryPolicy{AllowShrink: true})},
			"AllowShrink requires Enabled"},
		{"distributed elastic without auto-checkpoint", []Option{WithElastic(), WithDistConfig(solo)},
			"requires WithAutoCheckpoint"},
	} {
		s, err := Open(context.Background(), g2, Uniform(1, 1), tc.opts...)
		if err == nil {
			s.Close()
			t.Errorf("%s: Open succeeded", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestStepsPublicAPI(t *testing.T) {
	g := buildAPIModel(8, 150)
	runner := openSession(t, g, Uniform(2, 2), WithSparsePartitions(3))
	defer runner.Close()

	var seen int
	var lastStats StepStats
	stats := runSteps(t, runner, data.NewZipfText(150, 8, 1, 1.0, 21), 25, func(s StepStats) {
		if s.Step != seen {
			t.Errorf("iterator yielded step %d, want %d", s.Step, seen)
		}
		seen++
		lastStats = s
	})
	if seen != 25 || stats.Steps != 25 {
		t.Fatalf("saw %d steps, stats counted %d, want 25", seen, stats.Steps)
	}
	if !(stats.LastLoss < stats.FirstLoss) {
		t.Fatalf("loss did not decrease: %v -> %v", stats.FirstLoss, stats.LastLoss)
	}
	if lastStats.BytesPushed <= 0 || stats.TotalBytesPushed <= 0 {
		t.Fatalf("push-byte metrics missing: step %d total %d", lastStats.BytesPushed, stats.TotalBytesPushed)
	}
	if lastStats.StepTime <= 0 || stats.TotalTime <= 0 {
		t.Fatalf("timing metrics missing: step %v total %v", lastStats.StepTime, stats.TotalTime)
	}
}

func TestStepsFeedsCustomInputs(t *testing.T) {
	// A dense-only graph without tokens/labels inputs: Steps must refuse
	// it with a helpful error, StepsFeeds must drive it.
	rng := NewRNG(8)
	g := NewGraph()
	x := g.Input("x", Float, 4, 6)
	labels := g.Input("y", Int, 4)
	w := g.Variable("w", rng.RandN(0.2, 6, 3))
	g.SoftmaxCE(g.MatMul(x, w), labels)
	runner := openSession(t, g, Uniform(2, 1))
	defer runner.Close()
	ctx := context.Background()

	refused := false
	for _, err := range runner.Steps(ctx, data.NewZipfText(10, 4, 1, 1.0, 3)) {
		refused = err != nil
	}
	if !refused {
		t.Fatal("Steps on a graph without tokens/labels inputs must fail")
	}

	steps := 0
	for st, err := range runner.StepsFeeds(ctx, func(step, worker int) (Feed, error) {
		return Feed{
			Floats: map[string]*Dense{"x": rng.RandN(1, 4, 6)},
			Ints:   map[string][]int{"y": {0, 1, 2, 0}},
		}, nil
	}) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Step != steps {
			t.Fatalf("StepsFeeds yielded step %d, want %d", st.Step, steps)
		}
		if steps++; steps == 5 {
			break
		}
	}
	if steps != 5 || runner.StepCount() != 5 {
		t.Fatalf("ran %d steps (StepCount %d), want 5", steps, runner.StepCount())
	}

	// A transposed float feed has the right element count but the wrong
	// shape; it must be rejected before dispatch, not crash a worker.
	var err error
	for _, err = range runner.StepsFeeds(ctx, func(step, worker int) (Feed, error) {
		return Feed{
			Floats: map[string]*Dense{"x": rng.RandN(1, 6, 4)},
			Ints:   map[string][]int{"y": {0, 1, 2, 0}},
		}, nil
	}) {
		break
	}
	if err == nil {
		t.Fatal("transposed float feed must fail")
	}
}

func TestMeasureAlphaPublicAPI(t *testing.T) {
	a := MeasureAlpha(data.NewZipfText(500, 16, 4, 1.0, 9), 500, 5)
	if a <= 0 || a >= 1 {
		t.Fatalf("alpha = %v", a)
	}
}

// TestPartitionSearchOnLiveSteps is the acceptance check of the §3.2
// search, which a session opened without a fixed partition count runs
// in its first loop: on the hybrid LM example it must start at one
// partition per machine, settle within the paper's budget of 5
// measurement runs, choose a P inside the sampled bracket, reshard the
// live runtime to it, keep the training loop accounting intact (every
// step, probes included, is yielded exactly once, in order) — and,
// because resharding is lossless, train the same loss trajectory bit
// for bit as a run fixed at the machine count from the start.
func TestPartitionSearchOnLiveSteps(t *testing.T) {
	const vocab, batch, steps = 600, 8, 30
	g := buildAPIModel(batch, vocab)
	runner := openSession(t, g, Uniform(2, 2))
	defer runner.Close()

	d := runner.PartitionDecision()
	if !d.Pending || d.Source != "online" {
		t.Fatalf("pre-loop decision = %+v, want pending online", d)
	}
	if runner.SparsePartitions() != 2 {
		t.Fatalf("initial P = %d, want the machine count", runner.SparsePartitions())
	}

	var losses []float64
	stats := runSteps(t, runner, data.NewZipfText(vocab, batch, 1, 1.0, 11), steps, func(s StepStats) {
		if s.Step != len(losses) {
			t.Errorf("iterator yielded step %d, want %d", s.Step, len(losses))
		}
		losses = append(losses, s.Loss)
	})
	if len(losses) != steps || stats.Steps != steps {
		t.Fatalf("saw %d steps, stats counted %d, want %d", len(losses), stats.Steps, steps)
	}

	d = runner.PartitionDecision()
	if d.Pending || d.Source != "online" || d.Search == nil {
		t.Fatalf("post-loop decision = %+v, want settled online search", d)
	}
	if d.Search.Runs > 5 {
		t.Fatalf("search used %d measurement runs, budget is 5", d.Search.Runs)
	}
	lo, hi := d.Search.Samples[0].P, d.Search.Samples[0].P
	for _, s := range d.Search.Samples {
		lo, hi = min(lo, s.P), max(hi, s.P)
	}
	if d.P < lo || d.P > hi {
		t.Fatalf("chosen P=%d outside the sampled bracket [%d,%d]", d.P, lo, hi)
	}
	if runner.SparsePartitions() != d.P {
		t.Fatalf("runtime at P=%d, decision says %d", runner.SparsePartitions(), d.P)
	}
	if out := d.String(); strings.Contains(out, "NaN") {
		t.Fatalf("decision renders NaN thetas:\n%s", out)
	}

	// A second loop must not re-run the search.
	runSteps(t, runner, data.NewZipfText(vocab, batch, 1, 1.0, 12), 2, nil)
	if d2 := runner.PartitionDecision(); d2.P != d.P || d2.Search != d.Search {
		t.Fatal("second Steps loop searched again")
	}

	fixed := openSession(t, buildAPIModel(batch, vocab), Uniform(2, 2), WithSparsePartitions(2))
	defer fixed.Close()
	runSteps(t, fixed, data.NewZipfText(vocab, batch, 1, 1.0, 11), steps, func(s StepStats) {
		if math.Float64bits(s.Loss) != math.Float64bits(losses[s.Step]) {
			t.Fatalf("step %d: searched run's loss %x, fixed-P run's %x",
				s.Step, math.Float64bits(losses[s.Step]), math.Float64bits(s.Loss))
		}
	})
}

// TestNoSearchWithoutServerPartitions: the search is gated on the plan,
// not the graph. When the architecture routes the graph's only
// partition target through collectives there is nothing to reshard, so
// the decision is fixed at Open and the first loop spends no step on
// probes.
func TestNoSearchWithoutServerPartitions(t *testing.T) {
	for name, opts := range map[string][]Option{
		"AllReduceOnly": {WithArch(AllReduceOnly)},
	} {
		t.Run(name, func(t *testing.T) {
			runner := openSession(t, buildAPIModel(8, 600), Uniform(2, 2), opts...)
			defer runner.Close()
			want := PartitionDecision{P: 1, Source: "fixed"}
			if d := runner.PartitionDecision(); d != want {
				t.Fatalf("decision at Open = %+v, want %+v", d, want)
			}
			runSteps(t, runner, data.NewZipfText(600, 8, 1, 1.0, 11), 3, nil)
			if d := runner.PartitionDecision(); d != want {
				t.Fatalf("decision after a loop = %+v, want %+v", d, want)
			}
		})
	}
}

// TestPublicRepartitionLossless drives Session.Repartition directly: a
// run that reshards mid-training must keep a loss trajectory
// bit-identical to a session configured with the target P from the
// start (the transform-level tests pin the same property per-variable
// and over TCP; this covers the public wiring).
func TestPublicRepartitionLossless(t *testing.T) {
	const vocab, batch, steps, switchAt = 300, 8, 6, 3
	run := func(startP int, reshardTo int) []float64 {
		g := buildAPIModel(batch, vocab)
		runner := openSession(t, g, Uniform(2, 2), WithSparsePartitions(startP))
		defer runner.Close()
		ds := data.NewZipfText(vocab, batch, 1, 1.0, 13)
		var losses []float64
		hook := func(s StepStats) { losses = append(losses, s.Loss) }
		runSteps(t, runner, ds, switchAt, hook)
		if reshardTo > 0 {
			if err := runner.Repartition(reshardTo); err != nil {
				t.Fatal(err)
			}
			if runner.SparsePartitions() != reshardTo {
				t.Fatalf("SparsePartitions() = %d after Repartition(%d)", runner.SparsePartitions(), reshardTo)
			}
		}
		runSteps(t, runner, ds, steps-switchAt, hook)
		return losses
	}
	want := run(4, 0)
	got := run(2, 4)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("step %d loss %v after reshard, want %v", i, got[i], want[i])
		}
	}
}

// TestShardMapAndDecisionReporting checks the live reporting surface:
// the shard map names every route with its partition→machine
// assignment, and Describe carries the partition decision.
func TestShardMapAndDecisionReporting(t *testing.T) {
	g := buildAPIModel(4, 50)
	runner := openSession(t, g, Uniform(2, 1), WithSparsePartitions(3))
	defer runner.Close()
	sm := runner.ShardMap()
	for _, want := range []string{"embedding", "ps x3", "->m", "rows/server:", "proj", "replicated"} {
		if !strings.Contains(sm, want) {
			t.Errorf("shard map missing %q:\n%s", want, sm)
		}
	}
	if d := runner.Describe(); !strings.Contains(d, "partitions: 3 (fixed)") {
		t.Errorf("Describe missing partition decision:\n%s", d)
	}
	// After a live reshard the map must reflect the new partitioning.
	if err := runner.Repartition(2); err != nil {
		t.Fatal(err)
	}
	if sm := runner.ShardMap(); !strings.Contains(sm, "ps x2") {
		t.Errorf("shard map not updated after reshard:\n%s", sm)
	}
}

func TestOptionVariants(t *testing.T) {
	g := buildAPIModel(4, 40)
	for i, opts := range [][]Option{
		{WithArch(AllReduceOnly), WithSparsePartitions(1)},
		{WithArch(PSOnly), WithSparsePartitions(2)},
		{WithArch(OptimizedPS), WithSparsePartitions(2)},
		{WithArch(Hybrid), WithSparsePartitions(2), WithClipNorm(1.0)},
		{WithArch(Hybrid), WithSparsePartitions(2),
			WithOptimizer(func() Optimizer { return NewMomentum(0.01, 0.9) })},
	} {
		runner, err := Open(context.Background(), g, Uniform(2, 1), opts...)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		feeds := make([]Feed, runner.Workers())
		for w := range feeds {
			feeds[w] = Feed{Ints: map[string][]int{
				"tokens": {1, 2, 3, 4}, "labels": {5, 6, 7, 8},
			}}
		}
		if _, err := runner.trainer.Step(feeds); err != nil {
			t.Fatalf("variant %d: step: %v", i, err)
		}
		runner.Close()
	}
}
