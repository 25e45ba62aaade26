package transform

// Tests for live resharding (DESIGN.md §9): Trainer.Repartition must be
// lossless and deterministic — a run that reshards from P to P′ mid-run
// continues bit-identically to a run that used P′ from the start,
// including the optimizer slot state the servers migrate (the tests use
// momentum so dropped velocity would diverge the post-switch
// trajectory). Both fabrics are covered: the in-process channel fabric
// and two TCP-connected agents whose gather phase crosses the wire.

import (
	"math"
	"sync"
	"testing"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/transport"
)

// tinyLMVarNames are BuildTinyLM's variables, PS and AR routes alike.
var tinyLMVarNames = []string{"embedding", "lstm/kernel", "lstm/bias", "softmax/kernel"}

// runSteps drives steps synchronous iterations with the shared
// deterministic feed stream and returns the loss trajectory.
func runSteps(t *testing.T, tr *Trainer, cfg models.TinyLMConfig, from, to int) []float64 {
	t.Helper()
	losses := make([]float64, 0, to-from)
	for s := from; s < to; s++ {
		feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, int64(s))
		loss, err := tr.Step(feeds)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	return losses
}

// requireSameBits compares two float64 trajectories bit for bit.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d losses vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: step %d loss %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// requireSameVars compares every variable of two trainers bit for bit.
func requireSameVars(t *testing.T, what string, a, b *Trainer) {
	t.Helper()
	for _, name := range tinyLMVarNames {
		av, err := a.VarValue(name)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := b.VarValue(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range av.Data() {
			if math.Float32bits(x) != math.Float32bits(bv.Data()[i]) {
				t.Fatalf("%s: %s[%d] = %x, want %x", what, name, i,
					math.Float32bits(x), math.Float32bits(bv.Data()[i]))
			}
		}
	}
}

// withMomentum gives the trainer stateful optimizers so resharding has
// real slot state to migrate.
func withMomentum(o *Options) {
	o.LocalAggregation = true
	o.NewOptimizer = func() optim.Optimizer { return optim.NewMomentum(0.2, 0.9) }
}

// TestRepartitionBitIdentical is the in-process acceptance check: a
// hybrid 2×2 run that trains 4 steps at P=3, reshards to P=5, and
// trains 4 more must match — losses and all variables, bit for bit — a
// run that used P=5 from step 0. The 4 warm-up steps build momentum
// velocity on the servers, so the equality also proves the slot state
// migrated losslessly.
func TestRepartitionBitIdentical(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)

	ref := newTrainer(t, cfg, core.ArchHybrid, ri, 5, withMomentum)
	want := runSteps(t, ref, cfg, 0, 8)

	tr := newTrainer(t, cfg, core.ArchHybrid, ri, 3, withMomentum)
	got := runSteps(t, tr, cfg, 0, 4)
	g := models.BuildTinyLM(cfg)
	if err := tr.Repartition(planFor(t, g, core.ArchHybrid, ri.NumMachines(), 5)); err != nil {
		t.Fatal(err)
	}
	got = append(got, runSteps(t, tr, cfg, 4, 8)...)

	requireSameBits(t, "reshard 3->5", got, want)
	requireSameVars(t, "reshard 3->5", tr, ref)
}

// TestRepartitionRepeated reshards every other step through a mix of
// shrinking, growing, and degenerate partition counts (P=1, P larger
// than the machine count, P back down) and still matches the fixed-P
// reference — the partitioning must be a pure layout choice with zero
// effect on the math, no matter how often it changes.
func TestRepartitionRepeated(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)

	ref := newTrainer(t, cfg, core.ArchHybrid, ri, 4, withMomentum)
	want := runSteps(t, ref, cfg, 0, 8)

	tr := newTrainer(t, cfg, core.ArchHybrid, ri, 4, withMomentum)
	g := models.BuildTinyLM(cfg)
	var got []float64
	for i, p := range []int{3, 1, 7, 2} {
		got = append(got, runSteps(t, tr, cfg, 2*i, 2*i+2)...)
		if err := tr.Repartition(planFor(t, g, core.ArchHybrid, ri.NumMachines(), p)); err != nil {
			t.Fatal(err)
		}
	}
	requireSameBits(t, "repeated reshard", got, want)
	requireSameVars(t, "repeated reshard", tr, ref)
}

// TestRepartitionWithClipping pins the aggregation-sequence seeding of
// migrated partitions: under ClipNorm the chief's norm read-back waits
// for aggregation seq step+1, so a reshard that failed to seed aggSeq
// would deadlock the next step. (Loss bits are not compared across P
// here — the global-norm summation groups by partition.)
func TestRepartitionWithClipping(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	tr := newTrainer(t, cfg, core.ArchHybrid, ri, 3, func(o *Options) {
		withMomentum(o)
		o.ClipNorm = 0.7
	})
	losses := runSteps(t, tr, cfg, 0, 3)
	g := models.BuildTinyLM(cfg)
	if err := tr.Repartition(planFor(t, g, core.ArchHybrid, ri.NumMachines(), 4)); err != nil {
		t.Fatal(err)
	}
	losses = append(losses, runSteps(t, tr, cfg, 3, 6)...)
	for s, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("step %d loss %v after reshard under clipping", s, l)
		}
	}
}

// TestRepartitionNoopAndErrors covers the cheap paths: resharding to the
// current partitioning is a no-op, and a plan that changes a route's
// method is rejected.
func TestRepartitionNoopAndErrors(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	tr := newTrainer(t, cfg, core.ArchHybrid, ri, 3, withMomentum)
	runSteps(t, tr, cfg, 0, 2)
	g := models.BuildTinyLM(cfg)
	if err := tr.Repartition(planFor(t, g, core.ArchHybrid, ri.NumMachines(), 3)); err != nil {
		t.Fatalf("no-op reshard: %v", err)
	}
	if err := tr.Repartition(planFor(t, g, core.ArchAR, ri.NumMachines(), 3)); err == nil {
		t.Fatal("method-changing plan accepted")
	}
	if err := tr.Repartition(nil); err == nil {
		t.Fatal("nil plan accepted")
	}
	runSteps(t, tr, cfg, 2, 4)
}

// TestRepartitionOverTCPBitIdentical is the wire-fabric half of the
// acceptance criterion: two TCP-connected agents reshard 3→5 after step
// 4 (the gather phase snapshot-reads remote partitions over PSSnapshot
// round trips) and must still match the single-process P=5 run bit for
// bit — losses on both agents and the migrated embedding.
func TestRepartitionOverTCPBitIdentical(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	const steps = 8

	ref := newTrainer(t, cfg, core.ArchHybrid, ri, 5, withMomentum)
	want := runSteps(t, ref, cfg, 0, steps)
	refEmb, err := ref.VarValue("embedding")
	if err != nil {
		t.Fatal(err)
	}

	topo := transport.Topology{Workers: 4, Machines: 2, MachineOfWorker: ri.WorkerMachines()}
	fabs := dialTestFabrics(t, topo)
	type agentRes struct {
		losses []float64
		emb    []float32
		err    error
	}
	results := [2]agentRes{}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res := &results[p]
			g := models.BuildTinyLM(cfg)
			opts := Options{
				Plan:         planFor(t, g, core.ArchHybrid, ri.NumMachines(), 3),
				Resource:     ri,
				NewOptimizer: func() optim.Optimizer { return optim.NewMomentum(0.2, 0.9) },
				Fabric:       fabs[p],
			}
			opts.LocalAggregation = true
			tr, err := New(g, opts)
			if err != nil {
				res.err = err
				return
			}
			defer tr.Close()
			step := func(s int) bool {
				feeds, _ := lmFeeds(4, cfg.Batch, cfg.Vocab, int64(s))
				loss, err := tr.Step(feeds)
				if err != nil {
					res.err = err
					return false
				}
				res.losses = append(res.losses, loss)
				return true
			}
			for s := 0; s < 4; s++ {
				if !step(s) {
					return
				}
			}
			if err := tr.Repartition(planFor(t, g, core.ArchHybrid, ri.NumMachines(), 5)); err != nil {
				res.err = err
				return
			}
			for s := 4; s < steps; s++ {
				if !step(s) {
					return
				}
			}
			emb, err := tr.VarValue("embedding")
			if err != nil {
				res.err = err
				return
			}
			res.emb = emb.Data()
		}(p)
	}
	wg.Wait()
	for p := range results {
		if results[p].err != nil {
			t.Fatalf("agent %d: %v", p, results[p].err)
		}
		requireSameBits(t, "tcp reshard", results[p].losses, want)
		for i, v := range refEmb.Data() {
			if math.Float32bits(results[p].emb[i]) != math.Float32bits(v) {
				t.Fatalf("agent %d embedding[%d] %x, want %x",
					p, i, math.Float32bits(results[p].emb[i]), math.Float32bits(v))
			}
		}
	}
}
