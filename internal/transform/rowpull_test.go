package transform

// Tests for the row-addressed PS pull: where the graph only gathers a
// variable, a worker pulls the rows its feed names instead of every
// partition whole. The reference throughout is the same trainer forced
// back to whole-partition requests (wholePartitionPulls), i.e. the
// behaviour before rows were addressed; everything observable — every
// step's loss, every variable's final bits — must be identical.

import (
	"math"
	"sync"
	"testing"
	"time"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/graph"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/psrt"
	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// wholePartitionPulls is the test-only seam: it clears the graph-derived
// row addressing and gives every worker a full replica, so every PS
// partition is pulled whole each step. Call it before the first step.
func wholePartitionPulls(tr *Trainer) {
	for ri := range tr.routes {
		tr.routes[ri].rowInputs = nil
	}
	for _, w := range tr.local {
		full, err := graph.NewExec(w.exec.Graph())
		if err != nil {
			panic(err)
		}
		w.exec = full
	}
	tr.buildPullReqs()
}

// rowModel is one graph of the bit-identity matrix with its deterministic
// feed stream for the four workers of Uniform(2, 2).
type rowModel struct {
	build func() *graph.Graph
	feeds func(step int) []graph.Feed
	vars  []string
}

func tinyLMModel() rowModel {
	cfg := models.DefaultTinyLM()
	return rowModel{
		build: func() *graph.Graph { return models.BuildTinyLM(cfg) },
		feeds: func(step int) []graph.Feed {
			f, _ := lmFeeds(4, cfg.Batch, cfg.Vocab, int64(step))
			return f
		},
		vars: tinyLMVarNames,
	}
}

func tinyNMTModel() rowModel {
	cfg := models.DefaultTinyNMT()
	cfg.Batch = 6
	return rowModel{
		build: func() *graph.Graph { return models.BuildTinyNMT(cfg) },
		feeds: func(step int) []graph.Feed {
			rng := tensor.NewRNG(int64(100 + step))
			feeds := make([]graph.Feed, 4)
			for w := range feeds {
				src, dst, lbl := make([]int, cfg.Batch), make([]int, cfg.Batch), make([]int, cfg.Batch)
				for i := range src {
					src[i], dst[i], lbl[i] = rng.Intn(cfg.SrcVocab), rng.Intn(cfg.DstVocab), rng.Intn(cfg.DstVocab)
				}
				feeds[w] = graph.Feed{Ints: map[string][]int{"en_texts": src, "de_texts": dst, "labels": lbl}}
			}
			return feeds
		},
		vars: []string{"emb_enc", "emb_dec", "rnn/kernel", "softmax/kernel"},
	}
}

// twoIndexModel gathers ONE 40-row table through two index inputs. Every
// feed repeats an id within and across the two inputs, and on even steps
// no worker names a row of [10, 30): at 4 partitions, partitions 1 and 2
// are then pulled by nobody while their servers still aggregate (empty)
// pushes from everyone.
func twoIndexModel() rowModel {
	const rows, batch = 40, 6
	return rowModel{
		build: func() *graph.Graph {
			rng := tensor.NewRNG(7)
			g := graph.New()
			a := g.Input("a", graph.Int, batch)
			b := g.Input("b", graph.Int, batch)
			labels := g.Input("labels", graph.Int, batch)
			var emb *graph.Node
			g.InPartitioner(func() { emb = g.Variable("emb", rng.RandN(0.1, rows, 8)) })
			out := g.Variable("out/kernel", rng.RandN(0.1, 16, 10))
			h := g.Tanh(g.ConcatCols(g.Gather(emb, a), g.Gather(emb, b)))
			g.SoftmaxCE(g.MatMul(h, out), labels)
			return g
		},
		feeds: func(step int) []graph.Feed {
			rng := tensor.NewRNG(int64(200 + step))
			id := func() int {
				if step%2 == 1 {
					return rng.Intn(rows)
				}
				return (rng.Intn(20) + 30) % rows // [30,40) and [0,10)
			}
			feeds := make([]graph.Feed, 4)
			for w := range feeds {
				a, b, lbl := make([]int, batch), make([]int, batch), make([]int, batch)
				for i := range a {
					a[i], b[i], lbl[i] = id(), id(), rng.Intn(10)
				}
				a[1], b[0] = a[0], a[0]
				feeds[w] = graph.Feed{Ints: map[string][]int{"a": a, "b": b, "labels": lbl}}
			}
			return feeds
		},
		vars: []string{"emb", "out/kernel"},
	}
}

// rowRun is one way of running a rowModel.
type rowRun struct {
	tcp     bool // two loopback agents instead of the channel fabric
	whole   bool // the reference: whole-partition pulls
	parts   int
	reshard int // > 0: Repartition to this many partitions mid-run
	mutate  func(*Options)
	// afterStep, when set, inspects agent 0's trainer after each step.
	afterStep func(step int, tr *Trainer)
}

type rowResult struct {
	losses []float64
	vars   map[string][]float32
}

// runRowModel trains m for steps steps and returns agent 0's loss
// trajectory and final variables (both agents' losses are checked equal).
func runRowModel(t *testing.T, m rowModel, run rowRun, steps int) rowResult {
	t.Helper()
	ri := cluster.Uniform(2, 2)
	agents := 1
	var fabs [2]*transport.TCP
	if run.tcp {
		agents = 2
		fabs = dialTestFabrics(t, transport.Topology{Workers: 4, Machines: 2, MachineOfWorker: ri.WorkerMachines()})
	}
	results := make([]rowResult, agents)
	errs := make([]error, agents)
	var wg sync.WaitGroup
	for p := 0; p < agents; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = func() error {
				g := m.build()
				opts := Options{
					Plan:             planFor(t, g, core.ArchHybrid, ri.NumMachines(), run.parts),
					Resource:         ri,
					NewOptimizer:     func() optim.Optimizer { return optim.NewMomentum(0.2, 0.9) },
					LocalAggregation: true,
				}
				if run.tcp {
					opts.Fabric = fabs[p]
				}
				if run.mutate != nil {
					run.mutate(&opts)
				}
				tr, err := New(g, opts)
				if err != nil {
					return err
				}
				defer tr.Close()
				if run.whole {
					wholePartitionPulls(tr)
				}
				res := &results[p]
				for s := 0; s < steps; s++ {
					if run.reshard > 0 && s == steps/2 {
						if err := tr.Repartition(planFor(t, g, core.ArchHybrid, ri.NumMachines(), run.reshard)); err != nil {
							return err
						}
					}
					loss, err := tr.Step(m.feeds(s))
					if err != nil {
						return err
					}
					res.losses = append(res.losses, loss)
					if run.afterStep != nil && p == 0 {
						run.afterStep(s, tr)
					}
				}
				res.vars = map[string][]float32{}
				for _, name := range m.vars {
					v, err := tr.VarValue(name)
					if err != nil {
						return err
					}
					res.vars[name] = v.Data()
				}
				return nil
			}()
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", p, err)
		}
	}
	if agents == 2 {
		requireSameBits(t, "agent 1 vs agent 0", results[1].losses, results[0].losses)
	}
	return results[0]
}

func requireSameResult(t *testing.T, what string, got, want rowResult) {
	t.Helper()
	requireSameBits(t, what, got.losses, want.losses)
	for name, w := range want.vars {
		g := got.vars[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d elements, want %d", what, name, len(g), len(w))
		}
		for i := range w {
			if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %x, want %x", what, name, i, math.Float32bits(g[i]), math.Float32bits(w[i]))
			}
		}
	}
}

// TestRowPullBitIdenticalToWholePartition is the acceptance matrix: on
// either fabric, under clipping, across a reshard, with two tables and
// with one table behind two index inputs, pulling only the gathered rows
// changes no bit of any loss or variable. The two-index model's even
// steps leave partitions unpulled while pushes keep arriving at them —
// the case DESIGN.md §3's ordering argument covers — so the matrix is
// meant to run under -race.
func TestRowPullBitIdenticalToWholePartition(t *testing.T) {
	clip := func(o *Options) { o.ClipNorm = 0.5 }
	for name, c := range map[string]struct {
		m     rowModel
		run   rowRun
		steps int
	}{
		"tinylm through a reshard": {tinyLMModel(), rowRun{parts: 3, reshard: 5}, 6},
		"tinylm clipped":           {tinyLMModel(), rowRun{parts: 3, mutate: clip}, 4},
		"nmt, two tables":          {tinyNMTModel(), rowRun{parts: 3}, 5},
		"two index inputs":         {twoIndexModel(), rowRun{parts: 4}, 7},
		"two index inputs clipped": {twoIndexModel(), rowRun{parts: 4, mutate: clip}, 7},
	} {
		t.Run(name, func(t *testing.T) {
			ref := c.run
			ref.whole = true
			want := runRowModel(t, c.m, ref, c.steps)
			requireSameResult(t, "channel fabric", runRowModel(t, c.m, c.run, c.steps), want)
			overTCP := c.run
			overTCP.tcp = true
			requireSameResult(t, "two TCP agents", runRowModel(t, c.m, overTCP, c.steps), want)
		})
	}
}

// The two-index model must really exercise what it is there for: the
// row lists are deduplicated unions, partition-local and ascending, and
// on even steps no request at all goes to the untouched partitions.
func TestRowPullRequestsFollowTheFeed(t *testing.T) {
	m := twoIndexModel()
	runRowModel(t, m, rowRun{parts: 4, afterStep: func(step int, tr *Trainer) {
		feeds := m.feeds(step)
		for _, wk := range tr.local {
			w := wk.rank
			want := map[int]bool{}
			for _, in := range []string{"a", "b"} {
				for _, id := range feeds[w].Ints[in] {
					want[id] = true
				}
			}
			got := 0
			for _, reqs := range wk.pullReqs {
				for _, req := range reqs {
					if req.Name != "emb" {
						t.Fatalf("step %d worker %d pulls %q", step, w, req.Name)
					}
					if step%2 == 0 && (req.Part == 1 || req.Part == 2) {
						t.Errorf("step %d worker %d pulled untouched partition %d", step, w, req.Part)
					}
					for k, r := range req.Rows {
						if k > 0 && r <= req.Rows[k-1] {
							t.Errorf("step %d worker %d part %d rows %v not strictly ascending", step, w, req.Part, req.Rows)
						}
						if !want[10*req.Part+r] {
							t.Errorf("step %d worker %d pulled row %d the feed does not name", step, w, 10*req.Part+r)
						}
						got++
					}
				}
			}
			if got != len(want) {
				t.Errorf("step %d worker %d pulled %d rows, feed names %d distinct ids", step, w, got, len(want))
			}
		}
	}}, 4)
}

// A graph that also reads the table densely must keep its old
// behaviour: whole partitions from the servers and a full replica in
// each worker, as under AllGatherv. Only a PS table the graph merely
// gathers is stored as one step's rows: Σ(index-input lengths) of them.
func TestRowPullOnlyWhereTheGraphOnlyGathers(t *testing.T) {
	requireReplicaRows := func(what string, tr *Trainer, name string, rows int) {
		t.Helper()
		for _, w := range tr.local {
			if got := w.exec.VarValue(name).Shape(); got[0] != rows || len(got) != 2 {
				t.Errorf("%s: worker %d stores %s as %v, want %d rows", what, w.rank, name, got, rows)
			}
		}
	}
	two := twoIndexModel()
	tg := two.build()
	rowTr, err := New(tg, Options{Plan: planFor(t, tg, core.ArchHybrid, 2, 4), Resource: cluster.Uniform(2, 2),
		NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.2) }})
	if err != nil {
		t.Fatal(err)
	}
	defer rowTr.Close()
	requireReplicaRows("two index inputs of 6", rowTr, "emb", 12)
	requireReplicaRows("two index inputs of 6", rowTr, "out/kernel", 16)

	ri := cluster.Uniform(2, 2)
	const vocab, dim, batch = 30, 8, 4
	rng := tensor.NewRNG(11)
	g := graph.New()
	tokens := g.Input("tokens", graph.Int, batch)
	bag := g.Input("bag", graph.Float, batch, vocab)
	labels := g.Input("labels", graph.Int, batch)
	var emb *graph.Node
	g.InPartitioner(func() { emb = g.Variable("emb", rng.RandN(0.1, vocab, dim)) })
	out := g.Variable("out/kernel", rng.RandN(0.1, dim, 5))
	g.SoftmaxCE(g.MatMul(g.Add(g.Gather(emb, tokens), g.MatMul(bag, emb)), out), labels)
	newOpts := func(plan *core.Plan) Options {
		return Options{Plan: plan, Resource: ri, NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.2) }}
	}
	tr, err := New(g, newOpts(planFor(t, g, core.ArchOptPS, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	feeds := make([]graph.Feed, 4)
	for w := range feeds {
		feeds[w] = graph.Feed{
			Ints:   map[string][]int{"tokens": {1, 2, 3, 4}, "labels": {0, 1, 2, 3}},
			Floats: map[string]*tensor.Dense{"bag": rng.RandN(0.1, batch, vocab)},
		}
	}
	if _, err := tr.Step(feeds); err != nil {
		t.Fatal(err)
	}
	pulled := 0
	for _, reqs := range tr.local[0].pullReqs {
		for _, req := range reqs {
			if req.Rows != nil {
				t.Errorf("densely read graph: %s/%d pulled by rows %v", req.Name, req.Part, req.Rows)
			}
			pulled += req.Dst.Dim(0)
		}
	}
	if pulled != vocab+dim {
		t.Errorf("worker 0 pulled %d whole rows, want every row of both variables (%d)", pulled, vocab+dim)
	}
	requireReplicaRows("densely read graph", tr, "emb", vocab)

	cfg := models.DefaultTinyLM()
	lm := models.BuildTinyLM(cfg)
	agv, err := New(lm, newOpts(planFor(t, lm, core.ArchAR, 2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer agv.Close()
	if m := agv.routes[agv.routeIdx["embedding"]].assign.Method; m != core.MethodAllGatherv {
		t.Fatalf("embedding under AllReduce-only routed %v, want AllGatherv", m)
	}
	requireReplicaRows("AllGatherv", agv, "embedding", cfg.Vocab)
	ps, err := New(lm, newOpts(planFor(t, lm, core.ArchHybrid, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	requireReplicaRows("parameter servers", ps, "embedding", cfg.Batch)
}

// Deriving a step's row sets — collect, sort, deduplicate, bucket by
// partition, build the request lists — reuses per-worker scratch and
// allocates nothing once built.
func TestStepPullReqsAllocatesNothing(t *testing.T) {
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchOptPS, cluster.Uniform(2, 2), 5, nil)
	feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 3)
	if n := testing.AllocsPerRun(50, func() { tr.stepPullReqs(tr.local[1], feeds[1]) }); n != 0 {
		t.Fatalf("stepPullReqs allocates %v objects a step, want 0", n)
	}
}

// slowPulls delays every pull of the endpoint it wraps.
type slowPulls struct {
	psrt.Endpoint
	delay time.Duration
}

func (s slowPulls) PullManyInto(minVersion int64, reqs []psrt.PullReq) error {
	time.Sleep(s.delay)
	return s.Endpoint.PullManyInto(minVersion, reqs)
}

// The synchronous pull at the head of a step is synchronization nothing
// hides: its time must show in Comm and in SyncWait, so the phases sum
// to the step.
func TestPullPhaseCountsAsSyncWait(t *testing.T) {
	const delay = 30 * time.Millisecond
	cfg := models.DefaultTinyLM()
	tr := newTrainer(t, cfg, core.ArchHybrid, cluster.Uniform(2, 2), 2, nil)
	for _, w := range tr.local {
		for m, ep := range w.ps {
			w.ps[m] = slowPulls{ep, delay}
		}
	}
	feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, 5)
	if _, err := tr.Step(feeds); err != nil {
		t.Fatal(err)
	}
	if st := tr.LastStep(); st.SyncWait < delay || st.CommTime < delay {
		t.Fatalf("a %v pull left SyncWait %v and Comm %v", delay, st.SyncWait, st.CommTime)
	}
}
