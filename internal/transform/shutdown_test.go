package transform

// Tests for the shape of the runtime and its shutdown (DESIGN.md §3,
// §8): the goroutines New starts are all the trainer ever runs, the
// pull phase pipelined by the worker itself moves the same bits over
// any number of agents, and a closed trainer refuses a fan-out before
// it can reach the closed fabric.

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/graph"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/transport"
)

// settledGoroutines returns the goroutine count once it has stopped
// moving: goroutines that have signalled their WaitGroup but not yet
// returned (dial helpers, a fabric's accept loop) are given time to go.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for same < 5 {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// sampledFabric records the highest goroutine count seen from inside the
// data plane: at every scalar a worker sends (the loss exchange, every
// agreement) and every PS message (pulls, pushes, reshard reads).
type sampledFabric struct {
	transport.Fabric
	peak *atomic.Int64
}

func (f *sampledFabric) Conduit(rank int) transport.Conduit {
	return &sampledConduit{Conduit: f.Fabric.Conduit(rank), peak: f.peak}
}

type sampledConduit struct {
	transport.Conduit
	peak *atomic.Int64
}

func (c *sampledConduit) sample() {
	n := int64(runtime.NumGoroutine())
	for old := c.peak.Load(); n > old && !c.peak.CompareAndSwap(old, n); old = c.peak.Load() {
	}
}

func (c *sampledConduit) SendScalar(dst int, tag string, v float64) {
	c.sample()
	c.Conduit.SendScalar(dst, tag, v)
}

func (c *sampledConduit) SendPS(dst int, tag string, m *transport.PSMsg) {
	c.sample()
	c.Conduit.SendPS(dst, tag, m)
}

// TestGoroutineInventoryIsFixedAtNew pins DESIGN.md §3's inventory on a
// 2-agent loopback pair: New starts exactly the four kinds — per agent
// two workers, two comm goroutines, two serving loops (its server × the
// peer's two workers) and the fabric watcher — and from then until Close
// the process runs that many goroutines and no other, sampled from
// inside 20 steps, their boundary agreements and a live Repartition.
func TestGoroutineInventoryIsFixedAtNew(t *testing.T) {
	start := runtime.NumGoroutine()
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	fabs := dialTestFabrics(t, transport.Topology{Workers: 4, Machines: 2, MachineOfWorker: ri.WorkerMachines()})
	g := models.BuildTinyLM(cfg)
	plan3, plan5 := planFor(t, g, core.ArchHybrid, 2, 3), planFor(t, g, core.ArchHybrid, 2, 5)

	var peak atomic.Int64
	before := settledGoroutines()
	var trs [2]*Trainer
	for p := range trs {
		tr, err := New(g, Options{
			Plan:             plan3,
			Resource:         ri,
			NewOptimizer:     func() optim.Optimizer { return optim.NewSGD(0.2) },
			LocalAggregation: true,
			Fabric:           &sampledFabric{Fabric: fabs[p], peak: &peak},
		})
		if err != nil {
			t.Fatalf("trainer %d: %v", p, err)
		}
		trs[p] = tr
	}
	base := settledGoroutines()
	if got, want := base-before, 2*(2+2+2+1); got != want {
		t.Fatalf("New started %d goroutines for two agents, want %d (per agent: 2 workers, 2 comm, 2 serving loops, 1 watcher)", got, want)
	}

	var runErr [2]error
	var wg sync.WaitGroup
	for p := range trs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			runErr[p] = func() error {
				for s := 0; s < 20; s++ {
					if s == 10 {
						if err := trs[p].Repartition(plan5); err != nil {
							return err
						}
					}
					if _, err := trs[p].AgreeMax("ctl", 0); err != nil {
						return err
					}
					feeds, _ := lmFeeds(4, cfg.Batch, cfg.Vocab, int64(s))
					if _, err := trs[p].Step(feeds); err != nil {
						return err
					}
				}
				return nil
			}()
		}(p)
	}
	wg.Wait()
	for p, err := range runErr {
		if err != nil {
			t.Fatalf("agent %d: %v", p, err)
		}
	}
	// The two driver goroutines above are all the run may add.
	if got := int(peak.Load()); got > base+2 {
		t.Fatalf("%d goroutines seen from inside the data plane, %d after New plus the test's 2 drivers: something spawns per step or per agreement", got, base)
	}
	if got := settledGoroutines(); got != base {
		t.Fatalf("%d goroutines after the run, %d after New", got, base)
	}
	trs[0].Close()
	trs[1].Close()
	waitGoroutines(t, start)
}

// TestClosedTrainerRefusesFanOut: an agreement on a closed trainer is
// refused by the trainer itself, with the ErrClosed sentinel — a
// distributed one does not reach for the closed fabric, mistake what it
// finds there for a failure, and fail-stop a second time, and a
// single-process one does not hand back v as if it had agreed. A variable
// read is refused the same way, for a PS variable and for a
// replica-managed one (whose stale replica it must not hand out).
func TestClosedTrainerRefusesFanOut(t *testing.T) {
	_, dist := distKillTrainers(t, nil)
	trs := append(dist[:], newTrainer(t, models.DefaultTinyLM(), core.ArchHybrid, cluster.Uniform(2, 2), 3, nil))
	for _, tr := range trs {
		tr.Close()
	}
	refused := func(err error) bool {
		return errors.Is(err, errs.ErrClosed) && !errors.Is(err, errs.ErrPeerFailed) && strings.Contains(err.Error(), "closed trainer")
	}
	for p, tr := range trs {
		if _, err := tr.AgreeMax("ctl", 1); !refused(err) {
			t.Fatalf("trainer %d: agreement after Close returned %v, want the trainer's own ErrClosed", p, err)
		}
		for _, name := range []string{"embedding", "softmax/kernel"} {
			if _, err := tr.VarValue(name); !refused(err) {
				t.Fatalf("trainer %d: VarValue(%q) after Close returned %v, want the trainer's own ErrClosed", p, name, err)
			}
		}
	}
}

// TestPipelinedPullsThreeAgentsBitIdentical: with three agents every
// worker has two remote servers, so its pull phase has two requests in
// flight while it reads its colocated server — and the run, a live
// reshard included, reproduces the single-process losses and embedding
// bit for bit: the servers fold their three sources in rank order.
func TestPipelinedPullsThreeAgentsBitIdentical(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(3, 2)
	const steps, reshardAt = 8, 4
	mutate := func(o *Options) { o.LocalAggregation = true }
	lm := models.BuildTinyLM(cfg)
	plan5, plan7 := planFor(t, lm, core.ArchHybrid, 3, 5), planFor(t, lm, core.ArchHybrid, 3, 7)
	feedsAt := func(s int) []graph.Feed {
		feeds, _ := lmFeeds(6, cfg.Batch, cfg.Vocab, int64(s))
		return feeds
	}
	run := func(tr *Trainer) (losses []float64, emb []float32, err error) {
		for s := 0; s < steps; s++ {
			if s == reshardAt {
				if err := tr.Repartition(plan7); err != nil {
					return nil, nil, err
				}
			}
			loss, err := tr.Step(feedsAt(s))
			if err != nil {
				return nil, nil, err
			}
			losses = append(losses, loss)
		}
		v, err := tr.VarValue("embedding")
		if err != nil {
			return nil, nil, err
		}
		return losses, v.Data(), nil
	}

	wantLosses, wantEmb, err := run(newTrainer(t, cfg, core.ArchHybrid, ri, 5, mutate))
	if err != nil {
		t.Fatal(err)
	}

	fabs := dialTestFabricsN(t, transport.Topology{Workers: 6, Machines: 3, MachineOfWorker: ri.WorkerMachines()})
	type result struct {
		losses []float64
		emb    []float32
		err    error
	}
	results := make([]result, len(fabs))
	var wg sync.WaitGroup
	for p := range fabs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			opts := Options{
				Plan:         plan5,
				Resource:     ri,
				NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.2) },
				Fabric:       fabs[p],
			}
			mutate(&opts)
			tr, err := New(models.BuildTinyLM(cfg), opts)
			if err != nil {
				results[p].err = err
				return
			}
			defer tr.Close()
			res := &results[p]
			res.losses, res.emb, res.err = run(tr)
		}(p)
	}
	wg.Wait()
	for p, res := range results {
		if res.err != nil {
			t.Fatalf("agent %d: %v", p, res.err)
		}
		requireSameBits(t, "three agents vs in-process", res.losses, wantLosses)
		for i, v := range wantEmb {
			if math.Float32bits(res.emb[i]) != math.Float32bits(v) {
				t.Fatalf("agent %d embedding[%d] %x, in-process %x", p, i, math.Float32bits(res.emb[i]), math.Float32bits(v))
			}
		}
	}
}
