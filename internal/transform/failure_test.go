package transform

// Kill-a-peer-mid-step tests: whichever phase a step is in when a peer
// dies — backprop-overlapped collectives, PS pulls, the loss exchange —
// the surviving trainer's Step must return a rank-attributed error
// wrapping errs.ErrPeerFailed (never hang, never crash the process),
// and Close must unwind every goroutine. The TCP fabric and its
// in-process instance are both covered; either attributes the failure
// itself.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"parallax/internal/chaos"
	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/transport"
)

// distKillTrainers builds the two TCP-connected trainers of a
// 2-machine × 2-GPU hybrid cluster (PS embedding + fused AllReduce, the
// configuration where a step exercises collectives, PS pulls, and the
// loss exchange). wrap, when non-nil, interposes on process p's fabric.
func distKillTrainers(t *testing.T, wrap func(p int, fab *transport.TCP) transport.Fabric) ([2]*transport.TCP, [2]*Trainer) {
	t.Helper()
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	topo := transport.Topology{Workers: 4, Machines: 2, MachineOfWorker: ri.WorkerMachines()}
	fabs := dialTestFabrics(t, topo)
	g := models.BuildTinyLM(cfg)
	var trs [2]*Trainer
	for p := 0; p < 2; p++ {
		var fab transport.Fabric = fabs[p]
		if wrap != nil {
			fab = wrap(p, fabs[p])
		}
		tr, err := New(g, Options{
			Plan:             planFor(t, g, core.ArchHybrid, ri.NumMachines(), 3),
			Resource:         ri,
			NewOptimizer:     func() optim.Optimizer { return optim.NewSGD(0.2) },
			LocalAggregation: true,
			Fabric:           fab,
		})
		if err != nil {
			t.Fatalf("trainer %d: %v", p, err)
		}
		trs[p] = tr
	}
	return [2]*transport.TCP{fabs[0], fabs[1]}, trs
}

// TestTCPKillPeerMidStep drives both agents concurrently and kills
// agent 1's process (abrupt fabric teardown, no announcement) while
// steps are in flight. Both trainers must surface ErrPeerFailed with
// the dead rank attributed, and closing both must leak nothing.
func TestTCPKillPeerMidStep(t *testing.T) {
	base := runtime.NumGoroutine()
	fabs, trs := distKillTrainers(t, nil)
	cfg := models.DefaultTinyLM()

	const killStep = 3
	stepErr := [2]error{}
	done := make(chan int, 2)
	for p := 0; p < 2; p++ {
		go func(p int) {
			defer func() { done <- p }()
			for s := 0; ; s++ {
				if p == 1 && s == killStep {
					// Simulated crash between exchanges: the remote side
					// sees only broken connections.
					fabs[1].Fail(1, fmt.Errorf("injected mid-step crash"))
				}
				feeds, _ := lmFeeds(trs[p].Workers(), cfg.Batch, cfg.Vocab, int64(s))
				if _, err := trs[p].Step(feeds); err != nil {
					stepErr[p] = err
					return
				}
				if s > killStep+10 {
					stepErr[p] = fmt.Errorf("no failure surfaced by step %d", s)
					return
				}
			}
		}(p)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("a trainer hung after the peer was killed")
		}
	}
	for p := 0; p < 2; p++ {
		if !errors.Is(stepErr[p], errs.ErrPeerFailed) {
			t.Fatalf("trainer %d step error %v, want ErrPeerFailed", p, stepErr[p])
		}
		var pf *errs.PeerFailure
		if !errors.As(stepErr[p], &pf) || pf.Rank != 1 {
			t.Fatalf("trainer %d attributed %v, want rank 1", p, stepErr[p])
		}
	}
	trs[0].Close()
	trs[1].Close()
	waitGoroutines(t, base)
}

// killOnTag kills its fabric (Fabric.Fail, the chaos harness's kill) the
// moment a local endpoint is about to send a scalar under tag — a
// process crash pinned to one point of a control protocol.
type killOnTag struct {
	transport.Fabric
	tag string
}

func (f *killOnTag) Conduit(rank int) transport.Conduit {
	return &killConduit{Conduit: f.Fabric.Conduit(rank), f: f}
}

type killConduit struct {
	transport.Conduit
	f *killOnTag
}

func (c *killConduit) SendScalar(dst int, tag string, v float64) {
	if tag == c.f.tag {
		c.f.Fail(1, fmt.Errorf("injected crash before %q", tag))
	}
	c.Conduit.SendScalar(dst, tag, v)
}

// TestRepartitionPeerDeathBetweenBarriers: agent 1 passes the gather
// barrier of a live reshard and dies before the install barrier. Agent
// 0, parked in that barrier, must get the rank-attributed ErrPeerFailed
// — not install the new partitioning and report success on a dead
// cluster.
func TestRepartitionPeerDeathBetweenBarriers(t *testing.T) {
	base := runtime.NumGoroutine()
	_, trs := distKillTrainers(t, func(p int, fab *transport.TCP) transport.Fabric {
		if p == 1 {
			return &killOnTag{Fabric: fab, tag: "repart/install"}
		}
		return fab
	})
	g := models.BuildTinyLM(models.DefaultTinyLM())
	var repErr [2]error
	done := make(chan struct{}, 2)
	for p := 0; p < 2; p++ {
		go func(p int) {
			repErr[p] = trs[p].Repartition(planFor(t, g, core.ArchHybrid, 2, 5))
			done <- struct{}{}
		}(p)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("Repartition hung after the peer was killed")
		}
	}
	for p := 0; p < 2; p++ {
		var pf *errs.PeerFailure
		if !errors.Is(repErr[p], errs.ErrPeerFailed) || !errors.As(repErr[p], &pf) || pf.Rank != 1 {
			t.Fatalf("trainer %d Repartition returned %v, want ErrPeerFailed attributed to rank 1", p, repErr[p])
		}
	}
	trs[0].Close()
	trs[1].Close()
	waitGoroutines(t, base)
}

// TestInprocKillMidStep is the in-process-fabric variant: the chaos
// injector kills the fabric at a fixed step, and the trainer must
// surface ErrPeerFailed through the same failStep attribution path.
func TestInprocKillMidStep(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	g := models.BuildTinyLM(cfg)
	topo := transport.Topology{Workers: 4, Machines: 2, MachineOfWorker: ri.WorkerMachines()}
	inj, err := chaos.Parse("kill@2", 1)
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewInproc(topo)
	tr, err := New(g, Options{
		Plan:             planFor(t, g, core.ArchHybrid, ri.NumMachines(), 3),
		Resource:         ri,
		NewOptimizer:     func() optim.Optimizer { return optim.NewSGD(0.2) },
		LocalAggregation: true,
		Fabric:           fab,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stepErr error
	for s := 0; s < 5; s++ {
		feeds, _ := lmFeeds(tr.Workers(), cfg.Batch, cfg.Vocab, int64(s))
		inj.Step(s, fab)
		if _, err := tr.Step(feeds); err != nil {
			stepErr = err
			break
		}
	}
	if !errors.Is(stepErr, errs.ErrPeerFailed) {
		t.Fatalf("step error %v, want ErrPeerFailed from the chaos kill", stepErr)
	}
	tr.Close()
	waitGoroutines(t, base)
}
