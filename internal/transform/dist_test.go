package transform

// Tests for the distributed deployment mode: the same trainer hosting
// one machine's share of the cluster per process, wired over
// transport.TCP. Both "agents" run inside this test process (each with
// its own fabric, graph, and trainer), which exercises the full wire
// path — framing, codec, PS serving loops, the distributed loss
// exchange, the goodbye at Close — without spawning processes. The
// multi-process version of the same check runs in CI via
// cmd/parallax-agent.

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/transport"
)

// dialTestFabrics builds the two TCP fabrics of a 2-machine cluster on
// loopback.
func dialTestFabrics(t *testing.T, topo transport.Topology) [2]*transport.TCP {
	t.Helper()
	return [2]*transport.TCP(dialTestFabricsN(t, topo))
}

// dialTestFabricsN builds one TCP fabric per machine of topo on loopback,
// using pre-bound ":0" listeners so no fixed port is needed.
func dialTestFabricsN(t *testing.T, topo transport.Topology) []*transport.TCP {
	t.Helper()
	n := topo.Machines
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for p := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[p], addrs[p] = ln, ln.Addr().String()
	}
	fabs := make([]*transport.TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fabs[p], errs[p] = transport.DialTCP(context.Background(), transport.TCPConfig{
				Topo: topo, Process: p, Addrs: addrs, Listener: lns[p], DialTimeout: 10 * time.Second})
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("fabric %d: %v", p, err)
		}
	}
	return fabs
}

// TestDistributedTCPBitIdenticalToInprocess is the acceptance check of
// the wire transport: a 2-machine × 2-GPU run split across two
// TCP-connected trainers must reproduce the single-process loss
// trajectory bit for bit, and so must the trained variables. The hybrid
// case puts the sparse embedding on partitioned parameter servers with
// local aggregation (two pushes a partition) and the dense layers on
// fused ring AllReduce; the naive-PS case puts every variable on the
// servers without local aggregation, so each partition folds four
// pushes, which only a rank-ordered fold makes reproducible.
func TestDistributedTCPBitIdenticalToInprocess(t *testing.T) {
	for _, tc := range []struct {
		name   string
		arch   core.Arch
		mutate func(*Options)
	}{
		{"hybrid", core.ArchHybrid, func(o *Options) { o.LocalAggregation = true }},
		{"naive-ps", core.ArchNaivePS, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { distributedMatchesInprocess(t, tc.arch, tc.mutate) })
	}
}

// distributedMatchesInprocess is one case of
// TestDistributedTCPBitIdenticalToInprocess.
func distributedMatchesInprocess(t *testing.T, arch core.Arch, mutate func(*Options)) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	const steps = 8

	// Reference: the whole cluster in one trainer over the channel fabric.
	ref := newTrainer(t, cfg, arch, ri, 3, mutate)
	refLosses := make([]float64, steps)
	for s := 0; s < steps; s++ {
		feeds, _ := lmFeeds(ref.Workers(), cfg.Batch, cfg.Vocab, int64(s))
		loss, err := ref.Step(feeds)
		if err != nil {
			t.Fatal(err)
		}
		refLosses[s] = loss
	}

	// Distributed: two agents, each building the identical graph and
	// plan and hosting one machine.
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
				Plan:     planFor(t, g, arch, ri.NumMachines(), 3),
				Resource: ri,
				NewOptimizer: func() optim.Optimizer {
					return optim.NewSGD(0.2)
				},
				Fabric: fabs[p],
			}
			if mutate != nil {
				mutate(&opts)
			}
			tr, err := New(g, opts)
			if err != nil {
				res.err = err
				return
			}
			defer tr.Close()
			if !tr.Distributed() || len(tr.LocalWorkers()) != 2 {
				t.Errorf("agent %d hosts %v", p, tr.LocalWorkers())
			}
			for s := 0; s < steps; s++ {
				// Same global feed stream on both agents; each trainer
				// consumes its local shards.
				feeds, _ := lmFeeds(4, cfg.Batch, cfg.Vocab, int64(s))
				loss, err := tr.Step(feeds)
				if err != nil {
					res.err = err
					return
				}
				res.losses = append(res.losses, loss)
			}
			emb, err := tr.VarValue("embedding")
			if err != nil {
				res.err = err
				return
			}
			res.emb = emb.Data()
			sent, recv := tr.LastStep().WireSentBytes, tr.LastStep().WireRecvBytes
			if sent == 0 || recv == 0 {
				t.Errorf("agent %d reported no wire traffic (%d/%d)", p, sent, recv)
			}
		}(p)
	}
	wg.Wait()
	for p := range results {
		if results[p].err != nil {
			t.Fatalf("agent %d: %v", p, results[p].err)
		}
	}
	refEmb, err := ref.VarValue("embedding")
	if err != nil {
		t.Fatal(err)
	}
	for p, res := range results {
		for s := range refLosses {
			if math.Float64bits(res.losses[s]) != math.Float64bits(refLosses[s]) {
				t.Fatalf("agent %d step %d loss %x, in-process %x",
					p, s, math.Float64bits(res.losses[s]), math.Float64bits(refLosses[s]))
			}
		}
		for i, v := range refEmb.Data() {
			if math.Float32bits(res.emb[i]) != math.Float32bits(v) {
				t.Fatalf("agent %d embedding[%d] %x, in-process %x",
					p, i, math.Float32bits(res.emb[i]), math.Float32bits(v))
			}
		}
	}
}

// TestDistributedClipAndAGVOverTCP drives the remaining wire paths: the
// AllReduce-only architecture routes the sparse gradient through ring
// AllGatherv (sparse frames on the wire), and global-norm clipping
// exercises the chief's norm read-back and deferred scaled applies.
func TestDistributedClipAndAGVOverTCP(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	const steps = 4
	for _, tc := range []struct {
		name   string
		arch   core.Arch
		mutate func(*Options)
	}{
		{"agv", core.ArchAR, nil},
		{"clip", core.ArchHybrid, func(o *Options) { o.LocalAggregation = true; o.ClipNorm = 0.7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := newTrainer(t, cfg, tc.arch, ri, 2, tc.mutate)
			refLosses := make([]float64, steps)
			for s := 0; s < steps; s++ {
				feeds, _ := lmFeeds(4, cfg.Batch, cfg.Vocab, int64(s))
				loss, err := ref.Step(feeds)
				if err != nil {
					t.Fatal(err)
				}
				refLosses[s] = loss
			}
			topo := transport.Topology{Workers: 4, Machines: 2, MachineOfWorker: ri.WorkerMachines()}
			fabs := dialTestFabrics(t, topo)
			var wg sync.WaitGroup
			losses := [2][]float64{}
			errs := [2]error{}
			for p := 0; p < 2; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					g := models.BuildTinyLM(cfg)
					opts := Options{
						Plan:         planFor(t, g, tc.arch, ri.NumMachines(), 2),
						Resource:     ri,
						NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.2) },
						Fabric:       fabs[p],
					}
					if tc.mutate != nil {
						tc.mutate(&opts)
					}
					tr, err := New(g, opts)
					if err != nil {
						errs[p] = err
						return
					}
					defer tr.Close()
					for s := 0; s < steps; s++ {
						feeds, _ := lmFeeds(4, cfg.Batch, cfg.Vocab, int64(s))
						loss, err := tr.Step(feeds)
						if err != nil {
							errs[p] = err
							return
						}
						losses[p] = append(losses[p], loss)
					}
				}(p)
			}
			wg.Wait()
			for p := 0; p < 2; p++ {
				if errs[p] != nil {
					t.Fatalf("agent %d: %v", p, errs[p])
				}
				for s := range refLosses {
					if math.Float64bits(losses[p][s]) != math.Float64bits(refLosses[s]) {
						t.Fatalf("agent %d step %d loss %x, in-process %x",
							p, s, math.Float64bits(losses[p][s]), math.Float64bits(refLosses[s]))
					}
				}
			}
		})
	}
}

// TestCloseIdempotentNoLeaks pins the Close contract: double Close is
// safe and the persistent runtime (workers, comm goroutines, the fabric
// watcher, the fabric) fully unwinds — the -race build makes this meaningful.
func TestCloseIdempotentNoLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := models.DefaultTinyLM()
	g := models.BuildTinyLM(cfg)
	ri := cluster.Uniform(2, 2)
	tr, err := New(g, Options{
		Plan:         planFor(t, g, core.ArchHybrid, 2, 3),
		Resource:     ri,
		NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.2) },
	})
	if err != nil {
		t.Fatal(err)
	}
	feeds, _ := lmFeeds(4, cfg.Batch, cfg.Vocab, 1)
	if _, err := tr.Step(feeds); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Close()
	// A step against the closed trainer fails fast with the typed
	// sentinel instead of panicking on a closed channel.
	if _, err := tr.Step(feeds); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("step after Close: err = %v, want errs.ErrClosed", err)
	}
	if err := tr.Repartition(nil); !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("repartition after Close: err = %v, want errs.ErrClosed", err)
	}
	waitGoroutines(t, base)
}

// TestNewFailsCleanlyOnConduitFailure covers build-time transport
// errors: a fabric whose peer never answers surfaces a dial error from
// DialTCP, and a fabric whose topology disagrees with the cluster makes
// New fail and release the fabric — in both cases without leaking
// goroutines.
func TestNewFailsCleanlyOnConduitFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	ri := cluster.Uniform(2, 2)

	// Peer never comes up: the conduit fails to connect.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	_, err = transport.DialTCP(context.Background(), transport.TCPConfig{
		Topo:        transport.Topology{Workers: 4, Machines: 2, MachineOfWorker: ri.WorkerMachines()},
		Process:     1,
		Addrs:       []string{dead, "127.0.0.1:0"},
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "dialing peer") {
		t.Fatalf("dial error = %v", err)
	}

	// Fabric topology mismatch: New must reject it and close the fabric.
	g := models.BuildTinyLM(models.DefaultTinyLM())
	fab := transport.NewInproc(transport.Topology{Workers: 3, Machines: 1, MachineOfWorker: []int{0, 0, 0}})
	_, err = New(g, Options{
		Plan:         planFor(t, g, core.ArchHybrid, 2, 3),
		Resource:     ri,
		NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.2) },
		Fabric:       fab,
	})
	if !errors.Is(err, errs.ErrTopologyMismatch) {
		t.Fatalf("topology error = %v, want errs.ErrTopologyMismatch", err)
	}
	waitGoroutines(t, base)
}

// waitGoroutines polls until the goroutine count settles near base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
