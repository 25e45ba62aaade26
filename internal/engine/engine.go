// Package engine simulates synchronous data-parallel training of a
// paper-scale model on a simulated cluster, producing step times,
// throughput and per-machine network-transfer measurements. It owns the
// whole virtual-time plane below the experiments: the discrete-event
// kernel and FIFO resources (kernel.go), the NIC model (fabric.go), and
// the training state machines that run on them.
//
// The kernel fires events in (time, scheduling order), so a configuration
// always replays the same timeline and every paper table is reproducible
// to the bit. The NIC model gives each machine a full-duplex NIC — an
// egress and an ingress FIFO resource — plus a local bus, and counts the
// network bytes each machine sends and receives (Table 3's measure). A
// transfer is booked in two stages: the sender's egress from the moment
// the data is ready, the receiver's ingress in a second event at egress
// completion (plus latency). Both NICs' FIFO order is therefore data-
// arrival order, so a transfer that becomes ready later can never block
// one that is ready now.
//
// The engine is fully event-driven. Each worker is a small state machine:
// forward compute proceeds layer by layer, gated on the availability of
// each layer's variables for the current iteration; backward compute emits
// gradients in reverse layer order; each gradient triggers its variable's
// synchronization path (ring AllReduce, ring AllGatherv, or
// parameter-server push/aggregate/update/pull with optional local
// aggregation and partitioning); and the synchronized value's arrival
// unblocks the next iteration's forward pass. All queueing effects — NIC
// serialization at PS hot spots, CPU aggregation parallelism limits,
// compute/communication overlap across iterations — emerge from resource
// contention in virtual time rather than closed-form formulas, so the
// paper's Table 3 analysis can be *checked against* the simulation instead
// of being baked into it.
package engine

import (
	"fmt"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/models"
)

// Every run simulates iterations steps and measures the last
// iterations−warmup: the paper discards the first 50 of 100 sampling
// iterations (§3.2), scaled down here because the simulation reaches
// steady state within a few steps.
const (
	iterations = 8
	warmup     = 3
)

// Config describes one simulated training run.
type Config struct {
	Model *models.Spec
	Plan  *core.Plan
	// Machines and GPUsPerMachine shape the cluster.
	Machines, GPUsPerMachine int
	HW                       cluster.Hardware
	// LocalAggregation enables intra-machine gradient aggregation before
	// pushing to servers (part of Parallax's optimized PS, §4.3/§5).
	LocalAggregation bool
}

// Result holds the measured steady-state behaviour.
type Result struct {
	// StepTime is the steady-state seconds per iteration.
	StepTime float64
	// Throughput is units/sec across the whole cluster (images/s or
	// words/s).
	Throughput float64
	// BytesPerMachine is the per-iteration network transfer (sent+recv)
	// per machine, averaged over measured iterations.
	BytesPerMachine []float64
	// MessagesPerIter is the per-iteration network message count.
	MessagesPerIter float64
}

// MaxMachineBytes returns the largest per-machine transfer.
func (r Result) MaxMachineBytes() float64 {
	m := 0.0
	for _, b := range r.BytesPerMachine {
		if b > m {
			m = b
		}
	}
	return m
}

// AvgMachineBytes returns the mean per-machine transfer.
func (r Result) AvgMachineBytes() float64 {
	if len(r.BytesPerMachine) == 0 {
		return 0
	}
	s := 0.0
	for _, b := range r.BytesPerMachine {
		s += b
	}
	return s / float64(len(r.BytesPerMachine))
}

// Run simulates the configured training and returns measurements.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	r := newRunner(cfg)
	return r.run(), nil
}

func (cfg Config) validate() error {
	if cfg.Model == nil || cfg.Plan == nil {
		return fmt.Errorf("engine: nil model or plan")
	}
	if err := cfg.Model.Validate(); err != nil {
		return err
	}
	if cfg.Machines <= 0 || cfg.GPUsPerMachine <= 0 {
		return fmt.Errorf("engine: bad cluster %dx%d", cfg.Machines, cfg.GPUsPerMachine)
	}
	if len(cfg.Plan.ServerBytes) != cfg.Machines {
		return fmt.Errorf("engine: plan built for %d machines, cluster has %d",
			len(cfg.Plan.ServerBytes), cfg.Machines)
	}
	if len(cfg.Plan.Assignments) != len(cfg.Model.Vars) {
		return fmt.Errorf("engine: plan has %d assignments, model has %d variables",
			len(cfg.Plan.Assignments), len(cfg.Model.Vars))
	}
	return nil
}

// worker is the per-GPU training state machine.
type worker struct {
	id      int
	machine int
	iter    int // current iteration (0-based)
	layer   int // forward progress within iter
	inBwd   bool
	waiting bool // blocked on a variable pull/update
}

// runner holds the mutable simulation state.
type runner struct {
	cfg Config
	k   *kernel
	fab *fabric

	workers int
	ws      []*worker
	gpus    []resource
	// cpuStreams[m] are machine m's server-side aggregation streams.
	cpuStreams [][]resource

	// availIter[w][vi] counts how many times variable vi's fresh value has
	// been delivered to worker w; iteration i's forward needs
	// availIter >= i (values flow from iteration i-1's synchronization).
	availIter [][]int

	// varsByLayer[l] lists variable indices in layer l.
	varsByLayer [][]int

	// boundaries[i] is the max backward-finish time over workers for
	// iteration i.
	boundaries []vtime
	bwdLeft    []int // workers still in backward for iteration i

	fwdPer, bwdPer vtime

	comm []*varComm
}

func newRunner(cfg Config) *runner {
	k := &kernel{}
	r := &runner{
		cfg:     cfg,
		k:       k,
		fab:     newFabric(k, cfg.Machines, cfg.HW),
		workers: cfg.Machines * cfg.GPUsPerMachine,
		fwdPer:  vtime(cfg.Model.FwdTime / float64(cfg.Model.Layers)),
		bwdPer:  vtime(cfg.Model.BwdTime / float64(cfg.Model.Layers)),
	}
	r.ws = make([]*worker, r.workers)
	r.gpus = make([]resource, r.workers)
	r.availIter = make([][]int, r.workers)
	for w := 0; w < r.workers; w++ {
		r.ws[w] = &worker{id: w, machine: w / cfg.GPUsPerMachine}
		r.gpus[w].k = k
		r.availIter[w] = make([]int, len(cfg.Model.Vars))
		for vi := range r.availIter[w] {
			r.availIter[w][vi] = 1 // initial values are present everywhere
		}
	}
	r.cpuStreams = make([][]resource, cfg.Machines)
	for m := range r.cpuStreams {
		streams := make([]resource, cfg.HW.CPUAggParallelism)
		for i := range streams {
			streams[i].k = k
		}
		r.cpuStreams[m] = streams
	}
	r.varsByLayer = make([][]int, cfg.Model.Layers)
	for vi, v := range cfg.Model.Vars {
		r.varsByLayer[v.Layer] = append(r.varsByLayer[v.Layer], vi)
	}
	r.boundaries = make([]vtime, iterations)
	r.bwdLeft = make([]int, iterations)
	for i := range r.bwdLeft {
		r.bwdLeft[i] = r.workers
	}
	return r
}

// pickCPU returns the machine-m CPU stream that is free soonest.
func (r *runner) pickCPU(m int) *resource {
	streams := r.cpuStreams[m]
	best := &streams[0]
	for i := 1; i < len(streams); i++ {
		if streams[i].FreeAt() < best.FreeAt() {
			best = &streams[i]
		}
	}
	return best
}

func (r *runner) run() Result {
	r.initComm()
	for w := 0; w < r.workers; w++ {
		r.advance(r.ws[w])
	}
	r.k.Run()

	cfg := r.cfg
	measured := float64(iterations - warmup)
	warmBoundary := r.boundaries[warmup-1]
	lastBoundary := r.boundaries[iterations-1]
	stepTime := float64(lastBoundary-warmBoundary) / measured

	// Every iteration synchronizes every variable exactly once and the
	// kernel drains fully, so per-iteration traffic is total/iterations —
	// no window-edge effects.
	iters := float64(iterations)
	res := Result{
		StepTime:        stepTime,
		BytesPerMachine: make([]float64, cfg.Machines),
		MessagesPerIter: float64(r.fab.Transfers()) / iters,
	}
	if stepTime > 0 {
		res.Throughput = cfg.Model.UnitsPerStepPerGPU() * float64(r.workers) / stepTime
	}
	for m := range res.BytesPerMachine {
		res.BytesPerMachine[m] = float64(r.fab.TotalBytes(m)) / iters
	}
	return res
}

// advance drives worker w's state machine as far as data allows; it is
// called initially and whenever a variable the worker waits for arrives.
func (r *runner) advance(w *worker) {
	if w.iter >= iterations || w.inBwd {
		return
	}
	// Check variable availability for the current forward layer.
	for _, vi := range r.varsByLayer[w.layer] {
		if r.availIter[w.id][vi] <= w.iter {
			w.waiting = true
			return
		}
	}
	w.waiting = false
	r.gpus[w.id].Use(r.fwdPer, func() { r.forwardDone(w) })
}

func (r *runner) forwardDone(w *worker) {
	w.layer++
	if w.layer < r.cfg.Model.Layers {
		r.advance(w)
		return
	}
	// Start backward, top layer first.
	w.inBwd = true
	r.backwardLayer(w, r.cfg.Model.Layers-1)
}

func (r *runner) backwardLayer(w *worker, l int) {
	r.gpus[w.id].Use(r.bwdPer, func() {
		for _, vi := range r.varsByLayer[l] {
			r.gradProduced(w, vi)
		}
		if l > 0 {
			r.backwardLayer(w, l-1)
			return
		}
		r.backwardFinished(w)
	})
}

func (r *runner) backwardFinished(w *worker) {
	it := w.iter
	if now := r.k.Now(); now > r.boundaries[it] {
		r.boundaries[it] = now
	}
	r.bwdLeft[it]--
	w.inBwd = false
	w.layer = 0
	w.iter++
	r.advance(w)
}

// deliverVar records that variable vi's synchronized value reached worker w
// and wakes the worker if it was blocked on it.
func (r *runner) deliverVar(wid, vi int) {
	r.availIter[wid][vi]++
	w := r.ws[wid]
	if w.waiting {
		r.advance(w)
	}
}
