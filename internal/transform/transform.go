// Package transform turns a single-GPU computation graph into a running
// distributed training job, the reproduction of Parallax's automatic graph
// transformation (§4.3): it replicates the forward/backward graph onto one
// executor per GPU, routes every variable's gradient through the
// synchronization method its plan assigns (AllReduce, AllGatherv, or
// parameter servers with partitioning and optional local aggregation), and
// keeps the strict synchronous-training semantics — including the
// chief-worker path that reads aggregated gradients back for global-norm
// clipping (§5).
//
// The data plane rides on a pluggable wire transport (internal/transport,
// DESIGN.md §8): by default everything runs in one process over the
// channel fabric (workers are goroutines, the AR data plane is
// internal/collective, the PS data plane is internal/psrt), and with
// Options.Fabric a trainer hosts just one machine's share of the cluster
// — its GPUs' workers and its parameter server — exchanging gradients
// with peer agent processes over TCP. The virtual-time *performance* of
// the same topology is modelled by internal/engine; this package is the
// functional data plane used for correctness tests and convergence
// experiments.
//
// The trainer is a persistent runtime with a fused, overlapped
// synchronization schedule (DESIGN.md §3):
//
//   - New launches every goroutine the trainer will ever run, four kinds:
//     one long-lived compute goroutine per local GPU, one comm goroutine
//     per GPU, one serving goroutine per (local server, remote worker),
//     and one watcher that aborts the local servers' waits when the
//     fabric dies. Everything else the trainer does across its workers
//     — a step, a boundary agreement, the startup broadcast — is one
//     fan-out (onWorkers) onto the compute goroutines. Each local
//     machine's parameter server is a psrt.Server of the trainer's own,
//     which its variables are registered, resharded and aborted
//     through.
//   - All dense AllReduce variables are packed at build time into a few
//     size-capped fusion buckets; each step runs ONE collective per bucket
//     over a contiguous buffer instead of one per variable, and the
//     apply/clip paths read the aggregated gradients through precomputed
//     zero-copy views into the buckets.
//   - Gradients stream out of the backward pass in reverse-topological
//     order (graph.Exec's gradient-ready callback); the worker hands each
//     completed bucket, sparse gradient, and PS route to its comm goroutine
//     immediately, overlapping synchronization with the remaining backward
//     compute.
//   - PS traffic is batched per server (psrt.PullManyInto / PushDenseMany /
//     PushSparseMany). Remote servers are reached through psrt.Client
//     stubs speaking the same batched shapes over the conduit, and the
//     pull phase is pipelined across them: the worker sends every remote
//     server its request, serves the colocated pulls while those are in
//     flight, then collects the replies.
//   - Where the graph only gathers a PS variable (graph.GatherInputs),
//     the pull is row-addressed: each step a worker asks for the rows its
//     own feed names and for nothing of a partition it does not touch,
//     and its replica of such a table holds just those rows, packed
//     (graph.NewExec's rowVars). The servers alone hold the whole of it,
//     and everything that needs the whole — VarValue, snapshots,
//     reshards — reads it from them.
//
// Nothing after New spawns a goroutine or arms a timer — not Step, not
// an agreement, not Close — and Step builds no maps and formats no
// strings; all collective tags, fusion views, and pull destinations are
// resolved at build time, and the per-step pull lists are refilled in
// place.
//
// The PS routing is not frozen at build time: Repartition reshards the
// partition-target sparse variables to a new partition count between
// steps (DESIGN.md §9) — a gather/barrier/install protocol that
// migrates server state losslessly over either fabric — which is what
// lets the §3.2 partition search run against the live runtime
// (parallax.Config.SparsePartitions).
//
// The files follow that shape: transform.go builds the trainer (New),
// owns its fan-out and tears it down; worker.go is one hosted GPU — the
// worker value, its two goroutines and the Step they run; fusion.go packs
// the AllReduce buckets; ps.go holds the parameter-server routes, the
// aggregation slots, the pulls and pushes and VarValue; reshard.go
// is Repartition and the state install it shares with checkpoint.go's
// Snapshot and Restore.
package transform

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"parallax/internal/cluster"
	"parallax/internal/collective"
	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/graph"
	"parallax/internal/metrics"
	"parallax/internal/optim"
	"parallax/internal/psrt"
	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// Options configures a distributed trainer.
type Options struct {
	Plan     *core.Plan
	Resource cluster.ResourceInfo
	// NewOptimizer constructs a fresh optimizer; one instance is created
	// per AR replica and one per server, so stateful optimizers (momentum)
	// keep correctly scoped slots.
	NewOptimizer func() optim.Optimizer
	// LocalAggregation merges gradients inside each machine before pushing
	// to servers (Parallax's optimized PS).
	LocalAggregation bool
	// ClipNorm > 0 enables global-norm clipping across all variables; it
	// forces the deferred-update chief path on the servers.
	ClipNorm float64
	// FusionBytes caps the size of one dense-AllReduce fusion bucket.
	// 0 selects the default (4 MiB), the cap every session runs with; a
	// negative value disables fusion entirely — one bucket per variable —
	// which is the reference schedule the fusion equivalence tests
	// compare against (they also force several buckets with a small
	// cap). Either way
	// the synchronization results are bit-identical: the collective's
	// rank-ordered reduction makes float32 sums independent of bucket
	// layout.
	FusionBytes int64
	// Compression is the wire compression policy (DESIGN.md §11): dense
	// fusion buckets and PS pushes travel under its Codec, and TopK > 0
	// sparsifies the buckets with error feedback. The zero value is
	// CompressionNone — exact f32 everywhere, the CodecF32 instance of
	// the same path. All lossy rounding happens in the data plane at
	// fabric-symmetric points, so a compressed run is itself
	// bit-identical between the in-process and TCP fabrics. In
	// distributed mode every agent must configure the identical policy
	// (the TCP rendezvous enforces it).
	Compression transport.Policy
	// Fabric supplies the wire transport when the cluster spans agent
	// processes: the trainer hosts exactly the fabric's local endpoints
	// (one machine's workers and server) and reaches the rest over the
	// wire. nil builds a process-local channel fabric hosting everything
	// — the classic single-process mode. The trainer takes ownership of
	// the fabric and closes it (also on a failed New).
	//
	// Every agent must construct the identical graph and plan
	// (deterministic initializers with the same seed); AR-managed
	// variables are additionally broadcast from worker 0 at build time so
	// replicas start bit-identical.
	Fabric transport.Fabric
}

// varRoute is one variable's synchronization route: the method its plan
// assigns and everything that method needs resolved at build time.
type varRoute struct {
	v      *graph.Variable
	assign core.Assignment
	ranges []tensor.RowRange
	// parts[m] lists, ascending, the partitions machine m's server owns
	// (nil where it owns none); set with assign and ranges by partition.
	parts [][]int
	// rowInputs makes a PS route row-addressed: the graph's int inputs
	// whose ids are the only rows of v a step reads (GatherInputs). Each
	// step a worker then pulls just the rows its feed names into a
	// replica that holds only those; nil pulls every partition whole
	// into a whole replica.
	rowInputs []*graph.Node
	// slots are a PS route's aggregation slots, indexed by slotOf: one
	// per machine under LocalAggregation, one per worker without; merge
	// buffers exist only for slots hosted here.
	slots []aggSlot
	// bucket is a dense AllReduce route's fusion bucket, -1 for others.
	bucket int
	// agvTag is an AllGatherv route's precomputed collective tag, "" for
	// others.
	agvTag string
}

// workerFn is one worker's share of a fan-out (onWorkers): it runs on
// worker w's persistent goroutine and reports a value — a step's loss, 0
// where there is none — or an error.
type workerFn func(w *worker) (float64, error)

// Trainer executes synchronized data-parallel steps over persistent
// workers — all of them in single-process mode, one machine's share in
// distributed mode.
type Trainer struct {
	opt      Options
	workers  int
	machines int

	// Transport layout: the fabric, which machines this process hosts
	// (ascending), and whether any endpoint is remote.
	fab           transport.Fabric
	dist          bool
	localMachines []int

	// local holds the workers this process hosts, one per GPU, in
	// ascending global rank (worker.go).
	local []*worker

	// servers[m] is LOCAL machine m's parameter server, this trainer's
	// own; nil for machines hosted elsewhere, the whole slice nil when the
	// plan has no PS variables.
	servers []*psrt.Server
	routes  []varRoute
	// routeIdx resolves a variable name to its route index; read-only
	// after New, so the gradient-ready callback can use it concurrently.
	routeIdx map[string]int
	// buckets is the fusion schedule (dense AllReduce routes only).
	buckets []fuseBucket

	inputs  []*graph.Node // the graph's input nodes, for feed validation
	gathers []*graph.Node // the graph's Gather nodes, for id range checks

	bytesPushed atomic.Int64
	last        metrics.StepStats // the last Step's record (LastStep)

	done chan struct{} // one completion per worker and fan-out
	// bg counts every goroutine New started — workers, comm, serving
	// loops, the fabric watcher — so Close returns once all have exited.
	bg sync.WaitGroup

	closeOnce sync.Once
	closed    atomic.Bool
	step      int
}

// recoverClosed converts a recovered transport.ClosedPanic — the typed
// panic every collective/PS path raises when the fabric dies under it —
// into an error at *errp, preserving the first one. Any other panic
// value is a genuine bug and propagates. Use as:
//
//	defer t.recoverClosed(&err)
func (t *Trainer) recoverClosed(errp *error) {
	p := recover()
	if p == nil {
		return
	}
	cp, ok := p.(transport.ClosedPanic)
	if !ok {
		panic(p)
	}
	if *errp == nil {
		*errp = cp.Err
	}
}

// New builds a trainer for graph g under the given plan and resources and
// starts its persistent runtime. Call Close to stop the goroutines when
// the trainer is no longer needed.
func New(g *graph.Graph, opts Options) (*Trainer, error) {
	// The trainer owns opts.Fabric from the moment New is called: any
	// error, the pre-build validations' included, tears it down, so a
	// failed New leaks neither sockets nor goroutines.
	fab := opts.Fabric
	fail := func(err error) (*Trainer, error) {
		if fab != nil {
			fab.Close()
		}
		return nil, err
	}
	if opts.Plan == nil {
		return fail(fmt.Errorf("transform: nil plan"))
	}
	if err := opts.Resource.Validate(); err != nil {
		return fail(err)
	}
	if opts.NewOptimizer == nil {
		return fail(fmt.Errorf("transform: NewOptimizer is required"))
	}
	vars := g.Variables()
	if len(opts.Plan.Assignments) != len(vars) {
		return fail(fmt.Errorf("transform: plan has %d assignments for %d variables",
			len(opts.Plan.Assignments), len(vars)))
	}
	for _, a := range opts.Plan.Assignments {
		if a.TreatAsDense {
			return fail(fmt.Errorf("transform: %s: sparse variable promoted to dense AllReduce; the α-threshold rule is simulated only", a.Name))
		}
	}
	if err := opts.Compression.Validate(); err != nil {
		return fail(err)
	}

	workers := opts.Resource.TotalGPUs()
	machines := opts.Resource.NumMachines()
	topo := transport.Topology{
		Workers:         workers,
		Machines:        machines,
		MachineOfWorker: opts.Resource.WorkerMachines(),
	}
	if fab == nil {
		fab = transport.NewInproc(topo)
	}
	t := &Trainer{
		opt: opts, workers: workers, machines: machines,
		fab: fab, dist: fab.Distributed(),
	}
	if ft := fab.Topology(); ft.Workers != workers || ft.Machines != machines {
		return fail(fmt.Errorf("transform: %w: fabric topology %d workers / %d machines, cluster has %d / %d",
			errs.ErrTopologyMismatch, ft.Workers, ft.Machines, workers, machines))
	} else if ft.MachineOfWorker != nil {
		// The worker→machine layout must agree too: slots, pull routing,
		// and serving loops all assume fabric locality matches the
		// resource layout.
		for w, m := range topo.MachineOfWorker {
			if ft.MachineOfWorker[w] != m {
				return fail(fmt.Errorf("transform: %w: fabric places worker %d on machine %d, cluster on %d",
					errs.ErrTopologyMismatch, w, ft.MachineOfWorker[w], m))
			}
		}
	}

	for m := 0; m < machines; m++ {
		if fab.Local(topo.ServerEndpoint(m)) {
			t.localMachines = append(t.localMachines, m)
		}
	}
	// Route variables. A PS route the graph only gathers is
	// row-addressed: its pull names rows, and each replica stores just
	// the rows a step gathers.
	anyPS := false
	var rowVars []string
	t.routeIdx = make(map[string]int, len(vars))
	for i, v := range vars {
		a := opts.Plan.Assignments[i]
		if a.Name != v.Name {
			return fail(fmt.Errorf("transform: plan assignment %d is %q, variable is %q", i, a.Name, v.Name))
		}
		r := varRoute{v: v, assign: a, bucket: -1}
		switch a.Method {
		case core.MethodPS:
			anyPS = true
			r.partition(a, machines)
			if r.rowInputs = g.GatherInputs(v); r.rowInputs != nil {
				rowVars = append(rowVars, v.Name)
			}
		case core.MethodAllGatherv:
			r.agvTag = "agv/" + v.Name
		}
		t.routeIdx[v.Name] = len(t.routes)
		t.routes = append(t.routes, r)
	}

	// Replicate the graph: one executor per local GPU (§4.3: "main
	// computation operations ... are replicated as many as the number of
	// GPUs"; remote GPUs are replicated by their own agents). A worker
	// knows its machine and its GPU index there, so the push hot path
	// never scans the resource layout.
	gpus := make([]int, machines) // GPUs of each machine seen so far
	for rank, m := range topo.MachineOfWorker {
		gpu := gpus[m]
		gpus[m]++
		if !fab.Local(rank) {
			continue
		}
		e, err := graph.NewExec(g, rowVars...)
		if err != nil {
			return fail(err)
		}
		t.local = append(t.local, &worker{
			rank: rank, machine: m, gpu: gpu, exec: e, opt: opts.NewOptimizer(),
			comm: collective.NewComm(fab.Conduit(rank), topo.MachineOfWorker),
		})
	}
	if len(t.local) == 0 {
		return fail(fmt.Errorf("transform: fabric hosts no worker of this cluster"))
	}

	// One server per local machine if needed (§4.2: "if sparse variables
	// are included in the graph, Parallax launches a server process for
	// each machine"), each with its own optimizer instance; and one
	// endpoint row per local worker: direct calls to colocated servers,
	// wire stubs for remote ones.
	if anyPS {
		sources := workers
		if opts.LocalAggregation {
			sources = machines
		}
		t.servers = make([]*psrt.Server, machines)
		for _, m := range t.localMachines {
			var err error
			t.servers[m], err = psrt.NewServer(psrt.Config{
				Sources:      sources,
				Optimizer:    opts.NewOptimizer(),
				DeferUpdates: opts.ClipNorm > 0,
				MeanDivisor:  workers,
			})
			if err != nil {
				return fail(err)
			}
		}
		for _, r := range t.routes {
			if r.assign.Method != core.MethodPS {
				continue
			}
			// Machine-ordered registration: each server's own state is
			// independent, but the registration sequence is part of the §8
			// deterministic startup discipline.
			for m, srv := range t.servers {
				if srv == nil || len(r.parts[m]) == 0 {
					continue // hosted by another agent, or not one of r's servers
				}
				if err := srv.AddVar(r.v.Name, r.v.Init, r.ranges, r.parts[m], r.assign.Sparse); err != nil {
					return fail(err)
				}
			}
		}
		for _, w := range t.local {
			w.ps = make([]psrt.Endpoint, machines)
			for m := 0; m < machines; m++ {
				if t.servers[m] != nil {
					w.ps[m] = t.servers[m]
				} else {
					cl := psrt.NewClient(fab.Conduit(w.rank), topo.ServerEndpoint(m))
					cl.SetCodec(opts.Compression.Codec)
					w.ps[m] = cl
				}
			}
		}
	}

	t.buildFusion()
	t.buildSlots()
	t.buildPullReqs()
	for _, n := range g.Nodes() {
		switch n.Kind {
		case graph.OpInput:
			t.inputs = append(t.inputs, n)
		case graph.OpGather:
			t.gathers = append(t.gathers, n)
		}
	}

	// Start the persistent runtime — every goroutine the trainer will
	// ever run: compute workers, comm goroutines, and serving loops
	// answering remote workers' PS traffic against the local servers.
	t.done = make(chan struct{}, workers)
	for _, w := range t.local {
		w.arSparse = make([]*tensor.Sparse, len(t.routes))
		w.tasks = make(chan workerFn)
		// Room for every task of a step and its flush: handing one off
		// never blocks the backward sweep.
		w.commQ = make(chan commTask, 4+len(t.buckets)+len(t.routes))
		w.commAck = make(chan error)
		if t.dist {
			w.lossGather = make([]float64, workers)
		}
		t.bg.Add(2)
		go t.commLoop(w)
		go t.workerLoop(w)
	}
	if anyPS && t.dist {
		for m, srv := range t.servers {
			if srv == nil {
				continue
			}
			srvConduit := fab.Conduit(topo.ServerEndpoint(m))
			for w := 0; w < workers; w++ {
				if fab.Local(w) {
					continue
				}
				t.bg.Add(1)
				go func(srv *psrt.Server, w int) {
					defer t.bg.Done()
					// A reply hitting a dead fabric raises ClosedPanic;
					// the serving loop just ends (the requester is gone).
					defer t.recoverClosed(new(error))
					psrt.ServeConduit(srv, srvConduit, w)
				}(srv, w)
			}
		}
	}
	if anyPS {
		// The synchronous protocol's version waits are satisfied by peer
		// pushes, so a dead peer would park local workers (and serving
		// loops answering other survivors) inside a server cond.Wait
		// forever — a condition variable the fabric cannot cancel. Watch
		// for fabric death and abort every local server with the
		// attributed failure.
		t.bg.Add(1)
		go func() {
			defer t.bg.Done()
			<-fab.Done()
			err := fab.Err()
			if err == nil {
				err = fmt.Errorf("psrt: transport %w", errs.ErrClosed)
			}
			for _, srv := range t.servers {
				if srv != nil {
					srv.Abort(err)
				}
			}
		}()
	}
	// Distributed startup: broadcast worker 0's AR-managed variable
	// values so replicas across agents start bit-identical even if an
	// agent's initializer drifted. A peer dying during the exchange fails
	// New with its attributed error instead of crashing.
	if t.dist {
		err := t.onWorkers("startup broadcast", func(w *worker) (float64, error) {
			for _, r := range t.routes {
				if r.assign.Method != core.MethodPS {
					collective.Broadcast(w.comm, "init/"+r.v.Name, w.exec.VarValue(r.v.Name), 0)
				}
			}
			return 0, nil
		})
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transform: startup broadcast: %w", err)
		}
	}
	return t, nil
}

// Workers returns the number of model replicas (GPUs) across the whole
// cluster.
func (t *Trainer) Workers() int { return t.workers }

// LocalWorkers returns the global ranks of the workers this trainer
// hosts (all of them in single-process mode), in ascending order.
func (t *Trainer) LocalWorkers() []int {
	ranks := make([]int, len(t.local))
	for i, w := range t.local {
		ranks[i] = w.rank
	}
	return ranks
}

// Distributed reports whether the trainer spans agent processes.
func (t *Trainer) Distributed() bool { return t.dist }

// Close stops the persistent goroutines (workers, comm, serving loops,
// the fabric watcher), closes the fabric and returns once all of them
// have exited; it waits for no peer. In distributed mode the fabric's
// goodbye is the whole shutdown protocol (DESIGN.md §8): what this agent
// owes its peers for the last boundary they agreed on — a step, an
// agreement, a VarValue — was written before that boundary completed
// here. The closing fabric wakes the watcher, whose server abort
// releases a serving loop parked on a version wait. Idempotent; the
// trainer must not be used afterwards.
func (t *Trainer) Close() {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		for _, w := range t.local {
			close(w.tasks)
			close(w.commQ)
		}
		t.fab.Close()
		t.bg.Wait()
	})
}

// live refuses an operation on a closed trainer before it can touch the
// closed fabric or task channels.
func (t *Trainer) live(what string) error {
	if t.closed.Load() {
		return fmt.Errorf("transform: %s on %w trainer", what, errs.ErrClosed)
	}
	return nil
}

// onWorkers is the trainer's one fan-out — Step, AgreeMax and New's
// startup broadcast are its instances: fn runs once on every local
// worker's persistent goroutine and onWorkers returns when all have
// finished, each worker's value and error in its out and err. Of
// several errors the lowest rank's is kept, and the trainer then
// fail-stops (failStep). It must not run concurrently with itself.
func (t *Trainer) onWorkers(what string, fn workerFn) error {
	if err := t.live(what); err != nil {
		return err
	}
	for _, w := range t.local {
		w.tasks <- fn
	}
	for range t.local {
		<-t.done
	}
	// Results stay with their workers and are read in rank order, so
	// nothing downstream — a float64 sum, the reported error — depends
	// on the order workers finish in.
	for _, w := range t.local {
		if w.err != nil {
			return t.failStep(w.err)
		}
	}
	return nil
}

// AgreeMax is the cluster-wide scalar agreement every session-level
// decision rides on: each worker all-gathers v in rank order under tag
// and folds the maximum, so all agents see the same bits and derive the
// same decision — the step-boundary control word (stop request and
// membership proposal, DESIGN.md §10/§14), the restore-step check after
// a rendezvous, the sampled step times that keep adaptive
// repartitioning in lockstep, and (with v = 0) a plain barrier. Every
// agent must call it at the same points with the same tag; it must not
// run concurrently with Step. Single-process trainers return v
// unchanged. A closed trainer refuses with ErrClosed, single-process or
// not; any other non-nil error means the fabric died mid-agreement (peer
// failure), and the trainer is torn down fail-stop, exactly like a
// failed Step.
func (t *Trainer) AgreeMax(tag string, v float64) (float64, error) {
	if err := t.live("agreement"); err != nil {
		return 0, err
	}
	if !t.dist {
		return v, nil
	}
	err := t.onWorkers("agreement", func(w *worker) (float64, error) {
		collective.AllGatherScalarsInto(w.comm, tag, v, w.lossGather)
		return 0, nil
	})
	if err != nil {
		return 0, err
	}
	return slices.Max(t.local[0].lossGather), nil
}

// failStep handles a step error: in distributed mode the cluster cannot
// continue the current epoch (peers are blocked mid-protocol against
// this agent's ranks), so the fabric is torn down fail-stop before the
// error is surfaced; the trainer must not be stepped again. When the
// fabric recorded a rank-attributed peer failure, the returned error is
// upgraded to carry it — whatever local symptom arrived first (a closed
// conduit, an aborted server wait), the caller sees ErrPeerFailed with
// the failed rank, which is what recovery policies key on. The session
// layer may then rebuild a whole new trainer at the next epoch
// (DESIGN.md §12). Single-process errors pass through untouched —
// everything stays local and recoverable — except that a chaos
// injector's kill records a rank-attributed failure the caller must see
// (the in-process analogue of a peer crash).
func (t *Trainer) failStep(err error) error {
	if t.dist {
		t.fab.Close()
	}
	if fe := t.fab.Err(); fe != nil && !errors.Is(err, errs.ErrPeerFailed) {
		err = fmt.Errorf("%w (first local symptom: %v)", fe, err)
	}
	return err
}
