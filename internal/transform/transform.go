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
//     machine's parameter server — a fresh one, or a resident fleet's —
//     is joined under the trainer's psrt.Namespace (the anonymous one
//     unless a fleet is named), the one handle variables are
//     registered, resharded, aborted and dropped through.
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
//   - Where the graph only gathers a PS variable (gatherInputs), the pull
//     is row-addressed: each step a worker asks for the rows its own feed
//     names and for nothing of a partition it does not touch. Its replica
//     of such a table is a cache of gathered rows; the servers alone hold
//     the whole of it, and everything that needs the whole — VarValue,
//     snapshots, reshards — reads it from them.
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
package transform

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parallax/internal/cluster"
	"parallax/internal/collective"
	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/graph"
	"parallax/internal/optim"
	"parallax/internal/psrt"
	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// defaultFusionBytes caps one fusion bucket at 4 MiB, big enough to fuse
// every dense variable of the test-scale models into a single collective
// while keeping paper-scale buckets small enough that the first bucket's
// all-reduce can still overlap the tail of the backward pass.
const defaultFusionBytes = 4 << 20

// Options configures a distributed trainer.
type Options struct {
	Plan     *core.Plan
	Resource cluster.ResourceInfo
	// NewOptimizer constructs a fresh optimizer; one instance is created
	// per AR replica and one per server, so stateful optimizers (momentum)
	// keep correctly scoped slots.
	NewOptimizer func() optim.Optimizer
	DenseAgg     optim.AggMethod
	SparseAgg    optim.AggMethod
	// LocalAggregation merges gradients inside each machine before pushing
	// to servers (Parallax's optimized PS).
	LocalAggregation bool
	// ClipNorm > 0 enables global-norm clipping across all variables; it
	// forces the deferred-update chief path on the servers.
	ClipNorm float64
	// FusionBytes caps the size of one dense-AllReduce fusion bucket.
	// 0 selects the default (4 MiB); a negative value disables fusion
	// entirely — one bucket per variable — which is the reference
	// schedule the fusion equivalence tests compare against. Either way
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
	// Resident, when set, hosts this trainer's PS variables on the given
	// long-lived fleet's servers instead of fresh ones — the multi-tenant
	// service mode. PSNamespace must then name the tenant (e.g.
	// "tenant/jobID"); every variable is registered under it so
	// same-named variables of concurrent jobs never collide. Without a
	// fleet the namespace is the anonymous one, "". Either way the
	// namespace is dropped wholesale when the trainer closes. A fleet
	// lives in the daemon's process, so it cannot be combined with a
	// distributed Fabric.
	Resident    *psrt.Fleet
	PSNamespace string
}

type varRoute struct {
	v      *graph.Variable
	assign core.Assignment
	ranges []tensor.RowRange
	// psName is the name this variable is served under on its PS servers:
	// v.Name qualified with the trainer's namespace (v.Name itself under
	// the anonymous one). Precomputed so the pull/push/clip hot paths and
	// snapshot/restore never re-derive it.
	psName string
	// rowInputs makes a PS route's pull row-addressed: the graph's int
	// inputs whose ids are the only rows of v a step reads (gatherInputs).
	// Each step a worker then pulls just the rows its feed names; nil
	// pulls every partition whole.
	rowInputs []*graph.Node
}

// gatherInputs returns the int inputs indexing v when the graph only
// gathers v — its gradient is sparse — and every such Gather takes its
// indices straight from a graph input, so a feed names every row of v a
// step can read; nil otherwise. It is a property of the graph alone:
// whatever the optimizer does to rows a step does not read, the replica
// does not look at them.
func gatherInputs(g *graph.Graph, v *graph.Variable) []*graph.Node {
	if g.GradKind(v) != graph.GradSparse {
		return nil
	}
	var ins []*graph.Node
	for _, n := range g.Nodes() {
		if n.Kind != graph.OpGather || n.Inputs[0].Var != v {
			continue
		}
		idx := n.Inputs[1]
		if idx.Kind != graph.OpInput {
			return nil
		}
		if !slices.Contains(ins, idx) {
			ins = append(ins, idx)
		}
	}
	return ins
}

// workerFn is one worker's share of a fan-out (onWorkers): it runs on
// worker w's persistent goroutine and reports a value — a step's loss, 0
// where there is none — or an error.
type workerFn func(w int) (float64, error)

// taskResult is one worker's completion report.
type taskResult struct {
	worker int
	v      float64
	err    error
}

// fuseBucket is one fused dense-AllReduce collective: a set of routes
// whose gradients live contiguously in a per-worker fusion buffer.
type fuseBucket struct {
	tags   collective.Tags
	routes []int // route indices, in declaration order
	elems  int
}

// commKind discriminates comm-goroutine tasks.
type commKind int

const (
	commBucket commKind = iota // all-reduce fusion bucket idx
	commSparse                 // AllGatherv route idx
	commPS                     // parameter-server push for route idx
	commFlush                  // report first error, reset, ack
)

// commTask is one unit of synchronization work handed to a worker's comm
// goroutine. Tasks carry their gradient pointers so the comm goroutine
// never reads the executor's GradSet maps, which the compute goroutine
// keeps mutating during the backward sweep.
type commTask struct {
	kind   commKind
	idx    int
	dense  *tensor.Dense
	sparse *tensor.Sparse
}

// phaseTimes is one worker's per-step phase breakdown. pull, compute and
// wait are written by the worker goroutine, comm by its comm goroutine;
// the flush ack orders comm's writes before the worker's read.
type phaseTimes struct {
	pull    time.Duration // the synchronous PS pull at the head of the step
	compute time.Duration // forward+backward wall clock
	comm    time.Duration // comm goroutine busy time
	wait    time.Duration // drain time after compute ended (exposed comm)
}

// PhaseStats is the per-step phase breakdown of the slowest worker:
// Compute is graph execution, Comm is synchronization busy time, and
// SyncWait is the part of Comm that was NOT hidden under compute — the
// PS pull at the head of the step, which nothing overlaps, plus the time
// the worker sat waiting for its comm goroutine to drain after the
// backward pass finished. Comm−SyncWait is therefore the overlap won by
// dispatching synchronization mid-backprop.
type PhaseStats struct {
	Compute  time.Duration
	Comm     time.Duration
	SyncWait time.Duration
}

// aggSlot collects one machine's worker gradients for one variable in one
// step; the last worker to arrive acts as the machine's local chief and
// pushes the merged gradient (§5: "a worker in the machine becomes a local
// chief worker to collect gradients within a machine and send them to
// servers"). Slots are resolved to (route, machine) integer indices at
// build time and reset in place between steps, so the hot loop never
// touches a map or formats a key.
//
// Gradients park in per-local-GPU entries and the chief merges them in
// GPU-rank order, NOT arrival order: float32 addition is commutative but
// not associative, so an arrival-order fold would make the merged
// gradient depend on goroutine scheduling — and wire jitter would make a
// TCP run drift from the in-process run in the last ulp. Rank-ordered
// merging keeps the loss trajectory bitwise identical across runs and
// deployment modes. Parking the pointers is safe: they stay valid until
// the owning worker's next backward pass, which cannot start before the
// current synchronous step completes.
type aggSlot struct {
	mu        sync.Mutex
	got       int
	sparse    []*tensor.Sparse // [localGPU] this step's sparse gradients
	denseSrcs []*tensor.Dense  // [localGPU] this step's dense gradients
	dense     *tensor.Dense    // preallocated merge buffer (dense variables)
}

// Trainer executes synchronized data-parallel steps over persistent
// workers — all of them in single-process mode, one machine's share in
// distributed mode.
type Trainer struct {
	g        *graph.Graph
	opt      Options
	workers  int
	machines int

	// Transport layout: the fabric, which worker ranks and machines this
	// process hosts, and whether any endpoint is remote.
	fab          transport.Fabric
	topo         transport.Topology
	dist         bool
	localWorkers []int  // ascending global ranks hosted here
	isLocalW     []bool // [w]
	localMachine []bool // [m]
	// Worker geometry resolved at build time so the push hot path never
	// scans the resource layout: worker w runs on machine
	// workerMachine[w] as its localGPU[w]-th GPU; machineGPUs[m] is
	// machine m's GPU count.
	workerMachine []int
	localGPU      []int
	machineGPUs   []int

	// Per-worker state; slices are indexed by global worker rank with nil
	// entries for workers hosted by other agents.
	execs  []*graph.Exec
	comms  []*collective.Comm
	arOpts []optim.Optimizer

	// ns[m] is this trainer's namespace on LOCAL machine m's server (the
	// fleet's, or a fresh one); nil for machines hosted elsewhere, the
	// whole slice nil when the plan has no PS variables. Variable
	// registration, resharding, checkpoint slot metadata, abort and drop
	// go through the handle with UNqualified names — qualification is
	// the handle's concern, which keeps checkpoint records namespace-free
	// and portable between deployments; the data plane reaches the
	// server behind it under the qualified names.
	ns []*psrt.Namespace
	// ps[w][m] is worker w's endpoint for machine m's server: the server
	// itself when colocated, a psrt.Client stub over the conduit when
	// remote. Non-nil only for local workers (and only when PS routes
	// exist).
	ps     [][]psrt.Endpoint
	routes []varRoute
	// routeIdx resolves a variable name to its route index; read-only
	// after New, so the gradient-ready callback can use it concurrently.
	routeIdx map[string]int

	// Fusion schedule (dense AllReduce routes only).
	buckets  []fuseBucket
	bucketOf []int             // [ri] -> bucket index, -1 for non-fused routes
	fuseBufs [][]*tensor.Dense // [w][b]: flat per-worker fusion buffers
	// fuseViews[w][ri] is a zero-copy view shaped like route ri's variable
	// into worker w's fusion buffer; the apply/clip paths read aggregated
	// gradients through it.
	fuseViews [][]*tensor.Dense
	agvTags   []string // [ri]: precomputed AllGatherv tag, "" for others
	// Top-k error-feedback state, allocated only when
	// Compression.TopK > 0: fuseResid[w][b] is worker w's residual
	// for bucket b (what its selections have not shipped yet), and
	// topkScratch[w] is the selection workspace of w's comm goroutine.
	fuseResid   [][]*tensor.Dense
	topkScratch []collective.TopKScratch

	// slots[ri][m] is the local-aggregation slot for route ri on machine
	// m; merge buffers exist only for machines hosted here.
	slots [][]aggSlot
	// slotViews[ri][m][pi] is a zero-copy partition view into
	// slots[ri][m].dense, precomputed for dense variables.
	slotViews [][][]*tensor.Dense
	// pullReqs[w][m] is the batched pull request list worker w issues to
	// server m at the top of a step, refilled from the step's feed
	// (stepPullReqs); pullDst[w][ri][pi] is a request's destination, a
	// zero-copy view of partition pi's rows in the worker's replica
	// storage, and pullRows[w][ri] the scratch a row-addressed route's
	// sorted ids — and the requests' row lists, which alias it — live in.
	pullReqs [][][]psrt.PullReq
	pullDst  [][][]*tensor.Dense
	pullRows [][][]int
	// psServers[ri] lists the servers hosting route ri's partitions (in
	// first-appearance order); psParts[ri][k] are the partition indices
	// owned by psServers[ri][k].
	psServers [][]int
	psParts   [][][]int
	// arSparse[w][ri] holds worker w's AllGatherv-aggregated gradient for
	// route ri within a step (indexed, not keyed, to avoid per-step maps).
	arSparse [][]*tensor.Sparse

	inputs  []*graph.Node // the graph's input nodes, for feed validation
	gathers []*graph.Node // the graph's Gather nodes, for id range checks

	bytesPushed atomic.Int64
	wireBase    transport.Stats // fabric counters at the top of the step
	lastWire    transport.Stats // wire bytes moved during the last step

	tasks   []chan workerFn // one per persistent worker
	done    chan taskResult
	lossBuf []float64 // [w]: the last fan-out's per-worker values
	// lossGather[w] is worker w's scratch for the distributed loss
	// exchange (one slot per global worker, filled in rank order).
	lossGather [][]float64

	// Overlap runtime: one comm goroutine per worker (ordered collectives
	// and PS pushes).
	comm          []chan commTask
	commAck       []chan error
	bucketPending [][]int             // [w][b]: routes not yet copied this step
	psDenseReqs   [][]psrt.DensePush  // [w] scratch, reused across pushes
	psSparseReqs  [][]psrt.SparsePush // [w] scratch

	// bg counts every goroutine New started — workers, comm, serving
	// loops, the fabric watcher — so Close returns once all have exited.
	bg sync.WaitGroup

	phases    []phaseTimes // [w], reset by the worker each step
	lastPhase PhaseStats

	closeOnce sync.Once
	closed    atomic.Bool
	step      int

	// stepHook, when the fabric implements SetStep(int) (the chaos
	// fault-injection wrapper), is invoked at the top of every Step so
	// step-indexed faults fire deterministically. Nil otherwise.
	stepHook func(int)
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

// dropNamespaces releases this trainer's namespaces from their servers.
// Idempotent, and deliberately non-mutating: the fabric-death watcher
// reads t.ns concurrently, and aborting a dropped namespace is harmless.
func (t *Trainer) dropNamespaces() {
	for _, ns := range t.ns {
		if ns != nil {
			ns.Drop()
		}
	}
}

// ownedBy lists the partitions a placement assigns to machine m.
func ownedBy(servers []int, m int) []int {
	var owned []int
	for pi, srv := range servers {
		if srv == m {
			owned = append(owned, pi)
		}
	}
	return owned
}

// New builds a trainer for graph g under the given plan and resources and
// starts its persistent runtime. Call Close to stop the goroutines when
// the trainer is no longer needed.
func New(g *graph.Graph, opts Options) (*Trainer, error) {
	// The trainer owns opts.Fabric from the moment New is called: any
	// error, the pre-build validations' included, tears it down, so a
	// failed New leaks neither sockets nor goroutines, nor leaves its
	// namespace claimed on servers that outlive it.
	fab := opts.Fabric
	var t *Trainer
	fail := func(err error) (*Trainer, error) {
		if t != nil {
			t.dropNamespaces()
		}
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
	if err := opts.Compression.Validate(); err != nil {
		return fail(err)
	}
	if opts.Resident != nil {
		// Resident fleets are an in-daemon construct: remote agents have no
		// conduit to a fleet server, and a per-tenant namespace abort must
		// never be escalated to a whole-fleet one by the fabric watcher.
		if opts.Fabric != nil {
			return fail(fmt.Errorf("transform: resident PS fleet requires single-process mode"))
		}
		if opts.PSNamespace == "" {
			return fail(fmt.Errorf("transform: resident PS fleet requires a namespace"))
		}
		if opts.Resident.Machines() < opts.Resource.NumMachines() {
			return fail(fmt.Errorf("transform: cluster spans %d machines, resident fleet has %d",
				opts.Resource.NumMachines(), opts.Resident.Machines()))
		}
	} else if opts.PSNamespace != "" {
		return fail(fmt.Errorf("transform: PS namespace %q without a resident fleet", opts.PSNamespace))
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
	t = &Trainer{
		g: g, opt: opts, workers: workers, machines: machines,
		fab: fab, topo: topo, dist: fab.Distributed(),
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

	t.isLocalW = make([]bool, workers)
	for w := 0; w < workers; w++ {
		if fab.Local(w) {
			t.isLocalW[w] = true
			t.localWorkers = append(t.localWorkers, w)
		}
	}
	t.localMachine = make([]bool, machines)
	for m := 0; m < machines; m++ {
		t.localMachine[m] = fab.Local(topo.ServerEndpoint(m))
	}
	t.workerMachine = topo.MachineOfWorker
	t.localGPU = make([]int, workers)
	t.machineGPUs = make([]int, machines)
	for w, m := range t.workerMachine {
		t.localGPU[w] = t.machineGPUs[m]
		t.machineGPUs[m]++
	}
	if len(t.localWorkers) == 0 {
		return fail(fmt.Errorf("transform: fabric hosts no worker of this cluster"))
	}

	// Replicate the graph: one executor per local GPU (§4.3: "main
	// computation operations ... are replicated as many as the number of
	// GPUs"; remote GPUs are replicated by their own agents).
	t.execs = make([]*graph.Exec, workers)
	t.arOpts = make([]optim.Optimizer, workers)
	t.comms = make([]*collective.Comm, workers)
	for _, w := range t.localWorkers {
		e, err := graph.NewExec(g)
		if err != nil {
			return fail(err)
		}
		t.execs[w] = e
		t.arOpts[w] = opts.NewOptimizer()
		t.comms[w] = collective.NewComm(fab.Conduit(w), topo.MachineOfWorker)
	}

	// Route variables.
	anyPS := false
	t.routeIdx = make(map[string]int, len(vars))
	for i, v := range vars {
		a := opts.Plan.Assignments[i]
		if a.Name != v.Name {
			return fail(fmt.Errorf("transform: plan assignment %d is %q, variable is %q", i, a.Name, v.Name))
		}
		r := varRoute{v: v, assign: a}
		if a.Method == core.MethodPS {
			anyPS = true
			r.ranges = tensor.PartitionRows(v.Shape[0], a.Partitions)
			r.psName = psrt.QualifiedName(opts.PSNamespace, v.Name)
			r.rowInputs = gatherInputs(g, v)
		}
		t.routeIdx[v.Name] = len(t.routes)
		t.routes = append(t.routes, r)
	}

	// One server per local machine if needed (§4.2: "if sparse variables
	// are included in the graph, Parallax launches a server process for
	// each machine") — the fleet's resident one or a fresh one — joined
	// under this trainer's namespace, which carries its own optimizer
	// instance; and one endpoint row per local worker: direct calls to
	// colocated servers, wire stubs for remote ones.
	if anyPS {
		sources := workers
		if opts.LocalAggregation {
			sources = machines
		}
		t.ns = make([]*psrt.Namespace, machines)
		for m := 0; m < machines; m++ {
			if !t.localMachine[m] {
				continue
			}
			srv := psrt.NewResident()
			if opts.Resident != nil {
				srv = opts.Resident.Server(m)
			}
			var err error
			t.ns[m], err = srv.Namespace(opts.PSNamespace, psrt.Config{
				Sources:      sources,
				Optimizer:    opts.NewOptimizer(),
				DenseAgg:     opts.DenseAgg,
				SparseAgg:    opts.SparseAgg,
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
			for m, ns := range t.ns {
				parts := ownedBy(r.assign.Servers, m)
				if ns == nil || len(parts) == 0 {
					continue // hosted by another agent, or not one of r's servers
				}
				if err := ns.AddVar(r.v.Name, r.v.Init, r.ranges, parts, r.assign.Sparse); err != nil {
					return fail(err)
				}
			}
		}
		t.ps = make([][]psrt.Endpoint, workers)
		for _, w := range t.localWorkers {
			row := make([]psrt.Endpoint, machines)
			for m := 0; m < machines; m++ {
				if t.ns[m] != nil {
					row[m] = t.ns[m].Server()
				} else {
					cl := psrt.NewClient(fab.Conduit(w), topo.ServerEndpoint(m))
					cl.SetCodec(opts.Compression.Codec)
					row[m] = cl
				}
			}
			t.ps[w] = row
		}
	}

	t.buildFusion()
	t.buildPSRouting()
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

	// Per-worker indexed scratch for AllGatherv aggregates and tags.
	t.arSparse = make([][]*tensor.Sparse, workers)
	for _, w := range t.localWorkers {
		t.arSparse[w] = make([]*tensor.Sparse, len(t.routes))
	}
	t.agvTags = make([]string, len(t.routes))
	for ri, r := range t.routes {
		if r.assign.Method == core.MethodAllGatherv {
			t.agvTags[ri] = "agv/" + r.v.Name
		}
	}

	// Start the persistent runtime — every goroutine the trainer will
	// ever run: compute workers, comm goroutines, and serving loops
	// answering remote workers' PS traffic against the local servers.
	t.tasks = make([]chan workerFn, workers)
	t.done = make(chan taskResult, workers)
	t.lossBuf = make([]float64, workers)
	t.comm = make([]chan commTask, workers)
	t.commAck = make([]chan error, workers)
	t.psDenseReqs = make([][]psrt.DensePush, workers)
	t.psSparseReqs = make([][]psrt.SparsePush, workers)
	t.phases = make([]phaseTimes, workers)
	t.lossGather = make([][]float64, workers)
	for _, w := range t.localWorkers {
		t.tasks[w] = make(chan workerFn)
		t.comm[w] = make(chan commTask, 4+len(t.buckets)+len(t.routes))
		t.commAck[w] = make(chan error)
		if t.dist {
			t.lossGather[w] = make([]float64, workers)
		}
		t.bg.Add(2)
		go t.commLoop(w)
		go t.workerLoop(w)
	}
	if anyPS && t.dist {
		for m, ns := range t.ns {
			if ns == nil {
				continue
			}
			srvConduit := fab.Conduit(topo.ServerEndpoint(m))
			for w := 0; w < workers; w++ {
				if t.isLocalW[w] {
					continue
				}
				t.bg.Add(1)
				go func(srv *psrt.Server, w int) {
					defer t.bg.Done()
					// A reply hitting a dead fabric raises ClosedPanic;
					// the serving loop just ends (the requester is gone).
					defer t.recoverClosed(new(error))
					psrt.ServeConduit(srv, srvConduit, w)
				}(ns.Server(), w)
			}
		}
	}
	if anyPS {
		// The synchronous protocol's version waits are satisfied by peer
		// pushes, so a dead peer would park local workers (and serving
		// loops answering other survivors) inside a server cond.Wait
		// forever — a condition variable the fabric cannot cancel. Watch
		// for fabric death and abort this trainer's namespace on every local
		// server with the attributed failure; a fleet server's other tenants
		// keep running.
		t.bg.Add(1)
		go func() {
			defer t.bg.Done()
			<-fab.Done()
			err := fab.Err()
			if err == nil {
				err = fmt.Errorf("psrt: transport %w", errs.ErrClosed)
			}
			for _, ns := range t.ns {
				if ns != nil {
					ns.Abort(err)
				}
			}
		}()
	}
	// The chaos fault-injection wrapper exposes SetStep so step-indexed
	// faults fire at deterministic points; a plain fabric has no hook.
	if h, ok := fab.(interface{ SetStep(int) }); ok {
		t.stepHook = h.SetStep
	}

	// Distributed startup: broadcast worker 0's AR-managed variable
	// values so replicas across agents start bit-identical even if an
	// agent's initializer drifted. A peer dying during the exchange fails
	// New with its attributed error instead of crashing.
	if t.dist {
		err := t.onWorkers("startup broadcast", func(w int) (float64, error) {
			for _, r := range t.routes {
				if r.assign.Method != core.MethodPS {
					collective.Broadcast(t.comms[w], "init/"+r.v.Name, t.execs[w].VarValue(r.v.Name), 0)
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

// buildFusion packs the dense AllReduce routes into size-capped fusion
// buckets and preallocates, per local worker, one contiguous buffer per
// bucket plus a shaped view per route. Routes pack in declaration order;
// since gradients become ready in *reverse* declaration order, a bucket's
// completion is triggered by its first route, and buckets complete
// back-to-front — last layers first, exactly the order that maximizes
// overlap with the remaining backward compute.
func (t *Trainer) buildFusion() {
	capBytes := t.opt.FusionBytes
	if capBytes == 0 {
		capBytes = defaultFusionBytes
	}
	t.bucketOf = make([]int, len(t.routes))
	for i := range t.bucketOf {
		t.bucketOf[i] = -1
	}
	bi := -1
	var curBytes int64
	for ri, r := range t.routes {
		if r.assign.Method != core.MethodAllReduce {
			continue
		}
		vb := r.v.Bytes()
		if bi < 0 || capBytes < 0 || (curBytes > 0 && curBytes+vb > capBytes) {
			t.buckets = append(t.buckets, fuseBucket{})
			bi = len(t.buckets) - 1
			curBytes = 0
		}
		b := &t.buckets[bi]
		b.routes = append(b.routes, ri)
		b.elems += int(r.v.Elements())
		t.bucketOf[ri] = bi
		curBytes += vb
	}
	for i := range t.buckets {
		t.buckets[i].tags = collective.TagsFor("fuse/" + strconv.Itoa(i))
	}
	t.fuseBufs = make([][]*tensor.Dense, t.workers)
	t.fuseViews = make([][]*tensor.Dense, t.workers)
	t.bucketPending = make([][]int, t.workers)
	topk := t.opt.Compression.TopK > 0
	if topk {
		t.fuseResid = make([][]*tensor.Dense, t.workers)
		t.topkScratch = make([]collective.TopKScratch, t.workers)
	}
	for _, w := range t.localWorkers {
		t.fuseBufs[w] = make([]*tensor.Dense, len(t.buckets))
		t.fuseViews[w] = make([]*tensor.Dense, len(t.routes))
		t.bucketPending[w] = make([]int, len(t.buckets))
		if topk {
			t.fuseResid[w] = make([]*tensor.Dense, len(t.buckets))
		}
		for i := range t.buckets {
			b := &t.buckets[i]
			buf := tensor.NewDense(b.elems)
			t.fuseBufs[w][i] = buf
			if topk {
				t.fuseResid[w][i] = tensor.NewDense(b.elems)
			}
			off := 0
			for _, ri := range b.routes {
				n := int(t.routes[ri].v.Elements())
				t.fuseViews[w][ri] = tensor.FromSlice(
					buf.Data()[off:off+n:off+n], t.routes[ri].v.Shape...)
				off += n
			}
		}
	}
}

// buildPSRouting groups each PS route's partitions by owning server, so
// the push path issues one batched call per server instead of one per
// partition.
func (t *Trainer) buildPSRouting() {
	t.psServers = make([][]int, len(t.routes))
	t.psParts = make([][][]int, len(t.routes))
	for ri, r := range t.routes {
		if r.assign.Method != core.MethodPS {
			continue
		}
		pos := make(map[int]int) // server -> index in psServers[ri]
		for pi := range r.ranges {
			srv := r.assign.Servers[pi]
			k, ok := pos[srv]
			if !ok {
				k = len(t.psServers[ri])
				pos[srv] = k
				t.psServers[ri] = append(t.psServers[ri], srv)
				t.psParts[ri] = append(t.psParts[ri], nil)
			}
			t.psParts[ri][k] = append(t.psParts[ri][k], pi)
		}
	}
}

// buildSlots preallocates the per-(route, machine) local-aggregation slots
// and, for dense variables, their merge buffers and partition views.
// Merge buffers exist only for machines whose workers run here.
func (t *Trainer) buildSlots() {
	t.slots = make([][]aggSlot, len(t.routes))
	t.slotViews = make([][][]*tensor.Dense, len(t.routes))
	if !t.opt.LocalAggregation {
		return
	}
	for ri, r := range t.routes {
		if r.assign.Method != core.MethodPS {
			continue
		}
		t.slots[ri] = make([]aggSlot, t.machines)
		if r.assign.Sparse {
			for m := 0; m < t.machines; m++ {
				if t.localMachine[m] {
					t.slots[ri][m].sparse = make([]*tensor.Sparse, t.opt.Resource.GPUsPerMachine(m))
				}
			}
			continue
		}
		t.slotViews[ri] = make([][]*tensor.Dense, t.machines)
		for m := 0; m < t.machines; m++ {
			if !t.localMachine[m] {
				continue
			}
			t.slots[ri][m].denseSrcs = make([]*tensor.Dense, t.opt.Resource.GPUsPerMachine(m))
			buf := tensor.NewDense(r.v.Shape...)
			t.slots[ri][m].dense = buf
			views := make([]*tensor.Dense, len(r.ranges))
			for pi, rr := range r.ranges {
				views[pi] = buf.SliceRows(rr.Start, rr.End)
			}
			t.slotViews[ri][m] = views
		}
	}
}

// buildPullReqs precomputes, per local worker, what the per-step request
// lists are filled from: each PS partition's destination view into the
// worker's replica storage and, for a row-addressed route, id scratch
// sized for a whole feed, so stepPullReqs allocates nothing.
func (t *Trainer) buildPullReqs() {
	t.pullReqs = make([][][]psrt.PullReq, t.workers)
	t.pullDst = make([][][]*tensor.Dense, t.workers)
	t.pullRows = make([][][]int, t.workers)
	for _, w := range t.localWorkers {
		t.pullReqs[w] = make([][]psrt.PullReq, t.machines)
		t.pullDst[w] = make([][]*tensor.Dense, len(t.routes))
		t.pullRows[w] = make([][]int, len(t.routes))
		perServer := make([]int, t.machines) // most requests a step can address to each
		for ri, r := range t.routes {
			if r.assign.Method != core.MethodPS {
				continue
			}
			val := t.execs[w].VarValue(r.v.Name)
			t.pullDst[w][ri] = make([]*tensor.Dense, len(r.ranges))
			for pi, rr := range r.ranges {
				t.pullDst[w][ri][pi] = val.SliceRows(rr.Start, rr.End)
				perServer[r.assign.Servers[pi]]++
			}
			if r.rowInputs != nil {
				ids := 0
				for _, in := range r.rowInputs {
					ids += in.Shape[0]
				}
				t.pullRows[w][ri] = make([]int, 0, ids)
			}
		}
		for m, n := range perServer {
			t.pullReqs[w][m] = make([]psrt.PullReq, 0, n)
		}
	}
}

// stepPullReqs refills worker w's per-server pull lists for one step.
// Requests for one variable stay adjacent so the server amortizes its
// lookup. A row-addressed route asks each partition for the rows the
// feed gathers from it — the union over the route's index inputs,
// sorted, deduplicated and made partition-local — and leaves a partition
// the batch does not touch out altogether; checkFeed has already held
// every id inside the table.
func (t *Trainer) stepPullReqs(w int, feed graph.Feed) {
	reqs := t.pullReqs[w]
	for m := range reqs {
		reqs[m] = reqs[m][:0]
	}
	for ri := range t.routes {
		r := &t.routes[ri]
		if r.assign.Method != core.MethodPS {
			continue
		}
		var ids []int
		if r.rowInputs != nil {
			ids = t.pullRows[w][ri][:0]
			for _, in := range r.rowInputs {
				ids = append(ids, feed.Ints[in.Name]...)
			}
			slices.Sort(ids)
			ids = slices.Compact(ids)
		}
		for pi, rr := range r.ranges {
			if rr.Len() == 0 {
				continue
			}
			req := psrt.PullReq{Name: r.psName, Part: pi, Dst: t.pullDst[w][ri][pi]}
			if r.rowInputs != nil {
				n := 0
				for n < len(ids) && ids[n] < rr.End {
					ids[n] -= rr.Start
					n++
				}
				if n == 0 {
					continue
				}
				req.Rows, ids = ids[:n:n], ids[n:]
			}
			m := r.assign.Servers[pi]
			reqs[m] = append(reqs[m], req)
		}
	}
}

// Workers returns the number of model replicas (GPUs) across the whole
// cluster.
func (t *Trainer) Workers() int { return t.workers }

// LocalWorkers returns the global ranks of the workers this trainer
// hosts (all of them in single-process mode), in ascending order. The
// returned slice must not be mutated.
func (t *Trainer) LocalWorkers() []int { return t.localWorkers }

// Distributed reports whether the trainer spans agent processes.
func (t *Trainer) Distributed() bool { return t.dist }

// BytesPushedLastStep returns how many gradient payload bytes the workers
// handed to the synchronization layer (ring collectives and parameter
// servers) during the most recent Step. Valid after Step returns.
func (t *Trainer) BytesPushedLastStep() int64 { return t.bytesPushed.Load() }

// WireStatsLastStep returns the wire bytes this process sent and
// received during the most recent Step (zero on the in-process fabric,
// framed socket bytes on TCP). Valid after Step returns; serving-loop
// traffic for remote workers lands in the step it occurs in.
func (t *Trainer) WireStatsLastStep() (sent, recv int64) {
	return t.lastWire.SentBytes, t.lastWire.RecvBytes
}

// WireCompressionLastStep returns the compression accounting of the most
// recent Step: raw is the bytes the step's compressed frames would have
// occupied as exact f32, comp their actual on-wire size. Both are zero
// under CompressionNone or on the in-process fabric. Valid after Step
// returns.
func (t *Trainer) WireCompressionLastStep() (raw, comp int64) {
	return t.lastWire.SentBytesRaw, t.lastWire.SentBytesCompressed
}

// PhaseStatsLastStep returns the previous step's phase breakdown, taken
// from the slowest worker per phase. Valid after Step returns.
func (t *Trainer) PhaseStatsLastStep() PhaseStats { return t.lastPhase }

// Buckets returns the number of fused dense-AllReduce collectives the
// schedule runs per step (0 when the plan has no AllReduce variables).
func (t *Trainer) Buckets() int { return len(t.buckets) }

// Close stops the persistent goroutines (workers, comm, serving loops,
// the fabric watcher), closes the fabric and returns once all of them
// have exited; it waits for no peer. In distributed mode the fabric's
// goodbye is the whole shutdown protocol (DESIGN.md §8): what this agent
// owes its peers for the last boundary they agreed on — a step, an
// agreement, a VarValue — was written before that boundary completed
// here. The closing fabric wakes the watcher, whose namespace abort
// releases a serving loop parked on a version wait. Idempotent; the
// trainer must not be used afterwards.
func (t *Trainer) Close() {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		for _, w := range t.localWorkers {
			close(t.tasks[w])
			close(t.comm[w])
		}
		t.fab.Close()
		t.bg.Wait()
		// A fleet's servers outlive this trainer: hand the namespace's
		// variables (and its name) back.
		t.dropNamespaces()
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
// finished, each worker's value in lossBuf[w]. Of several errors the
// lowest rank's is kept, and the trainer then fail-stops (failStep). It
// must not run concurrently with itself.
func (t *Trainer) onWorkers(what string, fn workerFn) error {
	if err := t.live(what); err != nil {
		return err
	}
	for _, w := range t.localWorkers {
		t.tasks[w] <- fn
	}
	// Results land by rank, so nothing downstream — a float64 sum, the
	// reported error — depends on the order workers finish in.
	var firstErr error
	firstW := t.workers
	for range t.localWorkers {
		res := <-t.done
		t.lossBuf[res.worker] = res.v
		if res.err != nil && res.worker < firstW {
			firstErr, firstW = res.err, res.worker
		}
	}
	if firstErr != nil {
		return t.failStep(firstErr)
	}
	return nil
}

// Repartition reshards the PS-managed partition-target variables to
// newPlan's partitioning without restarting the runtime — the live side
// of the §3.2 partition search (DESIGN.md §9). newPlan must describe the
// same variables with the same methods; only Partitions/Servers may
// differ. The protocol is a between-steps stop-the-world exchange:
//
//  1. Gather: every agent assembles, for each resharded variable, the
//     full value and the full optimizer slot state by snapshot-reading
//     every old partition from its owning endpoint — direct calls for
//     colocated partitions, wire round trips (psrt.Client / PSSnapshot)
//     for remote ones. The snapshot's version wait doubles as the drain
//     barrier: it blocks until all of the previous step's pushes have
//     been applied, wherever they came from.
//  2. Barrier: no agent may install while a peer still reads the old
//     partitions.
//  3. Install: each agent reshards its LOCAL servers
//     (psrt.Namespace.ReshardVar) — values and slot rows re-sliced to the
//     new ranges, versions seeded to the step counter — and rebuilds its
//     routing tables (partition ranges, per-server push groups,
//     local-aggregation slots and views, batched pull requests).
//  4. Barrier: no agent may step before every peer serves the new
//     partitioning.
//
// Because every row's aggregation and update are per-row operations, the
// migration is lossless and the training trajectory is unchanged: a run
// that reshards from P to P′ mid-run continues bit-identically to a run
// that used P′ from the start (pinned by the repartition tests). In
// distributed mode every agent must call Repartition with the same plan
// between the same steps — the runner's tuning phase derives its
// decisions from collectively agreed measurements to guarantee exactly
// that. Repartition must not run concurrently with Step; on error the
// cluster fail-stops like a failed step.
func (t *Trainer) Repartition(newPlan *core.Plan) (err error) {
	if err := t.live("repartition"); err != nil {
		return err
	}
	defer t.recoverClosed(&err) // the gather speaks to remote servers on this goroutine
	if newPlan == nil {
		return fmt.Errorf("transform: repartition with nil plan")
	}
	if len(newPlan.Assignments) != len(t.routes) {
		return fmt.Errorf("transform: repartition plan has %d assignments for %d routes",
			len(newPlan.Assignments), len(t.routes))
	}
	changed := make([]bool, len(t.routes))
	any := false
	for ri := range t.routes {
		r := &t.routes[ri]
		na := &newPlan.Assignments[ri]
		if na.Name != r.v.Name || na.Method != r.assign.Method || na.Sparse != r.assign.Sparse {
			return fmt.Errorf("transform: repartition may only change partitioning, route %q differs in method or kind", r.v.Name)
		}
		if r.assign.Method != core.MethodPS {
			continue
		}
		if na.Partitions < 1 || len(na.Servers) != na.Partitions {
			return fmt.Errorf("transform: repartition plan for %q has %d servers for %d partitions",
				na.Name, len(na.Servers), na.Partitions)
		}
		if na.Partitions != r.assign.Partitions || !slices.Equal(na.Servers, r.assign.Servers) {
			changed[ri] = true
			any = true
		}
	}
	if !any {
		t.opt.Plan = newPlan
		return nil
	}

	minV := int64(t.step)
	w0 := t.localWorkers[0]
	full := make([]psState, len(t.routes))
	for ri := range t.routes {
		if !changed[ri] {
			continue
		}
		r := &t.routes[ri]
		for pi, rr := range r.ranges {
			if rr.Len() == 0 {
				continue
			}
			val, slots, err := t.ps[w0][r.assign.Servers[pi]].SnapshotPart(r.psName, pi, minV)
			if err == nil {
				err = full[ri].place(r, pi, val, slots)
			}
			if err != nil {
				return t.failStep(err)
			}
		}
	}
	if _, err := t.AgreeMax("repart/gather", 0); err != nil {
		return err
	}

	for ri := range t.routes {
		if !changed[ri] {
			continue
		}
		r := &t.routes[ri]
		r.assign = newPlan.Assignments[ri]
		r.ranges = tensor.PartitionRows(r.v.Shape[0], r.assign.Partitions)
		if err := t.installPS(r, full[ri], minV); err != nil {
			return t.failStep(err)
		}
		full[ri] = psState{}
	}
	t.opt.Plan = newPlan
	t.buildPSRouting()
	t.buildSlots()
	t.buildPullReqs()
	_, err = t.AgreeMax("repart/install", 0)
	return err
}

// psState is one server-managed variable's full value and optimizer slot
// tensors (SlotState.Slots order), assembled partition by partition —
// from snapshots of the live servers (Repartition's gather) or from
// checkpoint records (Restore) — and installed by installPS.
type psState struct {
	value *tensor.Dense
	slots []*tensor.Dense
}

// place copies partition pi's value and slots into the full tensors at
// the partition's rows of r's current ranges; the first placement fixes
// the slot count.
func (st *psState) place(r *varRoute, pi int, val *tensor.Dense, slots []*tensor.Dense) error {
	if pi < 0 || pi >= len(r.ranges) {
		return fmt.Errorf("transform: %w: partition %s/%d outside the plan's %d partitions",
			errs.ErrTopologyMismatch, r.v.Name, pi, len(r.ranges))
	}
	if st.value == nil {
		st.value = tensor.NewDense(r.v.Shape...)
		for range slots {
			st.slots = append(st.slots, tensor.NewDense(r.v.Shape...))
		}
	}
	if len(slots) != len(st.slots) {
		return fmt.Errorf("transform: %w: partition %s/%d has %d slots, the variable's first had %d",
			errs.ErrTopologyMismatch, r.v.Name, pi, len(slots), len(st.slots))
	}
	width := st.value.RowWidth()
	lo, hi := r.ranges[pi].Start*width, r.ranges[pi].End*width
	put := func(dst, src *tensor.Dense) error {
		if src.NumElements() != hi-lo {
			return fmt.Errorf("transform: %w: partition %s/%d carries a tensor of %d elements, the plan's range has %d",
				errs.ErrTopologyMismatch, r.v.Name, pi, src.NumElements(), hi-lo)
		}
		copy(dst.Data()[lo:hi], src.Data())
		return nil
	}
	err := put(st.value, val)
	for k := 0; k < len(slots) && err == nil; k++ {
		err = put(st.slots[k], slots[k])
	}
	return err
}

// installPS re-registers r on every local server from the assembled
// state: each server's owned row ranges under r's (possibly just
// replaced) partitioning, values and slot rows re-sliced, versions and
// aggregation sequences seeded to version (psrt.Namespace.ReshardVar).
// A server that owns nothing of r afterwards just drops what it had.
func (t *Trainer) installPS(r *varRoute, st psState, version int64) error {
	for m, ns := range t.ns {
		if ns == nil {
			continue
		}
		if err := ns.ReshardVar(r.v.Name, st.value, r.ranges, ownedBy(r.assign.Servers, m),
			r.assign.Sparse, st.slots, version); err != nil {
			return err
		}
	}
	return nil
}

// Fabric returns the trainer's transport fabric, so the session layer
// can reach fabric-specific surfaces (the elastic join listener). The
// trainer still owns it; callers must not Close it.
func (t *Trainer) Fabric() transport.Fabric { return t.fab }

// AgreeMax is the cluster-wide scalar agreement every session-level
// decision rides on: each worker all-gathers v in rank order under tag
// and folds the maximum, so all agents see the same bits and derive the
// same decision — the step-boundary control word (stop request and
// membership proposal, DESIGN.md §10/§14), the restore-step check after
// a rendezvous, the sampled step times that keep adaptive
// repartitioning in lockstep, and (with v = 0) a plain barrier. Every
// agent must call it at the same points with the same tag; it must not
// run concurrently with Step. Single-process trainers return v
// unchanged.
// A non-nil error means the fabric died mid-agreement (peer failure);
// the trainer is torn down fail-stop, exactly like a failed Step.
func (t *Trainer) AgreeMax(tag string, v float64) (float64, error) {
	if !t.dist {
		return v, nil
	}
	err := t.onWorkers("agreement", func(w int) (float64, error) {
		collective.AllGatherScalarsInto(t.comms[w], tag, v, t.lossGather[w])
		return 0, nil
	})
	if err != nil {
		return 0, err
	}
	return slices.Max(t.lossGather[t.localWorkers[0]]), nil
}

// workerLoop is one persistent worker: it runs the fan-outs' tasks until
// Close, converting a fabric death mid-collective (ClosedPanic) into the
// task's error instead of crashing the process — the survivors' path to
// a typed ErrPeerFailed.
func (t *Trainer) workerLoop(w int) {
	defer t.bg.Done()
	run := func(fn workerFn) (v float64, err error) {
		defer t.recoverClosed(&err)
		return fn(w)
	}
	for fn := range t.tasks[w] {
		v, err := run(fn)
		t.done <- taskResult{worker: w, v: v, err: err}
	}
}

// now reads the wall clock for the per-step phase breakdown.
func now() time.Time {
	return time.Now() //parallax:allow(detsource) -- StepStats phase timing: observability only, never feeds control flow
}

// commLoop drains worker w's synchronization tasks. Collectives must be
// issued in the same order on every worker; that holds because tasks are
// enqueued in gradient-ready order, which is the same deterministic
// reverse-declaration order on every replica of the graph. PS pushes
// never block a peer's collective: direct pushes are lock-brief, and a
// wire push's round trip only waits on the remote serving loop.
func (t *Trainer) commLoop(w int) {
	defer t.bg.Done()
	var firstErr error
	for task := range t.comm[w] {
		if task.kind == commFlush {
			t.commAck[w] <- firstErr
			firstErr = nil
			continue
		}
		start := now()
		if err := t.commTask(w, task); err != nil && firstErr == nil {
			firstErr = err
		}
		t.phases[w].comm += now().Sub(start)
	}
}

// commTask executes one synchronization task; a fabric death inside a
// collective surfaces as an error (recovered ClosedPanic), not a crash.
func (t *Trainer) commTask(w int, task commTask) (err error) {
	defer t.recoverClosed(&err)
	switch task.kind {
	case commBucket:
		// One collective per fusion bucket: sum across all workers (the
		// ring under the policy's codec, or top-k sparsified with error
		// feedback), then the configured finalization — every worker ends
		// up holding the identical aggregated gradient, the
		// AR-architecture invariant.
		c, tags, buf := t.comms[w], t.buckets[task.idx].tags, t.fuseBufs[w][task.idx]
		if policy := t.opt.Compression; policy.TopK > 0 {
			collective.AllReduceTopKTagged(c, tags, buf, policy.TopK, policy.Codec,
				t.fuseResid[w][task.idx].Data(), &t.topkScratch[w])
		} else {
			collective.AllReduceCodecTagged(c, tags, buf, policy.Codec)
		}
		optim.FinalizeDense(buf, t.workers, t.opt.DenseAgg)
	case commSparse:
		out := collective.AllGathervTagged(t.comms[w], t.agvTags[task.idx], task.sparse)
		optim.FinalizeSparse(out, t.workers, t.opt.SparseAgg)
		t.arSparse[w][task.idx] = out
	case commPS:
		return t.pushPS(w, task.idx, task.dense, task.sparse)
	}
	return nil
}

// pull is worker w's pull phase, one batched request per server its
// step's lists address, in three passes over the servers: send every
// remote one its request, read the colocated ones directly while those
// are in flight, collect the replies. An error returns at once, replies
// still owed: where there are remote servers a step error is fail-stop.
func (t *Trainer) pull(w int, minVersion int64) error {
	const send, local, recv = 0, 1, 2
	for pass := send; pass <= recv; pass++ {
		for m, reqs := range t.pullReqs[w] {
			if len(reqs) == 0 {
				continue
			}
			var err error
			switch cl, remote := t.ps[w][m].(*psrt.Client); {
			case pass == send && remote:
				err = cl.SendPull(minVersion, reqs)
			case pass == local && !remote:
				err = t.ps[w][m].PullManyInto(minVersion, reqs)
			case pass == recv && remote:
				err = cl.RecvPull(reqs)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Step runs one synchronous data-parallel iteration: feeds[w] is worker w's
// shard batch (feeds for workers hosted by other agents are ignored here
// — their agents feed them the identical shards). It returns the mean
// loss across ALL workers: in distributed mode the workers exchange
// per-worker losses over the conduit and every agent reports the same
// bitwise-identical mean. Step dispatches to the persistent workers
// started by New (onWorkers); it must not be called concurrently with
// itself or after Close.
func (t *Trainer) Step(feeds []graph.Feed) (float64, error) {
	if err := t.live("step"); err != nil {
		return 0, err
	}
	if len(feeds) != t.workers {
		return 0, fmt.Errorf("transform: %d feeds for %d workers", len(feeds), t.workers)
	}
	// Validate every local worker's feed up front: a worker failing
	// mid-step would leave its peers blocked inside collectives with no
	// rank to rendezvous with, so bad feeds — the realistic runtime error
	// — must be rejected before any work is dispatched. In distributed
	// mode the validation only covers THIS agent's workers, so any step
	// error additionally fails the fabric: peer agents' workers would
	// otherwise block forever rendezvousing with ranks that never
	// dispatched, and fail-stop turns that hang into a prompt teardown.
	for _, w := range t.localWorkers {
		if err := t.checkFeed(w, feeds[w]); err != nil {
			return 0, t.failStep(err)
		}
	}
	step := t.step
	t.step++
	if t.stepHook != nil {
		t.stepHook(step)
	}
	t.resetSlots()
	t.bytesPushed.Store(0)
	t.wireBase = t.fab.Stats()

	err := t.onWorkers("step", func(w int) (float64, error) {
		return t.workerStep(w, step, feeds[w])
	})
	wire := t.fab.Stats()
	t.lastWire = transport.Stats{
		SentBytes:           wire.SentBytes - t.wireBase.SentBytes,
		RecvBytes:           wire.RecvBytes - t.wireBase.RecvBytes,
		SentBytesRaw:        wire.SentBytesRaw - t.wireBase.SentBytesRaw,
		SentBytesCompressed: wire.SentBytesCompressed - t.wireBase.SentBytesCompressed,
	}
	if err != nil {
		return 0, err
	}
	// Aggregate the per-worker phase breakdown: the slowest local worker
	// per phase is the step's critical path. The fan-out's done handshake
	// orders every worker's (and comm goroutine's) writes before these
	// reads.
	var ph PhaseStats
	for w := range t.phases {
		// The pull is synchronization nothing hides: it counts as
		// communication and as exposed wait alike.
		ph.Compute = max(ph.Compute, t.phases[w].compute)
		ph.Comm = max(ph.Comm, t.phases[w].pull+t.phases[w].comm)
		ph.SyncWait = max(ph.SyncWait, t.phases[w].pull+t.phases[w].wait)
	}
	t.lastPhase = ph
	if t.dist {
		// Each worker already folded the rank-ordered global mean during
		// its in-step loss exchange; all local results are identical.
		return t.lossBuf[t.localWorkers[0]], nil
	}
	// Summed in worker order, not arrival order: the reported mean must
	// not wobble in the last ulp between otherwise identical runs.
	var mean float64
	for _, l := range t.lossBuf {
		mean += l
	}
	return mean / float64(t.workers), nil
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
// everything stays local and recoverable — except that the chaos
// wrapper's injected kill records a rank-attributed failure the caller
// must see (the in-process analogue of a peer crash).
func (t *Trainer) failStep(err error) error {
	if t.dist {
		t.fab.Close()
	}
	if fe := t.fab.Err(); fe != nil && !errors.Is(err, errs.ErrPeerFailed) {
		err = fmt.Errorf("%w (first local symptom: %v)", fe, err)
	}
	return err
}

// checkFeed verifies worker w's feed covers every graph input with the
// right size, and that every id a Gather will look up lies inside its
// table, before the step is dispatched: an out-of-vocabulary id would
// otherwise panic inside the worker's forward pass.
func (t *Trainer) checkFeed(w int, feed graph.Feed) error {
	for _, n := range t.inputs {
		if n.DType == graph.Int {
			v, ok := feed.Ints[n.Name]
			if !ok {
				return fmt.Errorf("transform: worker %d feed missing int input %q", w, n.Name)
			}
			if len(v) != n.Shape[0] {
				return fmt.Errorf("transform: worker %d feed %q has %d entries, want %d", w, n.Name, len(v), n.Shape[0])
			}
			continue
		}
		v, ok := feed.Floats[n.Name]
		if !ok {
			return fmt.Errorf("transform: worker %d feed missing float input %q", w, n.Name)
		}
		shape := v.Shape()
		badShape := len(shape) != len(n.Shape)
		for i := 0; !badShape && i < len(shape); i++ {
			badShape = shape[i] != n.Shape[i]
		}
		if badShape {
			return fmt.Errorf("transform: worker %d feed %q has shape %v, want %v", w, n.Name, shape, n.Shape)
		}
	}
	for _, n := range t.gathers {
		table, idx := n.Inputs[0], n.Inputs[1]
		for _, id := range feed.Ints[idx.Name] {
			if id < 0 || id >= table.Shape[0] {
				return fmt.Errorf("transform: worker %d feed %q holds id %d, outside %s's rows [0,%d)",
					w, idx.Name, id, table.Name, table.Shape[0])
			}
		}
	}
	return nil
}

// resetSlots rewinds the local-aggregation slots for the next step. It
// runs between steps, when every worker is parked on its task channel, so
// the channel handshake orders these writes against the workers' accesses.
func (t *Trainer) resetSlots() {
	for ri := range t.slots {
		for m := range t.slots[ri] {
			s := &t.slots[ri][m]
			s.got = 0
			clear(s.sparse)
			clear(s.denseSrcs)
		}
	}
}

// workerStep is one worker's side of an iteration.
func (t *Trainer) workerStep(w, step int, feed graph.Feed) (float64, error) {
	exec := t.execs[w]
	ph := &t.phases[w]
	*ph = phaseTimes{}

	// Pull phase: fetch fresh PS values for this iteration (Fig 2(a)(b)'s
	// pull arrows) — the rows this worker's feed gathers where the graph
	// only gathers, whole partitions otherwise — one batched request per
	// server, the remote ones in flight together, copying straight into
	// the replica's variable storage through the precomputed views.
	// Version step means "after step updates have applied".
	pullStart := now()
	if t.ps != nil {
		t.stepPullReqs(w, feed)
		if err := t.pull(w, int64(step)); err != nil {
			return 0, err
		}
	}
	ph.pull = now().Sub(pullStart)

	// Compute, streaming synchronization out of the backward pass: each
	// dense gradient is copied into its fusion view the moment it is
	// final, the bucket's collective is dispatched when its last view
	// fills, and sparse/PS gradients are handed off immediately — all
	// while the sweep continues toward the input layers.
	pending := t.bucketPending[w]
	for b := range pending {
		pending[b] = len(t.buckets[b].routes)
	}
	computeStart := now()
	loss, _, err := exec.StepStream(feed, func(name string, d *tensor.Dense, sp *tensor.Sparse) {
		ri := t.routeIdx[name]
		switch t.routes[ri].assign.Method {
		case core.MethodAllReduce:
			view := t.fuseViews[w][ri]
			if d != nil {
				copy(view.Data(), d.Data())
			} else {
				// A sparse variable promoted to dense treatment (α
				// threshold): densify straight into the fusion view.
				view.Zero()
				sp.ToDenseInto(view)
			}
			t.bytesPushed.Add(view.Bytes())
			b := t.bucketOf[ri]
			if pending[b]--; pending[b] == 0 {
				t.comm[w] <- commTask{kind: commBucket, idx: b}
			}
		case core.MethodAllGatherv:
			t.bytesPushed.Add(sp.Bytes())
			t.comm[w] <- commTask{kind: commSparse, idx: ri, sparse: sp}
		case core.MethodPS:
			t.comm[w] <- commTask{kind: commPS, idx: ri, dense: d, sparse: sp}
		}
	})
	computeEnd := now()
	ph.compute = computeEnd.Sub(computeStart)

	// Drain: wait for this worker's synchronization to finish. Whatever
	// comm time is left here was not hidden under compute.
	t.comm[w] <- commTask{kind: commFlush}
	commErr := <-t.commAck[w]
	ph.wait = now().Sub(computeEnd)
	if err != nil {
		return 0, err
	}
	if commErr != nil {
		return 0, commErr
	}

	// Clipping: compute the global norm over *aggregated* gradients — AR
	// parts are replicated on every worker (read through the fusion
	// views), PS parts are read back from the servers (§5) — then scale
	// AR updates locally and have the chief apply scaled PS updates.
	scale := float32(1)
	if t.opt.ClipNorm > 0 {
		var norm2 float64
		for ri, r := range t.routes {
			switch r.assign.Method {
			case core.MethodAllReduce:
				norm2 += t.fuseViews[w][ri].L2NormSquared()
			case core.MethodAllGatherv:
				// Coalesce once and keep the result: the norm needs the
				// deduplicated tensor, and the apply below would otherwise
				// re-coalesce the concatenated gradient.
				g := t.arSparse[w][ri].Coalesce()
				t.arSparse[w][ri] = g
				norm2 += g.Values.L2NormSquared()
			case core.MethodPS:
				for pi := range r.ranges {
					n2, err := t.ps[w][r.assign.Servers[pi]].WaitAggregatedNormSquared(r.psName, pi, int64(step+1))
					if err != nil {
						return 0, err
					}
					norm2 += n2
				}
			}
		}
		if norm := math.Sqrt(norm2); norm > t.opt.ClipNorm {
			scale = float32(t.opt.ClipNorm / norm)
		}
		if w == 0 { // the global chief worker triggers the deferred PS updates
			for _, r := range t.routes {
				if r.assign.Method != core.MethodPS {
					continue
				}
				for pi := range r.ranges {
					if err := t.ps[w][r.assign.Servers[pi]].ApplyUpdate(r.psName, pi, scale); err != nil {
						return 0, err
					}
				}
			}
		}
	}

	// Apply AR updates locally; every replica performs the identical
	// update, keeping replicas synchronized. The aggregated gradients
	// live in the worker-local fusion buffers, so clip scaling happens in
	// place.
	for ri, r := range t.routes {
		switch r.assign.Method {
		case core.MethodAllReduce:
			g := t.fuseViews[w][ri]
			if scale != 1 {
				g.Scale(scale)
			}
			t.arOpts[w].ApplyDense(r.v.Name, exec.VarValue(r.v.Name), g)
		case core.MethodAllGatherv:
			g := t.arSparse[w][ri]
			if scale != 1 {
				g.Scale(scale)
			}
			t.arOpts[w].ApplySparse(r.v.Name, exec.VarValue(r.v.Name), g)
			t.arSparse[w][ri] = nil
		}
	}

	// Distributed loss exchange: gather every worker's loss in rank
	// order and fold the global mean with the same summation order the
	// single-process driver uses, so the reported trajectory is bitwise
	// identical across deployment modes.
	if t.dist {
		gathered := t.lossGather[w]
		collective.AllGatherScalarsInto(t.comms[w], "loss", loss, gathered)
		var sum float64
		for _, l := range gathered {
			sum += l
		}
		loss = sum / float64(t.workers)
	}
	return loss, nil
}

// pushPS routes worker w's gradient for PS route ri: split by partition,
// optionally merge within the machine, push to the owning servers with
// one batched call per server. Dense partitions travel as zero-copy views
// (psrt borrows them only for the call — a wire push serializes them
// before its reply unblocks us); sparse partitions are freshly split and
// ownership transfers to the server. Runs on the worker's comm goroutine.
func (t *Trainer) pushPS(w, ri int, dense *tensor.Dense, sp *tensor.Sparse) error {
	r := &t.routes[ri]
	name := r.psName

	pushSparseParts := func(parts []*tensor.Sparse) error {
		// Data-plane quantization: the split copies are rounded onto the
		// codec grid before any push, colocated or remote, so the servers
		// aggregate identical bits on every fabric. (SplitSparse allocates
		// fresh value storage, so this never touches the exec's gradient.)
		for _, p := range parts {
			t.opt.Compression.Codec.Quantize(p.Values.Data())
		}
		for k, srv := range t.psServers[ri] {
			reqs := t.psSparseReqs[w][:0]
			for _, pi := range t.psParts[ri][k] {
				t.bytesPushed.Add(parts[pi].Bytes())
				reqs = append(reqs, psrt.SparsePush{Name: name, Part: pi, Grad: parts[pi]})
			}
			t.psSparseReqs[w] = reqs[:0]
			if err := t.ps[w][srv].PushSparseMany(reqs); err != nil {
				return err
			}
		}
		return nil
	}
	pushDenseParts := func(dense *tensor.Dense, views []*tensor.Dense) error {
		for k, srv := range t.psServers[ri] {
			reqs := t.psDenseReqs[w][:0]
			for _, pi := range t.psParts[ri][k] {
				rr := r.ranges[pi]
				part := dense
				if views != nil {
					part = views[pi]
				} else if rr.Start != 0 || rr.End != dense.Dim(0) {
					// Without local aggregation the gradient is a fresh
					// exec-owned tensor each step, so partition views cannot
					// be precomputed; the per-push SliceRows header is the
					// remaining (cheap) allocation on this non-default path.
					part = dense.SliceRows(rr.Start, rr.End)
				}
				t.bytesPushed.Add(part.Bytes())
				reqs = append(reqs, psrt.DensePush{Name: name, Part: pi, Grad: part})
			}
			t.psDenseReqs[w] = reqs[:0]
			if err := t.ps[w][srv].PushDenseMany(reqs); err != nil {
				return err
			}
		}
		return nil
	}

	if !t.opt.LocalAggregation {
		if r.assign.Sparse {
			return pushSparseParts(tensor.SplitSparse(sp, r.ranges))
		}
		// Quantize the gradient before it splits into partition views.
		// The buffer is the exec's gradient storage, dead until the next
		// backward pass overwrites it; PS routes never read it locally.
		t.opt.Compression.Codec.Quantize(dense.Data())
		return pushDenseParts(dense, nil)
	}

	// Local aggregation: gradients park in GPU-rank-indexed slot entries
	// and the machine's last-arriving worker merges them in rank order
	// (see aggSlot) and pushes.
	machine := t.workerMachine[w]
	gpus := t.machineGPUs[machine]
	local := t.localGPU[w]
	slot := &t.slots[ri][machine]
	slot.mu.Lock()
	if r.assign.Sparse {
		slot.sparse[local] = sp
	} else {
		slot.denseSrcs[local] = dense
	}
	slot.got++
	doPush := slot.got == gpus
	var sparseMerged *tensor.Sparse
	if doPush {
		if r.assign.Sparse {
			sparseMerged = tensor.SumSparse(slot.sparse)
		} else {
			copy(slot.dense.Data(), slot.denseSrcs[0].Data())
			for i := 1; i < gpus; i++ {
				slot.dense.AddInto(slot.denseSrcs[i])
			}
		}
	}
	slot.mu.Unlock()
	if !doPush {
		return nil
	}
	if r.assign.Sparse {
		return pushSparseParts(tensor.SplitSparse(sparseMerged, r.ranges))
	}
	// Quantize the machine-merged gradient (the chief's exact f32 fold)
	// before the partition views ship it.
	t.opt.Compression.Codec.Quantize(slot.dense.Data())
	return pushDenseParts(slot.dense, t.slotViews[ri][machine])
}

// VarValue reconstructs the current full value of a variable: from the
// servers for PS variables (local or over the wire), from the first
// local replica for AR variables. In distributed mode a PS variable's
// read is an agreed boundary — every agent calls VarValue for it between
// the same steps — because peers serve the read and Close keeps no
// server up for a late reader: nobody leaves before everybody has read.
func (t *Trainer) VarValue(name string) (_ *tensor.Dense, err error) {
	defer t.recoverClosed(&err) // a remote partition is read on this goroutine
	w0 := t.localWorkers[0]
	for _, r := range t.routes {
		if r.v.Name != name {
			continue
		}
		if r.assign.Method != core.MethodPS {
			return t.execs[w0].VarValue(name).Clone(), nil
		}
		out := tensor.NewDense(r.v.Shape...)
		for pi, rr := range r.ranges {
			if rr.Len() == 0 {
				continue
			}
			req := []psrt.PullReq{{Name: r.psName, Part: pi, Dst: out.SliceRows(rr.Start, rr.End)}}
			if err := t.ps[w0][r.assign.Servers[pi]].PullManyInto(int64(t.step), req); err != nil {
				return nil, err
			}
		}
		_, err := t.AgreeMax("read/"+name, 0)
		return out, err
	}
	return nil, fmt.Errorf("transform: unknown variable %q", name)
}
