// Package parallax is a Go reproduction of Parallax (Kim et al., EuroSys
// 2019): sparsity-aware data-parallel training of deep neural networks.
//
// Parallax observes that the variables of a model fall into two classes by
// how their gradients are produced — dense variables (every element
// touched each iteration) and sparse variables (only the rows an
// embedding lookup gathers) — and that the efficient synchronization
// mechanism differs per class: ring AllReduce for dense gradients,
// parameter servers for sparse ones. This package exposes the paper's
// programming interface (Fig. 3) in Go idiom:
//
//	g := parallax.NewGraph()
//	tokens := g.Input("tokens", parallax.Int, batch)
//	labels := g.Input("labels", parallax.Int, batch)
//	var emb *parallax.Node
//	g.InPartitioner(func() {                       // partitioner scope
//		emb = g.Variable("embedding", init)
//	})
//	logits := g.MatMul(g.Gather(emb, tokens), w)
//	g.SoftmaxCE(logits, labels)
//
//	sess, err := parallax.Open(ctx, g, resources, opts...)
//	defer sess.Close()
//	for stats, err := range sess.Steps(ctx, dataset) {
//		...                                        // one StepStats per synchronous step
//	}
//
// Open analyzes the graph, classifies every variable by its gradient
// type, builds the hybrid plan (AllReduce for dense variables, partitioned
// parameter servers for sparse ones), and starts the persistent runtime
// that executes synchronous data-parallel steps — in one process, or
// spanning agent processes over TCP (WithDistConfig).
//
// # Sessions
//
// The Session is context-first: cancelling the Steps context ends the
// loop at the next step boundary (cluster-agreed in distributed mode,
// so every agent stops at the same step), and Open's context bounds the
// peer rendezvous. Configuration is functional options (WithArch,
// WithOptimizer, WithSparsePartitions, ...). Session.Save and
// OpenFromCheckpoint capture and restore the full training state —
// variable values, optimizer slots, step counter, dataset cursor — with
// bit-identical resume on either fabric. Failures carry typed sentinels (ErrClosed,
// ErrTopologyMismatch, ErrCheckpointVersion) matched with errors.Is.
//
// # Persistent runtime
//
// Open starts a persistent runtime: one long-lived worker goroutine
// per GPU and one parameter server per machine, with every variable's
// aggregation slot resolved to preallocated, index-addressed buffers. A
// step dispatches work over channels and pushes dense partitions as
// zero-copy views, so the hot loop allocates no per-step bookkeeping (see
// DESIGN.md §3). Call Close to stop the workers when training is done.
//
// # Partition search
//
// Unless WithSparsePartitions fixes it, the sparse-variable partition
// count is found the way the paper finds it (§3.2): the session starts
// at one partition per machine and its first Steps loop samples real
// measured steps at a few candidate counts, resharding the running job
// between them (Session.Repartition) without a restart, fits the cost
// model, and settles on the optimum. The migration is lossless, so the
// loss trajectory is unchanged. The decision and the resulting layout
// are observable through Session.PartitionDecision and
// Session.ShardMap.
package parallax

import (
	"net"
	"time"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/data"
	"parallax/internal/graph"
	"parallax/internal/optim"
	"parallax/internal/tensor"
)

// Re-exported graph-construction types: the single-GPU graph the user
// writes is exactly what Open transforms (§4.1 "transparency").
type (
	// Graph is a single-GPU computation graph under construction.
	Graph = graph.Graph
	// Node is a graph vertex.
	Node = graph.Node
	// Feed supplies one step's input values by input name.
	Feed = graph.Feed
	// Dense is a dense float32 tensor.
	Dense = tensor.Dense
	// Sparse is an IndexedSlices-style sparse tensor.
	Sparse = tensor.Sparse
	// RNG is a deterministic random source for initializers and data.
	RNG = tensor.RNG
	// ResourceInfo describes the machines and GPUs to train on.
	ResourceInfo = cluster.ResourceInfo
	// Dataset is an endless batch stream.
	Dataset = data.Dataset
	// Optimizer applies gradients to variables.
	Optimizer = optim.Optimizer
)

// Input dtypes.
const (
	// Float marks a float32 tensor input.
	Float = graph.Float
	// Int marks an integer vector input (token ids, labels).
	Int = graph.Int
)

// NewGraph returns an empty single-GPU computation graph.
func NewGraph() *Graph { return graph.New() }

// NewRNG returns a deterministic random generator.
func NewRNG(seed int64) *RNG { return tensor.NewRNG(seed) }

// NewDense returns a zero-filled tensor.
func NewDense(shape ...int) *Dense { return tensor.NewDense(shape...) }

// NewSGD returns a stateless SGD optimizer with the given learning rate.
func NewSGD(lr float32) Optimizer { return optim.NewSGD(lr) }

// NewMomentum returns a momentum-SGD optimizer.
func NewMomentum(lr, mu float32) Optimizer { return optim.NewMomentum(lr, mu) }

// Uniform returns a cluster of n machines with g GPUs each.
func Uniform(n, g int) ResourceInfo { return cluster.Uniform(n, g) }

// ParseResources reads a "host:gpu,gpu,..." resource file (the paper's
// resource_info_file).
func ParseResources(text string) (ResourceInfo, error) { return cluster.Parse(text) }

// Shard splits a dataset so worker w of n consumes a disjoint subset (the
// paper's parallax.shard, Fig. 3 line 6).
func Shard(d Dataset, w, n int) Dataset { return data.NewShard(d, w, n) }

// Arch selects the training architecture; the zero value (Hybrid) is
// Parallax's sparsity-aware default. The alternatives exist for baselines
// and experiments.
type Arch = core.Arch

// Architectures.
const (
	// Hybrid uses AllReduce for dense variables and parameter servers for
	// sparse ones (the paper's contribution).
	Hybrid = core.ArchHybrid
	// AllReduceOnly forces collectives for everything (Horovod-style).
	AllReduceOnly = core.ArchAR
	// PSOnly forces naive parameter servers for everything (TF-PS-style).
	PSOnly = core.ArchNaivePS
	// OptimizedPS forces Parallax's optimized parameter servers.
	OptimizedPS = core.ArchOptPS
)

// Config is the ParallaxConfig of §4.1: the optional knobs the Options
// set, one field each; the zero value is a sensible default (hybrid
// architecture, local aggregation, mean aggregation, partition search
// on the live runtime). Open folds its options into one Config and
// resolves every "defaults to" below in that one place.
type Config struct {
	// Arch selects the architecture; default Hybrid.
	Arch Arch
	// NewOptimizer constructs optimizer instances (one per replica, one
	// per server). Default: SGD with learning rate 0.1.
	NewOptimizer func() Optimizer
	// SparsePartitions fixes the partition count for variables declared
	// inside partitioner scopes. 0 (the default) searches for it on the
	// live runtime (§3.2; DESIGN.md §9): when the plan partitions a
	// sparse variable across servers, the session starts at one
	// partition per machine and, during the first Steps/StepsFeeds loop,
	// samples real per-step times at candidate counts (doubling/halving
	// from the machine count, at most 5 measurement runs of 3 steps),
	// fits the cost model, and reshards the running job to the optimum —
	// training continues through the whole search. The resharding is
	// lossless, so the loss trajectory is the same as a run configured
	// with any count from the start (see ClipNorm for the one
	// exception). In distributed mode the agents agree on every
	// measurement through the collective layer, so all of them reshard
	// in lockstep. Auto-checkpoints and membership changes wait until
	// the search has settled.
	SparsePartitions int
	// ClipNorm > 0 enables global-norm gradient clipping via the
	// chief-worker aggregated-gradient read-back (§5). The global-norm
	// sum groups by partition, so with clipping on, reproducible bits
	// need a pinned SparsePartitions: the search's probe sequence depends
	// on measured wall-clock times.
	ClipNorm float64
	// Compression selects the wire-compression policy for gradient
	// traffic (DESIGN.md §11; see WithCompression and the
	// CompressionF16/CompressionBF16/CompressionTopK presets). The zero
	// value keeps every frame exact f32. The policy must match across
	// distributed agents and between a checkpoint and the session
	// restoring it.
	Compression CompressionPolicy
	// Dist runs this process as one agent of a multi-process cluster over
	// transport.TCP: it hosts one machine's workers and parameter server
	// and exchanges gradients with peer agents over persistent framed
	// connections. nil (the default) runs the whole cluster in-process
	// over the channel fabric. See DistConfig for the contract.
	Dist *DistConfig
	// AutoCheckpoint periodically saves the full training state under a
	// directory tree the session manages, which is what failure recovery
	// restores from (DESIGN.md §12). The zero value disables it.
	AutoCheckpoint AutoCheckpointSpec
	// Recovery lets a distributed session survive a peer agent's failure:
	// on ErrPeerFailed the survivors re-rendezvous at the next fabric
	// epoch, restore the latest complete auto-checkpoint, and continue the
	// Steps iterator bit-identically. Open refuses it without
	// AutoCheckpoint. The zero value (disabled) surfaces the failure as a
	// step error instead.
	Recovery RecoveryPolicy
	// Elastic enables elastic cluster membership (DESIGN.md §14): a new
	// agent started with DistConfig.JoinAddr is admitted into the
	// running cluster at a step boundary, and departures — voluntary
	// (Session.Leave) or crash-driven (Recovery.AllowShrink) — reshard
	// the departing machine's parameter-server state onto the survivors
	// without a restart. Open refuses it on a distributed session without
	// AutoCheckpoint (transitions hand state between topologies through
	// the checkpoint root). It also relaxes OpenFromCheckpoint's topology
	// check, in one process too, where it needs no root: a checkpoint
	// from one machine count restores onto another via the resharding
	// path (and Session.Resize reshards in place).
	Elastic bool
}

// AutoCheckpointSpec configures periodic automatic checkpoints: every
// EveryN completed steps the session saves a full checkpoint under
// Dir/step-<n>/ (see Session.Save for what is captured) and keeps the
// three most recent; a recovery or membership change records the new
// fabric epoch with its roster in Dir/MEMBERS. In distributed
// mode every agent must see the same Dir (shared or replicated
// filesystem) — each writes its own machine's shard, and a step's
// checkpoint counts as complete only once every shard is present.
type AutoCheckpointSpec struct {
	// Dir is the auto-checkpoint root. Empty disables auto-checkpointing.
	Dir string
	// EveryN saves after every EveryN completed steps; <= 0 defaults
	// to 10.
	EveryN int
}

// RecoveryPolicy configures automatic failure recovery for distributed
// sessions (DESIGN.md §12). When a peer agent dies mid-run, every
// survivor's step driver observes ErrPeerFailed, tears down the dead
// fabric, records the next epoch with its roster and restore point in
// the auto-checkpoint root's MEMBERS record, re-dials its peers at the
// new epoch, restores the latest complete auto-checkpoint,
// verifies cluster agreement on the restore step, and resumes — the
// Steps iterator continues as if the failure never happened (each step
// is yielded exactly once; replayed steps after the restore point are
// suppressed). The failed agent rejoins the same way: its supervisor
// restarts it with the same flags, it reads the epoch from MEMBERS,
// and the rendezvous completes. Each re-rendezvous allows 2 minutes,
// and a session survives at most 3 recoveries.
type RecoveryPolicy struct {
	// Enabled turns recovery on for a distributed session; Open refuses
	// it without AutoCheckpoint or without Dist.
	Enabled bool
	// AllowShrink, with Config.Elastic, changes what happens when a peer
	// fails and does not come back: instead of re-dialing the same
	// topology and waiting for a restart, the survivors agree on a
	// membership without the dead machine, reshard its parameter-server
	// partitions onto themselves, and continue at the reduced world size
	// (DESIGN.md §14). The excluded agent, if it was merely partitioned
	// rather than dead, fails fast instead of recovering in place. The
	// post-shrink loss trajectory necessarily diverges from the
	// uninterrupted run (a machine's workers vanished), but every step is
	// still yielded exactly once. Open refuses it without Enabled.
	AllowShrink bool
}

// DistConfig places one agent process inside a multi-machine cluster.
// Every agent must be built from the identical graph, resources, and
// Config (deterministic initializers, same seeds): the plan is
// recomputed per agent and must agree. AR-managed variables are
// broadcast from worker 0 at startup, so replicas begin bit-identical;
// each agent's Steps loop must also draw from identically seeded datasets,
// which keeps shard alignment without any data traffic.
type DistConfig struct {
	// Machine is the index of the cluster machine this process hosts
	// (its GPUs' workers and its parameter server).
	Machine int
	// Addrs[i] is machine i's agent address ("host:port"); must list one
	// address per machine of the ResourceInfo.
	Addrs []string
	// DialTimeout bounds the whole peer rendezvous (agents may start in
	// any order and retry dials until then), including the redials of an
	// agent that finds itself behind the cluster's epoch. Default 10s.
	// The context passed to Open tightens this further: its deadline caps
	// the rendezvous and cancelling it aborts the rendezvous immediately.
	DialTimeout time.Duration
	// Listener optionally supplies a pre-bound listener for
	// Addrs[Machine] (tests bind ":0" and hand the resolved address to
	// peers). The session takes ownership. A recovery re-rendezvous
	// always rebinds from Addrs, so tests that exercise recovery must
	// list real addresses even when they hand over a listener.
	Listener net.Listener
	// JoinAddr, when non-empty, starts this agent as a JOINER instead of
	// a founding member, serving on the given address ("host:port") once
	// admitted. Rather than rendezvousing from Addrs, Open files a join
	// request in the cluster's auto-checkpoint root, waits until a step
	// boundary admits it (the root's MEMBERS record names it), pulls its
	// shard of the training state from the root, and enters the
	// collective at the agreed step. No member's address is needed.
	// Requires Config.Elastic and AutoCheckpoint on the shared root;
	// DialTimeout (default 2 minutes, the recovery redial window) bounds
	// the wait.
	// Machine and Addrs are ignored (the MEMBERS record assigns them).
	JoinAddr string
	// Chaos arms the deterministic fault-injection harness on this
	// agent's fabric (internal/chaos): a comma-separated fault spec such
	// as "kill@17" or "delay@5:50ms". Testing/CI knob — not for
	// production use; see the chaos package for the grammar (slow-peer
	// jitter draws from a fixed seed, so every run replays the schedule).
	Chaos string
}

// MeasureAlpha estimates the α a dataset induces on a vocabulary of the
// given size (§2.2): the mean fraction of rows touched per batch. It is
// an input to the simulator's models (examples/sweep); a session's plan
// does not read α, because the α-threshold rule is simulated only.
func MeasureAlpha(d Dataset, vocab, iters int) float64 {
	return data.MeasureAlpha(d, vocab, iters)
}
