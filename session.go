package parallax

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync/atomic"
	"time"

	"parallax/internal/chaos"
	"parallax/internal/checkpoint"
	"parallax/internal/core"
	"parallax/internal/data"
	"parallax/internal/graph"
	"parallax/internal/metrics"
	"parallax/internal/partition"
	"parallax/internal/transform"
	"parallax/internal/transport"
)

// Session is the context-first handle on a running training job: Open
// analyzes the single-GPU graph, builds the sparsity-aware plan,
// transforms the graph into per-GPU replicas plus parameter servers,
// and starts the persistent runtime. The step driver is a streaming
// iterator —
//
//	s, err := parallax.Open(ctx, g, resources, parallax.WithClipNorm(5))
//	defer s.Close()
//	for stats, err := range s.Steps(ctx, dataset) {
//		if err != nil { ... }
//		if stats.Step == lastStep { break }
//	}
//
// — and the full training state (variable values, optimizer slot
// state, step counter, dataset cursor) can be captured with Save and
// resumed bit-identically with OpenFromCheckpoint, over either fabric.
//
// Cancelling the Steps context ends the loop at the next step boundary:
// the in-flight step drains cleanly and the iterator yields the context
// error, so a cancel returns within one step with no goroutine leaks.
// In distributed mode every step boundary carries one scalar control
// word across the agents, so whichever way one agent's loop ends —
// cancellation or a break out of the range — every agent stops at the
// same step boundary; the agents that did not stop locally see their
// iterator yield context.Canceled.
//
// In distributed mode the step drivers are collective operations:
// every agent must run the same sequence of loops over the same steps
// (identical binaries do this naturally). Within that contract the
// agents may end a loop by any mechanism — the per-boundary agreement
// keeps them at the same boundary.
//
// A Session must not run Steps, Save, or Repartition concurrently with
// each other.
type Session struct {
	g *Graph
	// cfg is the options with defaults resolved, fixed by Open. cfg.Dist is
	// the launch placement; the live one is liveRuntime.dist.
	cfg Config
	liveRuntime

	// cursor counts dataset batches the step drivers have drawn;
	// pendingSkip is the restored cursor the next Steps call fast-forwards
	// its dataset by.
	cursor      int64
	pendingSkip int64
	// closed is set by Close and by a failed rebuild, and read by Leave
	// from any goroutine.
	closed atomic.Bool

	// Failure-recovery state (recovery.go): the recovery counter reported
	// in StepStats, the feed log replays draw from, and the chaos injector
	// that survives fabric rebuilds.
	recoveries   int
	lastRecovery time.Duration
	replay       *feedLog
	chaos        *chaos.Injector

	// Elastic-membership state (elastic.go): the voluntary-leave intent,
	// set by Leave (or a chaos leave fault, possibly from another
	// goroutine) and consumed at the next step boundary's control word.
	leaving atomic.Bool
}

// liveRuntime is everything a rebuild replaces: the trainer and every
// decision bound to the (roster, epoch, plan) it was built for. rebuild
// swaps it into the Session with a single assignment.
type liveRuntime struct {
	trainer  *transform.Trainer
	plan     *core.Plan
	resource ResourceInfo
	dist     *DistConfig // this agent's placement; nil in single-process mode
	epoch    int         // fabric generation, reported in StepStats
	workers  int
	feeds    []Feed

	// decision.Pending is the partition search's one piece of state: set
	// by decide, cleared when the search settles, saved in checkpoints.
	decision PartitionDecision
	// fab is the fabric the trainer was built on, where chaos faults
	// fire; nil in single-process mode, where chaos cannot be armed.
	fab transport.Fabric
}

// target names where a rebuild lands: the roster, this agent's place in
// it, and the fabric generation to rendezvous at.
type target struct {
	resource ResourceInfo
	dist     *DistConfig
	epoch    int
}

// machine is the index of the checkpoint shard this agent owns.
func (t target) machine() int {
	if t.dist == nil {
		return 0
	}
	return t.dist.Machine
}

// Open is the paper's get_runner (§4.1): it builds a Session for the
// single-GPU graph on the given cluster. ctx governs establishment: for
// distributed sessions (WithDistConfig) the peer-rendezvous deadline is the
// earlier of ctx's deadline and the configured DialTimeout, and
// cancelling ctx aborts the rendezvous.
//
// With WithAutoCheckpoint, Open first looks for a complete
// auto-checkpoint under the configured directory and resumes from the
// latest one — which is how a restarted agent rejoins a recovering
// cluster with no flag changes (DESIGN.md §12).
func Open(ctx context.Context, g *Graph, resource ResourceInfo, opts ...Option) (*Session, error) {
	cfg, err := resolveConfig(opts)
	if err != nil {
		return nil, err
	}
	if cfg.Dist != nil && cfg.Dist.JoinAddr != "" {
		tgt, dir, err := awaitAdmission(ctx, resource, cfg)
		if err != nil {
			return nil, err
		}
		return openAt(ctx, g, cfg, tgt, dir, true)
	}
	tgt := target{resource: resource, dist: cfg.Dist}
	dir := ""
	if root := cfg.AutoCheckpoint.Dir; root != "" {
		if cfg.Elastic && cfg.Dist != nil {
			// An elastic cluster's authoritative membership lives in the
			// checkpoint root, not in the launch flags: a restarted agent may
			// come back after the cluster grew or shrank around it.
			if err := adoptMembers(root, &tgt); err != nil {
				return nil, err
			}
		}
		step, sdir, err := checkpoint.LatestComplete(root, tgt.resource.NumMachines())
		if err != nil {
			return nil, err
		}
		if step >= 0 {
			dir = sdir
		}
	}
	return openAt(ctx, g, cfg, tgt, dir, false)
}

// OpenFromCheckpoint rebuilds a Session from a Save checkpoint and
// resumes it bit-identically: variable values, optimizer slot state,
// the step counter, and the dataset cursor are restored, so the
// continued run's per-step losses equal an uninterrupted run's bit for
// bit. The caller supplies the same graph, resources, and options the
// saved session was opened with (deterministic initializers with the
// same seeds); the restore re-validates the cluster topology and the
// rebuilt synchronization plan against the checkpoint's fingerprints
// and refuses a mismatch with ErrTopologyMismatch. In distributed mode
// every agent restores from the same checkpoint directory (shared or
// replicated filesystem): each reads its own machine's shard plus shard
// 0's replica variables.
func OpenFromCheckpoint(ctx context.Context, dir string, g *Graph, resource ResourceInfo, opts ...Option) (*Session, error) {
	cfg, err := resolveConfig(opts)
	if err != nil {
		return nil, err
	}
	return openAt(ctx, g, cfg, target{resource: resource, dist: cfg.Dist}, dir, false)
}

// openAt is a new session's first rebuild. A founding or restarting
// agent rendezvouses at the epoch recorded in the auto-checkpoint root;
// a joiner arrives with the epoch of the MEMBERS record that admitted it
// and owes the re-formed cluster the same post-transition re-save the
// survivors run.
func openAt(ctx context.Context, g *Graph, cfg Config, tgt target, dir string, joined bool) (*Session, error) {
	s := &Session{g: g, cfg: cfg}
	if root := cfg.AutoCheckpoint.Dir; root != "" && !joined {
		var err error
		if tgt.epoch, err = checkpoint.ReadEpoch(root); err != nil {
			return nil, err
		}
	}
	if err := s.rebuild(ctx, tgt, dir); err != nil {
		return nil, err
	}
	if joined {
		if err := s.resave(dir); err != nil {
			s.Close()
			return nil, err
		}
	}
	if s.chaos != nil && s.cfg.Elastic {
		// Armed once on the long-lived session so the closure survives
		// fabric rebuilds (the injector itself already does).
		s.chaos.OnLeave = func(step, machine int) {
			if s.dist != nil && s.dist.Machine == machine {
				s.leaving.Store(true)
			}
		}
	}
	return s, nil
}

// rebuild is the one way a session gets a runtime: it tears down the
// live trainer (if any), brings one up for tgt, installs the checkpoint
// in dir ("" starts from the graph's initial values), and adopts the
// result. Open's first build and auto-resume, OpenFromCheckpoint,
// in-place recovery, membership transitions, the joiner, and Resize are
// all callers that only choose tgt and dir.
//
// The general case is the cross-topology reshard-install: a checkpoint
// written at another topology (WithElastic opts in) is read whole, its
// server partitions are re-placed onto the new servers, and worker-
// indexed residuals are dropped. The same-topology restore is its
// identity instance — plan fingerprint checked, residuals kept.
//
// Everything that can be refused without touching the live runtime is
// checked first, so a bad argument leaves the session running. After
// the teardown there is one rule: a failed rebuild leaves the session
// closed (ErrClosed).
func (s *Session) rebuild(ctx context.Context, tgt target, dir string) (err error) {
	cfg := s.cfg
	if err := validateTarget(s.g, tgt); err != nil {
		return err
	}
	var head *shardHead
	if dir != "" {
		if head, err = readShardHead(dir, tgt, cfg); err != nil {
			return err
		}
	}
	rt := liveRuntime{
		resource: tgt.resource, dist: tgt.dist, epoch: tgt.epoch,
		workers: tgt.resource.TotalGPUs(), feeds: make([]Feed, tgt.resource.TotalGPUs()),
	}
	if err = rt.decide(s.g, cfg, head); err != nil {
		return err
	}
	if s.chaos == nil && tgt.dist != nil && tgt.dist.Chaos != "" {
		if s.chaos, err = chaos.Parse(tgt.dist.Chaos); err != nil {
			return err
		}
	}

	if s.trainer != nil {
		// The worker/server goroutines and the listener port must be gone
		// before the re-rendezvous.
		s.trainer.Close()
	}
	defer func() {
		if err != nil {
			if rt.trainer != nil {
				rt.trainer.Close()
			}
			s.closed.Store(true)
		}
	}()
	if tgt.dist != nil {
		if rt.fab, rt.epoch, err = dialFabric(ctx, tgt, cfg); err != nil {
			return err
		}
	}
	rt.trainer, err = transform.New(s.g, transform.Options{
		Plan:             rt.plan,
		Resource:         rt.resource,
		NewOptimizer:     cfg.NewOptimizer,
		LocalAggregation: cfg.Arch.Optimized(),
		ClipNorm:         cfg.ClipNorm,
		Compression:      cfg.Compression,
		Fabric:           rt.fab,
	})
	if err != nil {
		return err
	}
	// A fresh session fast-forwards the dataset its first Steps call is
	// handed; a live one keeps its dataset position and replays from the
	// feed log instead.
	fresh := s.trainer == nil
	s.liveRuntime = rt
	if head != nil {
		if err = s.install(dir, head); err != nil {
			return err
		}
		s.cursor = head.meta.Cursor
		if fresh {
			s.pendingSkip = head.meta.Cursor
		}
		if s.replay != nil {
			if err = s.replay.rewindTo(head.meta.Cursor); err != nil {
				return err
			}
		}
	}
	return s.verifyJoin()
}

// validateTarget refuses graphs and clusters no runtime can be built
// for.
func validateTarget(g *Graph, tgt target) error {
	if err := g.Validate(); err != nil {
		return err
	}
	return tgt.resource.Validate()
}

// decide settles the partition count, the plan built for it, and how
// the count was chosen: fixed by configuration, restored from the
// checkpoint, or left pending for the search the first step loop runs.
func (rt *liveRuntime) decide(g *Graph, cfg Config, head *shardHead) (err error) {
	d := &rt.decision
	*d = PartitionDecision{P: cfg.SparsePartitions, Source: "fixed"}
	search := d.P == 0
	if head != nil {
		// A restored session rebuilds the plan with exactly the
		// checkpointed partition count — even if the original run searched
		// for it — so the plan fingerprints can be compared. A search that
		// had not run yet at save time runs on the first Steps call, as it
		// would have in the original run.
		d.P, search = head.meta.Parts, search && head.meta.DecisionPending
		d.Source = head.meta.DecisionSource
	} else if search {
		// The search starts from the paper's initial sample point, one
		// partition per machine.
		d.P = rt.resource.NumMachines()
	}
	if rt.plan, err = buildPlan(g, rt.resource, cfg, d.P); err != nil {
		return err
	}
	// Which variables are partitioned on servers does not depend on the
	// count, so the plan just built says whether there is anything to
	// search over: an architecture that routes every partition target
	// through collectives leaves nothing to reshard.
	if search && searchBound(rt.plan) > 0 {
		d.Source, d.Pending = "online", true
	} else if head == nil && cfg.SparsePartitions == 0 {
		d.P = 1 // nothing is partitioned; the plan is the same at any count
	}
	return nil
}

// shardHead is what rebuild learns from a checkpoint before committing
// to it: one shard's meta (every shard carries the same job-level
// fields) and that shard's records.
type shardHead struct {
	machine int
	meta    checkpoint.Meta
	recs    []checkpoint.Record
	// reshard marks a checkpoint written at another topology.
	reshard bool
}

// readShardHead reads this agent's shard of the checkpoint in dir and
// checks the checkpoint can be restored onto tgt under cfg.
func readShardHead(dir string, tgt target, cfg Config) (*shardHead, error) {
	h := &shardHead{machine: tgt.machine()}
	var err error
	h.meta, h.recs, err = checkpoint.ReadShard(dir, h.machine)
	if err != nil {
		if !cfg.Elastic || h.machine == 0 {
			return nil, err
		}
		// An elastic regrow may give this machine an index with no shard
		// in a checkpoint written at a smaller topology; shard 0 always
		// exists and carries the same meta, and the resharding install
		// reads every shard anyway.
		meta0, recs0, err0 := checkpoint.ReadShard(dir, 0)
		if err0 != nil || h.machine < meta0.Machines {
			return nil, err
		}
		h.machine, h.meta, h.recs = 0, meta0, recs0
	}
	if fp := checkpoint.TopoFingerprint(tgt.resource); fp != h.meta.TopoFP {
		// Restoring onto a different topology is only sound through the
		// resharding install — the caller must opt in.
		if !cfg.Elastic {
			return nil, fmt.Errorf("parallax: %w: checkpoint topology %q, cluster is %q (WithElastic enables cross-topology restore)",
				ErrTopologyMismatch, h.meta.TopoFP, fp)
		}
		h.reshard = true
	}
	// The compression policy is part of the job's identity: restoring
	// under a different policy would resume a different optimization
	// trajectory (and orphan or fabricate error-feedback residuals).
	// Version-1 checkpoints predate the field and decode as "none".
	if fp := cfg.Compression.Fingerprint(); fp != h.meta.Compression {
		return nil, fmt.Errorf("parallax: %w: checkpoint written with policy %q, session configured with %q",
			ErrCompressionMismatch, h.meta.Compression, fp)
	}
	return h, nil
}

// install loads the remaining shards and seeds the freshly built
// trainer with the checkpointed state.
func (s *Session) install(dir string, head *shardHead) error {
	meta := head.meta
	// A resharding install re-places state: server placement is a function
	// of the machine count, so the rebuilt plan's fingerprint legitimately
	// differs from the checkpoint's. Partition ranges are not — they
	// depend only on row counts and the partition count, which the restore
	// preserves — so re-placing the checkpointed parts onto the new
	// servers is exact.
	if !head.reshard {
		if fp := checkpoint.PlanFingerprint(s.plan); fp != meta.PlanFP {
			return fmt.Errorf("parallax: %w: checkpoint plan fingerprint %q, rebuilt plan is %q",
				ErrTopologyMismatch, meta.PlanFP, fp)
		}
	}
	// Which shards this process needs, in machine-index order: its own
	// (read already) and shard 0 for the replica variables — or all of
	// them in single-process mode, where this process hosts every machine,
	// and when resharding, where old server parts live anywhere.
	need := []int{0}
	if head.machine != 0 {
		need = append(need, head.machine)
	}
	if head.reshard || s.dist == nil {
		need = make([]int, meta.Machines)
		for m := range need {
			need[m] = m
		}
	}
	recs := head.recs
	for _, m := range need {
		if m == head.machine {
			continue
		}
		mm, mrecs, err := checkpoint.ReadShard(dir, m)
		if err != nil {
			return err
		}
		if mm.Step != meta.Step || mm.Cursor != meta.Cursor || mm.Parts != meta.Parts ||
			mm.PlanFP != meta.PlanFP || mm.TopoFP != meta.TopoFP {
			return fmt.Errorf("parallax: checkpoint shard %d disagrees with shard %d (torn save?)", m, head.machine)
		}
		recs = append(recs, mrecs...)
	}
	// Each shard carries its own machine's workers' top-k residuals, so
	// the trainer keeps those of the workers it hosts (shard 0, read for
	// the replica variables, may belong to a peer agent). A resharding
	// install drops residuals entirely: they are indexed by the old
	// worker numbering, which has no mapping onto the new one; error
	// feedback restarts from zero after a topology change.
	return s.trainer.Restore(recs, meta.Step, head.reshard)
}

// Save captures the session's full training state into a checkpoint
// directory, one shard per machine this process hosts (all of them in
// single-process mode, exactly one per agent in distributed mode; every
// agent must call Save with the same directory between the same steps,
// like Repartition). Shard files are written atomically. The saved
// state — variable values, optimizer slots, step counter, dataset
// cursor, and the partition decision — is everything OpenFromCheckpoint
// needs for a bit-identical resume.
func (s *Session) Save(dir string) error {
	if s.closed.Load() {
		return fmt.Errorf("parallax: save on %w session", ErrClosed)
	}
	meta := checkpoint.Meta{
		Machines:        s.resource.NumMachines(),
		Step:            int64(s.trainer.StepCount()),
		Cursor:          s.cursor,
		Parts:           s.decision.P,
		DecisionSource:  s.decision.Source,
		DecisionPending: s.decision.Pending,
		TopoFP:          checkpoint.TopoFingerprint(s.resource),
		PlanFP:          checkpoint.PlanFingerprint(s.plan),
		Compression:     s.cfg.Compression.Fingerprint(),
	}
	for _, m := range s.trainer.LocalMachines() {
		// Shard m: machine m's server partitions, plus the replica
		// variables in shard 0 and m's workers' top-k residuals.
		recs, err := s.trainer.Snapshot(m)
		if err != nil {
			return err
		}
		meta.Machine = m
		if err := checkpoint.WriteShard(dir, meta, recs); err != nil {
			return err
		}
	}
	return nil
}

// Steps returns the step iterator for a token-model graph: each
// iteration draws one batch per worker from ds (successive batches to
// successive workers, so one endless stream is consumed as disjoint
// shards) and yields the step's StepStats. The iterator is endless —
// range over it and break (or cancel ctx) when done. The first call on
// a restored session fast-forwards ds to the checkpointed cursor, so
// pass a dataset constructed exactly like the original run's.
//
// On an error — a failed step, or ctx cancelled — the iterator yields
// (zero stats, err) once and stops. Graphs with differently named
// inputs should use StepsFeeds.
func (s *Session) Steps(ctx context.Context, ds Dataset) iter.Seq2[StepStats, error] {
	return func(yield func(StepStats, error) bool) {
		for _, name := range []string{"tokens", "labels"} {
			if !hasIntInput(s.g, name) {
				yield(StepStats{}, fmt.Errorf(
					"parallax: Steps needs an int input named %q (use StepsFeeds for custom feeds)", name))
				return
			}
		}
		if s.pendingSkip > 0 {
			if err := data.FastForward(ds, s.pendingSkip); err != nil {
				yield(StepStats{}, err)
				return
			}
			s.pendingSkip = 0
		}
		// Failure recovery replays steps from a feed log (recovery.go);
		// arm it from the current cursor the first time the session is
		// auto-checkpointing.
		if s.cfg.AutoCheckpoint.Dir != "" && s.replay == nil {
			s.replay = &feedLog{base: s.cursor, saves: []int64{s.cursor}}
		}
		s.drive(ctx, s.datasetFeeds(ds), yield)
	}
}

// StepsFeeds is Steps for arbitrary feeds: next(step, worker) supplies
// worker w's feed for the (absolute) step. Resumption of the feed
// source is the caller's concern — next sees absolute step numbers, so
// a restored session asks for exactly the steps that come after the
// checkpoint.
func (s *Session) StepsFeeds(ctx context.Context, next func(step, worker int) (Feed, error)) iter.Seq2[StepStats, error] {
	return func(yield func(StepStats, error) bool) {
		s.drive(ctx, next, yield)
	}
}

// datasetFeeds adapts an endless batch stream to the feed callback,
// advancing the session's dataset cursor (the quantity Save persists).
// With recovery armed, every batch routes through the feed log so a
// post-failure replay serves the original batches again.
func (s *Session) datasetFeeds(ds Dataset) func(step, worker int) (Feed, error) {
	return func(step, worker int) (Feed, error) {
		var b data.Batch
		if s.replay != nil {
			b = s.replay.next(ds)
		} else {
			b = ds.Next()
		}
		s.cursor++
		return Feed{Ints: map[string][]int{"tokens": b.Tokens, "labels": b.Labels}}, nil
	}
}

// Partition-search constants: each candidate partition count is measured
// over tuneStepsPerProbe real training steps, and the whole search
// stays within the paper's §6.5 budget of tuneMaxRuns measurement runs.
const (
	tuneStepsPerProbe = 3
	tuneMaxRuns       = 5
)

// stepDriver is one drive call's state: the loop Steps and StepsFeeds
// share.
type stepDriver struct {
	s       *Session
	ctx     context.Context
	next    func(step, worker int) (Feed, error)
	yield   func(StepStats, error) bool
	stopped bool // consumer broke out; never call yield again
	// maxEmitted is the highest step number yielded by this drive; after
	// an in-place recovery, replayed steps at or below it are re-run for
	// state but not re-yielded, so the consumer sees every step once.
	maxEmitted int
}

// drive yields each step's stats until the loop is stopped: the single
// code path behind the public iterators, including the partition
// search a session opened without a fixed count runs first.
func (s *Session) drive(ctx context.Context, next func(step, worker int) (Feed, error), yield func(StepStats, error) bool) {
	if s.closed.Load() {
		yield(StepStats{}, fmt.Errorf("parallax: steps on %w session", ErrClosed))
		return
	}
	d := &stepDriver{s: s, ctx: ctx, next: next, yield: yield, maxEmitted: s.trainer.StepCount() - 1}
	d.run()
}

// emit yields one iteration; after the consumer breaks it becomes a
// no-op (the iterator contract forbids further yield calls).
func (d *stepDriver) emit(st StepStats, err error) bool {
	if d.stopped {
		return false
	}
	if !d.yield(st, err) {
		d.stopped = true
	}
	return !d.stopped
}

// ctlStop is the stop flag of the step-boundary control word. The word
// is one exact integer in the float64 every worker all-gathers at a
// boundary: the agent's membership proposal code (membership.go, 0 for
// none) plus ctlStop when it wants the loop to end. The flag sits above
// every proposal code, so the cluster-wide maximum is at once the OR of
// the stop requests and — when nobody stops — the max-fold that elects
// one proposal: stop wins.
const ctlStop = 1 << 40

// boundary is the one cross-agent exchange of a step boundary
// (DESIGN.md §10, §14): it folds this agent's stop request — a
// cancelled context or a consumer break — and, when propose is set on
// an elastic session, its membership proposal into the control word,
// and returns the cluster's agreed decision, identical on every agent.
// Schedule alignment is argued here and nowhere else: every agent that
// crosses a boundary runs exactly this one agreement, so a founding
// member, a survivor re-entering the boundary after a rebuild, and a
// joiner's fresh driver all stay in lockstep. An error means the
// agreement itself failed — a dead peer, not a decision; it carries the
// attribution (ErrPeerFailed) and is recovery-eligible.
func (d *stepDriver) boundary(propose bool) (stop bool, proposal float64, err error) {
	s := d.s
	stop = d.stopped || d.ctx.Err() != nil
	// Deliberately not conditioned on the trainer being distributed: a
	// cluster shrunk to one machine still proposes (the fold degenerates
	// to its own word), which is how it can re-grow.
	propose = propose && s.memberRounds()
	if !propose && !s.trainer.Distributed() {
		return stop, 0, nil
	}
	var word float64
	if stop {
		word = ctlStop
	} else if propose {
		if word, err = s.localProposal(); err != nil {
			return false, 0, err
		}
	}
	agreed, err := s.trainer.AgreeMax("ctl", word)
	if err != nil {
		return false, 0, err
	}
	if agreed >= ctlStop {
		return true, 0, nil
	}
	return false, agreed, nil
}

// stopErr is what the iterator yields when the loop was stopped: the
// context's error, or context.Canceled when a peer agent (or the
// consumer) stopped it.
func (d *stepDriver) stopErr() error {
	if err := d.ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

func (d *stepDriver) run() {
	s := d.s
	if s.decision.Pending {
		// A search cut short (cancellation, a failed probe) stays pending,
		// so a later Steps call starts it over.
		if err := d.tune(); err != nil {
			d.emit(StepStats{}, err)
			return
		}
	}
	for {
		st, err := d.advance()
		if err != nil {
			if d.recoverable(err) {
				start := time.Now()
				if err = d.recover(err); err == nil {
					s.lastRecovery = time.Since(start)
					continue
				}
			}
			d.emit(StepStats{}, err)
			return
		}
		// After a consumer break a distributed loop goes on to the next
		// boundary, where the stop is agreed cluster-wide.
		if st.Step > d.maxEmitted {
			d.maxEmitted = st.Step
			if !d.emit(st, nil) && !s.trainer.Distributed() {
				return
			}
		}
	}
}

// advance crosses one step boundary and runs the step behind it. An
// agreed membership change rebuilds the trainer at the new world size
// and re-enters the boundary, which is exactly where a joiner's fresh
// driver starts.
func (d *stepDriver) advance() (StepStats, error) {
	s := d.s
	for {
		stop, proposal, err := d.boundary(true)
		if err != nil {
			return StepStats{}, err
		}
		if stop {
			return StepStats{}, d.stopErr()
		}
		if proposal == 0 {
			break
		}
		if err := s.transition(d.ctx, proposal); err != nil {
			return StepStats{}, err
		}
	}
	st, err := s.oneStep(d.next)
	if err != nil {
		return StepStats{}, err
	}
	// Auto-save before yielding: the save schedule is then a pure
	// function of the step count, identical on every agent whatever its
	// consumer does with the emission.
	return st, s.maybeAutoSave()
}

// tune is the partition search (§3.2; DESIGN.md §9): it drives the
// sampling search with real measured steps, resharding the live runtime
// to each candidate P, and settles on the optimum. Measured times are
// folded to a cluster-wide maximum through the collective layer, so in
// distributed mode every agent derives the same probe sequence from the
// same numbers and the repartition protocol stays in lockstep. A
// cancellation is observed (cluster-agreed) before every probe step;
// auto-saves and membership proposals wait until the search has settled.
func (d *stepDriver) tune() error {
	s := d.s
	var runErr error
	measure := func(p int) float64 {
		if runErr != nil {
			return math.Inf(1)
		}
		if err := s.Repartition(p); err != nil {
			runErr = err
			return math.Inf(1)
		}
		var total time.Duration
		for k := 0; k < tuneStepsPerProbe; k++ {
			stop, _, err := d.boundary(false)
			if err == nil && stop {
				err = d.stopErr()
			}
			if err != nil {
				runErr = err
				return math.Inf(1)
			}
			st, err := s.oneStep(d.next)
			if err != nil {
				runErr = err
				return math.Inf(1)
			}
			total += st.StepTime
			d.emit(st, nil)
		}
		m, aerr := s.trainer.AgreeMax("tune", total.Seconds()/tuneStepsPerProbe)
		if aerr != nil {
			runErr = aerr
			return math.Inf(1)
		}
		return m
	}
	res, err := partition.SearchN(measure, s.resource.NumMachines(), searchBound(s.plan), tuneMaxRuns)
	if runErr != nil {
		return runErr
	}
	if err != nil {
		return err
	}
	if err := s.Repartition(res.BestP); err != nil {
		return err
	}
	s.decision = PartitionDecision{P: res.BestP, Source: "online", Search: &res}
	return nil
}

// oneStep draws every worker's feed, runs one synchronous step, and
// assembles its StepStats (absolute step number).
func (s *Session) oneStep(next func(step, worker int) (Feed, error)) (StepStats, error) {
	step := s.trainer.StepCount()
	for w := 0; w < s.workers; w++ {
		f, err := next(step, w)
		if err != nil {
			return StepStats{}, err
		}
		s.feeds[w] = f
	}
	start := time.Now()
	if s.chaos != nil {
		s.chaos.Step(step, s.fab)
	}
	if _, err := s.trainer.Step(s.feeds); err != nil {
		return StepStats{}, err
	}
	st := s.trainer.LastStep()
	st.Step = step
	st.StepTime = time.Since(start)
	st.Epoch = s.epoch
	st.RecoveryCount = s.recoveries
	return st, nil
}

// StepCount returns the number of completed training steps, including
// steps restored from a checkpoint.
func (s *Session) StepCount() int { return s.trainer.StepCount() }

// Repartition reshards the partition-target sparse variables to p
// partitions on the live runtime, without restarting it (DESIGN.md §9).
// The migration is lossless — training continues bit-identically to a
// run that used p from the start. It must not run concurrently with the
// step drivers; in distributed mode every agent must call it with the
// same p between the same steps (the partition search does this
// automatically).
func (s *Session) Repartition(p int) error {
	if s.closed.Load() {
		return fmt.Errorf("parallax: repartition on %w session", ErrClosed)
	}
	if p < 1 {
		return fmt.Errorf("parallax: repartition to %d partitions", p)
	}
	plan, err := buildPlan(s.g, s.resource, s.cfg, p)
	if err != nil {
		return err
	}
	if err := s.trainer.Repartition(plan); err != nil {
		return err
	}
	s.plan = plan
	s.decision.P = p
	return nil
}

// Close stops the session's persistent runtime (worker goroutines,
// parameter servers, serving loops) and tears down the transport
// fabric. Close is idempotent; the session must not be used afterwards
// (operations return ErrClosed).
func (s *Session) Close() error {
	s.closed.Store(true)
	s.trainer.Close()
	return nil
}

// PartitionDecision reports how the current partition count was chosen
// and, for searched decisions, the sampled points and fitted cost model.
func (s *Session) PartitionDecision() PartitionDecision { return s.decision }

// ShardMap renders the live per-route shard map: every variable's
// synchronization method and, for PS variables, the partition→machine
// assignment currently in effect (it reflects live repartitioning).
func (s *Session) ShardMap() string {
	return metrics.FormatShardMap(metrics.ShardRoutes(s.plan.Assignments))
}

// Workers returns the number of model replicas (total GPUs) across the
// whole cluster.
func (s *Session) Workers() int { return s.workers }

// LocalWorkers returns the global ranks this process hosts — all
// workers in single-process mode, one machine's share under WithDistConfig.
func (s *Session) LocalWorkers() []int { return s.trainer.LocalWorkers() }

// SparsePartitions returns the partition count in effect (searched,
// configured, or restored).
func (s *Session) SparsePartitions() int { return s.decision.P }

// VarValue returns the current full value of a variable (assembled from
// the servers for PS variables). Under WithDistConfig the peers' servers hold
// part of a PS variable, so reading one is collective: every agent
// calls VarValue for it between the same steps, and none returns — nor
// can go on to Close — before all have read.
func (s *Session) VarValue(name string) (*Dense, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("parallax: read on %w session", ErrClosed)
	}
	return s.trainer.VarValue(name)
}

// Describe summarizes the plan: how each variable is synchronized,
// which transport the job runs over, and how the partition count was
// decided.
func (s *Session) Describe() string {
	out := fmt.Sprintf("parallax: %d workers, %s architecture\n", s.workers, s.plan.Arch)
	if s.dist != nil {
		out += fmt.Sprintf("transport: tcp, agent for machine %d of %d (inproc within the agent)\n",
			s.dist.Machine, len(s.dist.Addrs))
	} else {
		out += "transport: inproc (single process)\n"
	}
	out += s.decision.String()
	for _, a := range s.plan.Assignments {
		extra := ""
		if a.Method == core.MethodPS && a.Partitions > 1 {
			extra = fmt.Sprintf(" x%d partitions", a.Partitions)
		}
		kind := "dense"
		if a.Sparse {
			kind = "sparse"
		}
		out += fmt.Sprintf("  %-24s %-6s -> %s%s\n", a.Name, kind, a.Method, extra)
	}
	return out
}

// buildPlan derives the sparsity-aware plan for the given partition
// count — shared between session construction and live repartitioning
// so both produce identical placements for identical inputs.
func buildPlan(g *Graph, resource ResourceInfo, cfg Config, parts int) (*core.Plan, error) {
	return core.BuildPlan(planVars(g), core.Options{
		Arch:             cfg.Arch,
		NumMachines:      resource.NumMachines(),
		SparsePartitions: parts,
		SmartPlacement:   cfg.Arch.Optimized(),
	})
}

// searchBound is the partition search's upper bracket: the row count of
// the largest sparse variable the plan partitions across servers (the
// variables live resharding applies to), clamped by partition.Bound. 0
// means the plan has no such variable and there is nothing to search.
func searchBound(plan *core.Plan) int {
	maxRows := 0
	for _, a := range plan.Assignments {
		if a.Method == core.MethodPS && a.PartitionTarget && a.Sparse && int(a.Rows) > maxRows {
			maxRows = int(a.Rows)
		}
	}
	if maxRows == 0 {
		return 0
	}
	return partition.Bound(maxRows)
}

// planVars converts graph variables to planner inputs. A sparse
// variable's α only has to pass BuildPlan's (0,1] check: the runtime
// has no α-threshold rule, so no placement reads it.
func planVars(g *Graph) []core.VarInfo {
	var vars []core.VarInfo
	for _, v := range g.Variables() {
		width := int64(1)
		for _, d := range v.Shape[1:] {
			width *= int64(d)
		}
		sparse := g.GradKind(v) == graph.GradSparse
		alpha := 1.0
		if sparse {
			alpha = 0.05
		}
		vars = append(vars, core.VarInfo{
			Name: v.Name, Rows: int64(v.Shape[0]), Width: width,
			Sparse: sparse, Alpha: alpha, PartitionTarget: v.PartitionScope >= 0,
		})
	}
	return vars
}

func hasIntInput(g *Graph, name string) bool {
	for _, n := range g.Nodes() {
		if n.Kind == graph.OpInput && n.DType == graph.Int && n.Name == name {
			return true
		}
	}
	return false
}
