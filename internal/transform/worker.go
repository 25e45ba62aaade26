package transform

import (
	"fmt"
	"math"
	"time"

	"parallax/internal/collective"
	"parallax/internal/core"
	"parallax/internal/graph"
	"parallax/internal/metrics"
	"parallax/internal/optim"
	"parallax/internal/psrt"
	"parallax/internal/tensor"
)

// worker is one GPU this process hosts: its graph replica, its replica
// optimizer and communicator, its server endpoints, and every buffer a
// step touches on its behalf, all built by New.
//
// Two goroutines run a worker. The worker goroutine (workerLoop) writes
// exec, opt, the pull lists, bucketPending, lossGather, out, err, the
// pull, compute and wait phases, and the gradients it copies into
// fuseViews. The comm goroutine (commLoop) writes the reduced fuseBufs,
// fuseResid, topk, arSparse, denseReqs, sparseReqs and the comm phase.
// Both speak through comm and ps, never at once: the worker goroutine
// pulls before it hands the comm goroutine any task, and its commFlush,
// answered on commAck, orders the step's synchronization before it reads
// the results (the buckets through fuseViews, arSparse) or uses comm and
// ps again — the loss exchange, the clip read-back, an agreement.
// Between fan-outs both goroutines are parked and the caller's
// goroutine may read and rebuild anything here (Step's record,
// Repartition's pull lists, Snapshot and Restore).
type worker struct {
	rank    int // global worker rank
	machine int // the machine it runs on
	gpu     int // its index among that machine's GPUs

	exec *graph.Exec
	opt  optim.Optimizer // applies the AllReduce and AllGatherv updates
	comm *collective.Comm
	// ps[m] is the endpoint for machine m's server: the server itself
	// when colocated, a psrt.Client stub over the conduit when remote.
	// nil when the plan has no PS routes.
	ps []psrt.Endpoint

	// fuseBufs[b] is bucket b's flat fusion buffer, and fuseViews[ri] a
	// zero-copy view shaped like route ri's variable into it; the apply
	// and clip paths read aggregated gradients through the views.
	// bucketPending[b] counts the routes of bucket b not yet copied this
	// step.
	fuseBufs      []*tensor.Dense
	fuseViews     []*tensor.Dense
	bucketPending []int
	// Top-k error-feedback state, allocated only when
	// Compression.TopK > 0: fuseResid[b] is the residual for bucket b
	// (what the selections have not shipped yet), and topk the selection
	// workspace.
	fuseResid []*tensor.Dense
	topk      collective.TopKScratch

	// pullReqs[m] is the batched pull request list issued to server m at
	// the top of a step, refilled from the step's feed (stepPullReqs);
	// pullDst[ri][pi] is a request's destination, a zero-copy view of
	// the replica's storage: partition pi's rows, or for a row-addressed
	// route its run of the step's packed rows. For such a route
	// pullIDs[ri] holds the step's sorted global ids, in scratch sized
	// for a whole feed — the replica's SetRows binding — and
	// pullRows[ri] is the scratch their partition-local rows, which the
	// requests' row lists alias, live in.
	pullReqs [][]psrt.PullReq
	pullDst  [][]*tensor.Dense
	pullIDs  [][]int
	pullRows [][]int
	// arSparse[ri] holds the AllGatherv-aggregated gradient for route ri
	// within a step (indexed, not keyed, to avoid per-step maps).
	arSparse []*tensor.Sparse
	// denseReqs and sparseReqs are the push batches' scratch, reused
	// across pushes.
	denseReqs  []psrt.DensePush
	sparseReqs []psrt.SparsePush

	tasks   chan workerFn // the fan-outs' work for the worker goroutine
	commQ   chan commTask // synchronization work for the comm goroutine
	commAck chan error    // the comm goroutine's answer to commFlush
	out     float64       // the last fan-out's value
	err     error         // and its error
	// lossGather is the scratch for the distributed loss exchange and
	// agreements (one slot per global worker, filled in rank order).
	lossGather []float64
	phase      phaseTimes // reset at the top of every step
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

// LastStep returns the most recent successful Step's loss, gradient
// bytes pushed, wire bytes (zero on the in-process fabric) and slowest
// local worker per phase; Step, StepTime, Epoch and RecoveryCount are
// the caller's to stamp.
func (t *Trainer) LastStep() metrics.StepStats { return t.last }

// workerLoop is one persistent worker: it runs the fan-outs' tasks until
// Close, converting a fabric death mid-collective (ClosedPanic) into the
// task's error instead of crashing the process — the survivors' path to
// a typed ErrPeerFailed.
func (t *Trainer) workerLoop(w *worker) {
	defer t.bg.Done()
	run := func(fn workerFn) (v float64, err error) {
		defer t.recoverClosed(&err)
		return fn(w)
	}
	for fn := range w.tasks {
		w.out, w.err = run(fn)
		t.done <- struct{}{}
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
func (t *Trainer) commLoop(w *worker) {
	defer t.bg.Done()
	var firstErr error
	for task := range w.commQ {
		if task.kind == commFlush {
			w.commAck <- firstErr
			firstErr = nil
			continue
		}
		start := now()
		if err := t.commTask(w, task); err != nil && firstErr == nil {
			firstErr = err
		}
		w.phase.comm += now().Sub(start)
	}
}

// commTask executes one synchronization task; a fabric death inside a
// collective surfaces as an error (recovered ClosedPanic), not a crash.
func (t *Trainer) commTask(w *worker, task commTask) (err error) {
	defer t.recoverClosed(&err)
	switch task.kind {
	case commBucket:
		// One collective per fusion bucket: sum across all workers (the
		// ring under the policy's codec, or top-k sparsified with error
		// feedback), then the mean — every worker ends up holding the
		// identical aggregated gradient, the AR-architecture invariant.
		tags, buf := t.buckets[task.idx].tags, w.fuseBufs[task.idx]
		if policy := t.opt.Compression; policy.TopK > 0 {
			collective.AllReduceTopKTagged(w.comm, tags, buf, policy.TopK, policy.Codec,
				w.fuseResid[task.idx].Data(), &w.topk)
		} else {
			collective.AllReduceCodecTagged(w.comm, tags, buf, policy.Codec)
		}
		optim.FinalizeDense(buf, t.workers)
	case commSparse:
		out := collective.AllGathervTagged(w.comm, t.routes[task.idx].agvTag, task.sparse)
		optim.FinalizeSparse(out, t.workers)
		w.arSparse[task.idx] = out
	case commPS:
		return t.pushPS(w, task.idx, task.dense, task.sparse)
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
// itself or after Close. LastStep then holds the step's record.
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
	for _, w := range t.local {
		if err := t.checkFeed(w.rank, feeds[w.rank]); err != nil {
			return 0, t.failStep(err)
		}
	}
	step := t.step
	t.step++
	t.resetSlots()
	t.bytesPushed.Store(0)
	base := t.fab.Stats()

	err := t.onWorkers("step", func(w *worker) (float64, error) {
		return t.workerStep(w, step, feeds[w.rank])
	})
	if err != nil {
		return 0, err
	}
	wire := t.fab.Stats()
	st := metrics.StepStats{
		BytesPushed:         t.bytesPushed.Load(),
		WireSentBytes:       wire.SentBytes - base.SentBytes,
		WireRecvBytes:       wire.RecvBytes - base.RecvBytes,
		WireSentBytesRaw:    wire.SentBytesRaw - base.SentBytesRaw,
		WireCompressedBytes: wire.SentBytesCompressed - base.SentBytesCompressed,
	}
	// Aggregate the per-worker phase breakdown: the slowest local worker
	// per phase is the step's critical path. The fan-out's done handshake
	// orders every worker's (and comm goroutine's) writes before these
	// reads.
	for _, w := range t.local {
		// The pull is synchronization nothing hides: it counts as
		// communication and as exposed wait alike.
		st.ComputeTime = max(st.ComputeTime, w.phase.compute)
		st.CommTime = max(st.CommTime, w.phase.pull+w.phase.comm)
		st.SyncWait = max(st.SyncWait, w.phase.pull+w.phase.wait)
	}
	if t.dist {
		// Each worker already folded the rank-ordered global mean during
		// its in-step loss exchange; all local results are identical.
		st.Loss = t.local[0].out
	} else {
		// Summed in worker order, not arrival order: the reported mean
		// must not wobble in the last ulp between otherwise identical runs.
		for _, w := range t.local {
			st.Loss += w.out
		}
		st.Loss /= float64(t.workers)
	}
	t.last = st
	return st.Loss, nil
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

// workerStep is one worker's side of an iteration.
func (t *Trainer) workerStep(w *worker, step int, feed graph.Feed) (float64, error) {
	exec := w.exec
	ph := &w.phase
	*ph = phaseTimes{}

	// Pull phase: fetch fresh PS values for this iteration (Fig 2(a)(b)'s
	// pull arrows) — the rows this worker's feed gathers where the graph
	// only gathers, whole partitions otherwise — one batched request per
	// server, the remote ones in flight together, copying straight into
	// the replica's variable storage through the precomputed views.
	// Version step means "after step updates have applied".
	pullStart := now()
	if w.ps != nil {
		if err := t.stepPullReqs(w, feed); err != nil {
			return 0, err
		}
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
	pending := w.bucketPending
	for b := range pending {
		pending[b] = len(t.buckets[b].routes)
	}
	computeStart := now()
	loss, _, err := exec.StepStream(feed, func(name string, d *tensor.Dense, sp *tensor.Sparse) {
		ri := t.routeIdx[name]
		switch t.routes[ri].assign.Method {
		case core.MethodAllReduce:
			view := w.fuseViews[ri]
			copy(view.Data(), d.Data())
			t.bytesPushed.Add(view.Bytes())
			b := t.routes[ri].bucket
			if pending[b]--; pending[b] == 0 {
				w.commQ <- commTask{kind: commBucket, idx: b}
			}
		case core.MethodAllGatherv:
			t.bytesPushed.Add(sp.Bytes())
			w.commQ <- commTask{kind: commSparse, idx: ri, sparse: sp}
		case core.MethodPS:
			w.commQ <- commTask{kind: commPS, idx: ri, dense: d, sparse: sp}
		}
	})
	computeEnd := now()
	ph.compute = computeEnd.Sub(computeStart)

	// Drain: wait for this worker's synchronization to finish. Whatever
	// comm time is left here was not hidden under compute.
	w.commQ <- commTask{kind: commFlush}
	commErr := <-w.commAck
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
				norm2 += w.fuseViews[ri].L2NormSquared()
			case core.MethodAllGatherv:
				// Coalesce once and keep the result: the norm needs the
				// deduplicated tensor, and the apply below would otherwise
				// re-coalesce the concatenated gradient.
				g := w.arSparse[ri].Coalesce()
				w.arSparse[ri] = g
				norm2 += g.Values.L2NormSquared()
			case core.MethodPS:
				for pi := range r.ranges {
					n2, err := w.ps[r.assign.Servers[pi]].WaitAggregatedNormSquared(r.v.Name, pi, int64(step+1))
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
		if w.rank == 0 { // the global chief worker triggers the deferred PS updates
			for _, r := range t.routes {
				if r.assign.Method != core.MethodPS {
					continue
				}
				for pi := range r.ranges {
					if err := w.ps[r.assign.Servers[pi]].ApplyUpdate(r.v.Name, pi, scale); err != nil {
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
			g := w.fuseViews[ri]
			if scale != 1 {
				g.Scale(scale)
			}
			w.opt.ApplyDense(r.v.Name, exec.VarValue(r.v.Name), g)
		case core.MethodAllGatherv:
			g := w.arSparse[ri]
			if scale != 1 {
				g.Scale(scale)
			}
			w.opt.ApplySparse(r.v.Name, exec.VarValue(r.v.Name), g)
			w.arSparse[ri] = nil
		}
	}

	// Distributed loss exchange: gather every worker's loss in rank
	// order and fold the global mean with the same summation order the
	// single-process driver uses, so the reported trajectory is bitwise
	// identical across deployment modes.
	if t.dist {
		gathered := w.lossGather
		collective.AllGatherScalarsInto(w.comm, "loss", loss, gathered)
		var sum float64
		for _, l := range gathered {
			sum += l
		}
		loss = sum / float64(t.workers)
	}
	return loss, nil
}
