package transform

import (
	"fmt"
	"slices"
	"sync"

	"parallax/internal/core"
	"parallax/internal/graph"
	"parallax/internal/psrt"
	"parallax/internal/tensor"
)

// partition sets a PS route's assignment and derives from it the row
// range of every partition and the partitions every machine's server
// owns, so the push path issues one batched call per server and
// registration and resharding hand each server its own share.
func (r *varRoute) partition(a core.Assignment, machines int) {
	r.assign = a
	r.ranges = tensor.PartitionRows(r.v.Shape[0], a.Partitions)
	r.parts = make([][]int, machines)
	for pi, m := range a.Servers {
		r.parts[m] = append(r.parts[m], pi)
	}
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
	views     []*tensor.Dense  // [pi] zero-copy partition views into dense
}

// buildSlots preallocates the per-(route, machine) local-aggregation slots
// and, for dense variables, their merge buffers and partition views.
// Merge buffers exist only for machines whose workers run here.
func (t *Trainer) buildSlots() {
	for ri := range t.routes {
		r := &t.routes[ri]
		if !t.opt.LocalAggregation || r.assign.Method != core.MethodPS {
			continue
		}
		r.slots = make([]aggSlot, t.machines)
		for _, m := range t.localMachines {
			slot := &r.slots[m]
			if r.assign.Sparse {
				slot.sparse = make([]*tensor.Sparse, t.opt.Resource.GPUsPerMachine(m))
				continue
			}
			slot.denseSrcs = make([]*tensor.Dense, t.opt.Resource.GPUsPerMachine(m))
			slot.dense = tensor.NewDense(r.v.Shape...)
			slot.views = make([]*tensor.Dense, len(r.ranges))
			for pi, rr := range r.ranges {
				slot.views[pi] = slot.dense.SliceRows(rr.Start, rr.End)
			}
		}
	}
}

// resetSlots rewinds the local-aggregation slots for the next step. It
// runs between steps, when every worker is parked on its task channel, so
// the channel handshake orders these writes against the workers' accesses.
func (t *Trainer) resetSlots() {
	for ri := range t.routes {
		for m := range t.routes[ri].slots {
			s := &t.routes[ri].slots[m]
			s.got = 0
			clear(s.sparse)
			clear(s.denseSrcs)
		}
	}
}

// buildPullReqs precomputes, per local worker, what the per-step request
// lists are filled from: each PS partition's destination view into the
// worker's replica storage — fixed for a whole-partition route, a
// header stepPullReqs re-points into the packed storage for a
// row-addressed one — and, for a row-addressed route, id scratch sized
// for a whole feed, so stepPullReqs allocates nothing.
func (t *Trainer) buildPullReqs() {
	for _, w := range t.local {
		w.pullReqs = make([][]psrt.PullReq, t.machines)
		w.pullDst = make([][]*tensor.Dense, len(t.routes))
		w.pullIDs = make([][]int, len(t.routes))
		w.pullRows = make([][]int, len(t.routes))
		perServer := make([]int, t.machines) // most requests a step can address to each
		for ri, r := range t.routes {
			if r.assign.Method != core.MethodPS {
				continue
			}
			val := w.exec.VarValue(r.v.Name)
			w.pullDst[ri] = make([]*tensor.Dense, len(r.ranges))
			for pi, rr := range r.ranges {
				if r.rowInputs != nil {
					w.pullDst[ri][pi] = val.SliceRows(0, 0)
				} else {
					w.pullDst[ri][pi] = val.SliceRows(rr.Start, rr.End)
				}
				perServer[r.assign.Servers[pi]]++
			}
			if r.rowInputs != nil {
				w.pullIDs[ri] = make([]int, 0, val.Dim(0))
				w.pullRows[ri] = make([]int, val.Dim(0))
			}
		}
		for m, n := range perServer {
			w.pullReqs[m] = make([]psrt.PullReq, 0, n)
		}
	}
}

// stepPullReqs refills worker w's per-server pull lists for one step.
// Requests for one variable stay adjacent so the server amortizes its
// lookup. A row-addressed route binds the rows the feed gathers — the
// union over the route's index inputs, sorted and deduplicated — to
// its packed replica storage (graph.Exec.SetRows), then asks each
// partition for its run of them, made partition-local, into that run of
// the storage, and leaves a partition the batch does not touch out
// altogether; checkFeed has already held every id inside the table.
func (t *Trainer) stepPullReqs(w *worker, feed graph.Feed) error {
	reqs := w.pullReqs
	for m := range reqs {
		reqs[m] = reqs[m][:0]
	}
	for ri := range t.routes {
		r := &t.routes[ri]
		if r.assign.Method != core.MethodPS {
			continue
		}
		var ids, rows []int
		var store *tensor.Dense
		if r.rowInputs != nil {
			ids = w.pullIDs[ri][:0]
			for _, in := range r.rowInputs {
				ids = append(ids, feed.Ints[in.Name]...)
			}
			slices.Sort(ids)
			ids = slices.Compact(ids)
			w.pullIDs[ri] = ids
			if err := w.exec.SetRows(r.v.Name, ids); err != nil {
				return err
			}
			rows, store = w.pullRows[ri], w.exec.VarValue(r.v.Name)
		}
		k := 0 // the packed slot of the partition's first row
		for pi, rr := range r.ranges {
			if rr.Len() == 0 {
				continue
			}
			req := psrt.PullReq{Name: r.v.Name, Part: pi, Dst: w.pullDst[ri][pi]}
			if r.rowInputs != nil {
				n := k
				for n < len(ids) && ids[n] < rr.End {
					rows[n] = ids[n] - rr.Start
					n++
				}
				if n == k {
					continue
				}
				req.Dst.ResliceRows(store, k, n)
				req.Rows, k = rows[k:n:n], n
			}
			m := r.assign.Servers[pi]
			reqs[m] = append(reqs[m], req)
		}
	}
	return nil
}

// pull is worker w's pull phase, one batched request per server its
// step's lists address, in three passes over the servers: send every
// remote one its request, read the colocated ones directly while those
// are in flight, collect the replies. An error returns at once, replies
// still owed: where there are remote servers a step error is fail-stop.
func (t *Trainer) pull(w *worker, minVersion int64) error {
	const send, local, recv = 0, 1, 2
	for pass := send; pass <= recv; pass++ {
		for m, reqs := range w.pullReqs {
			if len(reqs) == 0 {
				continue
			}
			var err error
			switch cl, remote := w.ps[m].(*psrt.Client); {
			case pass == send && remote:
				err = cl.SendPull(minVersion, reqs)
			case pass == local && !remote:
				err = w.ps[m].PullManyInto(minVersion, reqs)
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

// pushPS routes worker w's gradient for PS route ri: split by partition,
// optionally merge within the machine, push to the owning servers with
// one batched call per server. Dense partitions travel as zero-copy views
// (psrt borrows them only for the call — a wire push serializes them
// before its reply unblocks us); sparse partitions are freshly split and
// ownership transfers to the server. Runs on the worker's comm goroutine.
func (t *Trainer) pushPS(w *worker, ri int, dense *tensor.Dense, sp *tensor.Sparse) error {
	r := &t.routes[ri]

	pushSparseParts := func(parts []*tensor.Sparse) error {
		// Data-plane quantization: the split copies are rounded onto the
		// codec grid before any push, colocated or remote, so the servers
		// aggregate identical bits on every fabric. (SplitSparse allocates
		// fresh value storage, so this never touches the exec's gradient.)
		for _, p := range parts {
			t.opt.Compression.Codec.Quantize(p.Values.Data())
		}
		for m, owned := range r.parts {
			if len(owned) == 0 {
				continue
			}
			reqs := w.sparseReqs[:0]
			for _, pi := range owned {
				t.bytesPushed.Add(parts[pi].Bytes())
				reqs = append(reqs, psrt.SparsePush{Name: r.v.Name, Part: pi, Grad: parts[pi]})
			}
			w.sparseReqs = reqs[:0]
			if err := w.ps[m].PushSparseMany(reqs); err != nil {
				return err
			}
		}
		return nil
	}
	pushDenseParts := func(dense *tensor.Dense, views []*tensor.Dense) error {
		for m, owned := range r.parts {
			if len(owned) == 0 {
				continue
			}
			reqs := w.denseReqs[:0]
			for _, pi := range owned {
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
				reqs = append(reqs, psrt.DensePush{Name: r.v.Name, Part: pi, Grad: part})
			}
			w.denseReqs = reqs[:0]
			if err := w.ps[m].PushDenseMany(reqs); err != nil {
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
	gpus := t.opt.Resource.GPUsPerMachine(w.machine)
	slot := &r.slots[w.machine]
	slot.mu.Lock()
	if r.assign.Sparse {
		slot.sparse[w.gpu] = sp
	} else {
		slot.denseSrcs[w.gpu] = dense
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
	return pushDenseParts(slot.dense, slot.views)
}

// VarValue reconstructs the current full value of a variable: from the
// servers for PS variables (local or over the wire), from the first
// local replica for AR variables. In distributed mode a PS variable's
// read is an agreed boundary — every agent calls VarValue for it between
// the same steps — because peers serve the read and Close keeps no
// server up for a late reader: nobody leaves before everybody has read.
func (t *Trainer) VarValue(name string) (_ *tensor.Dense, err error) {
	if err := t.live("variable read"); err != nil {
		return nil, err
	}
	defer t.recoverClosed(&err) // a remote partition is read on this goroutine
	ri, ok := t.routeIdx[name]
	if !ok {
		return nil, fmt.Errorf("transform: unknown variable %q", name)
	}
	r := &t.routes[ri]
	w0 := t.local[0]
	if r.assign.Method != core.MethodPS {
		return w0.exec.VarValue(name).Clone(), nil
	}
	out := tensor.NewDense(r.v.Shape...)
	for m, owned := range r.parts {
		var reqs []psrt.PullReq
		for _, pi := range owned {
			if rr := r.ranges[pi]; rr.Len() > 0 {
				reqs = append(reqs, psrt.PullReq{Name: r.v.Name, Part: pi, Dst: out.SliceRows(rr.Start, rr.End)})
			}
		}
		if len(reqs) == 0 {
			continue
		}
		if err := w0.ps[m].PullManyInto(int64(t.step), reqs); err != nil {
			return nil, err
		}
	}
	_, err = t.AgreeMax("read/"+name, 0)
	return out, err
}
