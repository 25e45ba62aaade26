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

// aggSlot collects one step's gradients for one PS route from the
// workers that push as one source: a machine's workers under local
// aggregation, where the last worker to arrive acts as the machine's
// local chief and pushes the merged gradient (§5: "a worker in the
// machine becomes a local chief worker to collect gradients within a
// machine and send them to servers"), and a lone worker without it.
// Slots are resolved to integer indices at build time and reset in place
// between steps, so the hot loop never touches a map or formats a key.
//
// Gradients park in per-member entries and the chief merges them in
// member (GPU-rank) order, NOT arrival order: float32 addition is
// commutative but not associative, so an arrival-order fold would make
// the merged gradient depend on goroutine scheduling — and wire jitter
// would make a TCP run drift from the in-process run in the last ulp.
// The servers fold the chiefs' pushes by rank for the same reason
// (psrt), so the loss trajectory is bitwise identical across runs and
// deployment modes. Parking the pointers is safe: they stay valid until
// the owning worker's next backward pass, which cannot start before the
// current synchronous step completes; the merge buffer, which the
// servers borrow until they fold, lives as long.
type aggSlot struct {
	mu     sync.Mutex
	got    int
	sparse []*tensor.Sparse // [member] this step's sparse gradients
	dense  []*tensor.Dense  // [member] this step's dense gradients
	merged *tensor.Dense    // preallocated merge buffer (dense variables)
	views  []*tensor.Dense  // [pi] zero-copy partition views into merged
}

// slotOf returns worker w's aggregation slot on every PS route, its
// member index there, and the slot's member count.
func (t *Trainer) slotOf(w *worker) (slot, member, members int) {
	if t.opt.LocalAggregation {
		return w.machine, w.gpu, t.opt.Resource.GPUsPerMachine(w.machine)
	}
	return w.rank, 0, 1
}

// buildSlots preallocates every PS route's aggregation slots — one per
// machine under local aggregation, one per worker without — and, for
// dense variables, their merge buffers and partition views. Buffers
// exist only for the slots of workers hosted here.
func (t *Trainer) buildSlots() {
	for ri := range t.routes {
		r := &t.routes[ri]
		if r.assign.Method != core.MethodPS {
			continue
		}
		r.slots = make([]aggSlot, t.workers) // bounds a slot index either way
		for _, w := range t.local {
			si, _, members := t.slotOf(w)
			slot := &r.slots[si]
			switch {
			case slot.sparse != nil || slot.dense != nil:
				// built for another member
			case r.assign.Sparse:
				slot.sparse = make([]*tensor.Sparse, members)
			default:
				slot.dense = make([]*tensor.Dense, members)
				slot.merged = tensor.NewDense(r.v.Shape...)
				slot.views = make([]*tensor.Dense, len(r.ranges))
				for pi, rr := range r.ranges {
					slot.views[pi] = slot.merged.SliceRows(rr.Start, rr.End)
				}
			}
		}
	}
}

// resetSlots rewinds the aggregation slots for the next step. It runs
// between steps, when every worker is parked on its task channel, so the
// channel handshake orders these writes against the workers' accesses.
func (t *Trainer) resetSlots() {
	for ri := range t.routes {
		for m := range t.routes[ri].slots {
			s := &t.routes[ri].slots[m]
			s.got = 0
			clear(s.sparse)
			clear(s.dense)
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

// pushPS routes worker w's gradient for PS route ri: park it in its
// aggregation slot, and if it is the slot's last, merge the slot in
// member order, quantize, split by partition and push to the owning
// servers under w's rank, one batched call per server. Dense partitions
// travel as zero-copy views of the slot's merge buffer (psrt borrows
// them until it folds; a wire push serializes them before its reply
// unblocks us); sparse partitions are freshly split and ownership
// transfers to the server. Runs on the worker's comm goroutine.
func (t *Trainer) pushPS(w *worker, ri int, dense *tensor.Dense, sp *tensor.Sparse) error {
	r := &t.routes[ri]
	si, member, members := t.slotOf(w)
	slot := &r.slots[si]
	slot.mu.Lock()
	if r.assign.Sparse {
		slot.sparse[member] = sp
	} else {
		slot.dense[member] = dense
	}
	slot.got++
	last := slot.got == members
	if last && r.assign.Sparse {
		sp = tensor.SumSparse(slot.sparse)
	} else if last {
		tensor.SumDenseInto(slot.merged, slot.dense)
	}
	slot.mu.Unlock()
	if !last {
		return nil
	}

	// Data-plane quantization: the merged gradient is rounded onto the
	// codec grid before any push, colocated or remote, so the servers
	// aggregate identical bits on every fabric. (SplitSparse allocates
	// fresh value storage, and the dense merge buffer is the slot's own,
	// so this never touches an exec's gradient.)
	codec := t.opt.Compression.Codec
	var parts []*tensor.Sparse
	if r.assign.Sparse {
		parts = tensor.SplitSparse(sp, r.ranges)
		for _, p := range parts {
			codec.Quantize(p.Values.Data())
		}
	} else {
		codec.Quantize(slot.merged.Data())
	}
	for m, owned := range r.parts {
		if len(owned) == 0 {
			continue
		}
		var err error
		if r.assign.Sparse {
			reqs := w.sparseReqs[:0]
			for _, pi := range owned {
				t.bytesPushed.Add(parts[pi].Bytes())
				reqs = append(reqs, psrt.SparsePush{Name: r.v.Name, Part: pi, Rank: w.rank, Grad: parts[pi]})
			}
			w.sparseReqs = reqs[:0]
			err = w.ps[m].PushSparseMany(reqs)
		} else {
			reqs := w.denseReqs[:0]
			for _, pi := range owned {
				t.bytesPushed.Add(slot.views[pi].Bytes())
				reqs = append(reqs, psrt.DensePush{Name: r.v.Name, Part: pi, Rank: w.rank, Grad: slot.views[pi]})
			}
			w.denseReqs = reqs[:0]
			err = w.ps[m].PushDenseMany(reqs)
		}
		if err != nil {
			return err
		}
	}
	return nil
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
