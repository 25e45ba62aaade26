package transform

import (
	"fmt"
	"slices"

	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/tensor"
)

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
//     (psrt.Server.ReshardVar) — values and slot rows re-sliced to the
//     new ranges, versions seeded to the step counter — and rebuilds its
//     routing (each route's partition ranges and per-server partition
//     lists, aggregation slots and views, batched pull requests).
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
	w0 := t.local[0]
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
			val, slots, err := w0.ps[r.assign.Servers[pi]].SnapshotPart(r.v.Name, pi, minV)
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
		r.partition(newPlan.Assignments[ri], t.machines)
		if err := t.installPS(r, full[ri], minV); err != nil {
			return t.failStep(err)
		}
		full[ri] = psState{}
	}
	t.opt.Plan = newPlan
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
// aggregation sequences seeded to version (psrt.Server.ReshardVar).
// A server that owns nothing of r afterwards just drops what it had.
func (t *Trainer) installPS(r *varRoute, st psState, version int64) error {
	for m, srv := range t.servers {
		if srv == nil {
			continue
		}
		if err := srv.ReshardVar(r.v.Name, st.value, r.ranges, r.parts[m],
			r.assign.Sparse, st.slots, version); err != nil {
			return err
		}
	}
	return nil
}
