package transform

// Checkpoint support: the trainer-side state capture and install that
// the public Session.Save / OpenFromCheckpoint API is built on. Save
// reuses the live-resharding machinery (DESIGN.md §9 → §10): server
// partitions are read through psrt.Server.SnapshotPart — whose version
// wait doubles as the between-steps drain barrier — and restore installs
// state through psrt.Server.ReshardVar, which seeds partition versions
// and aggregation sequences to the restored step counter so the
// synchronous pull/clip protocol continues counting without a
// discontinuity. Replica-managed (AllReduce / AllGatherv) variables are
// bit-identical on every replica, so one copy per variable suffices;
// restore installs it into every local replica and clones the optimizer
// slot state per replica so instances never share tensors.
//
// All methods must run between steps (never concurrently with Step),
// the same quiescence Repartition requires.

import (
	"fmt"
	"slices"
	"strconv"

	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/optim"
	"parallax/internal/tensor"
)

// VarState is one variable's (for replica-managed variables) or one
// partition's (for server-managed ones) captured training state: the
// value plus the optimizer slot tensors in SlotState.Slots order.
type VarState struct {
	Name string
	// Part is the partition index; -1 for replica-managed variables.
	Part      int
	Value     *tensor.Dense
	SlotNames []string
	Slots     []*tensor.Dense
}

// StepCount returns the number of completed training steps.
func (t *Trainer) StepCount() int { return t.step }

// SetStepCount installs a restored step counter. It must be called
// before the first Step and must match the version the server state was
// restored with (RestoreServerVars seeds partition versions from it).
func (t *Trainer) SetStepCount(n int) { t.step = n }

// LocalMachines returns the machine indices whose parameter servers
// this process hosts — every machine in single-process mode, exactly
// one under a distributed fabric. The caller must not mutate the
// result.
func (t *Trainer) LocalMachines() []int {
	var ms []int
	for m := 0; m < t.machines; m++ {
		if t.localMachine[m] {
			ms = append(ms, m)
		}
	}
	return ms
}

// replicaSlotState returns the slot-state view of a replica optimizer,
// nil for stateless ones.
func replicaSlotState(o optim.Optimizer) optim.SlotState {
	if ss, ok := o.(optim.SlotState); ok {
		return ss
	}
	return nil
}

// SnapshotReplicaVars captures every replica-managed (AllReduce /
// AllGatherv) variable from the first local replica: its value and its
// replica-optimizer slot state. Replicas perform identical updates, so
// the first replica's bits are the job's bits.
func (t *Trainer) SnapshotReplicaVars() ([]VarState, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("transform: snapshot on %w trainer", errs.ErrClosed)
	}
	w0 := t.localWorkers[0]
	ss := replicaSlotState(t.arOpts[w0])
	var out []VarState
	for _, r := range t.routes {
		if r.assign.Method == core.MethodPS {
			continue
		}
		st := VarState{Name: r.v.Name, Part: -1, Value: t.execs[w0].VarValue(r.v.Name).Clone()}
		if ss != nil {
			for _, slot := range ss.Slots() {
				st.SlotNames = append(st.SlotNames, slot)
				if sv := ss.SlotValue(slot, r.v.Name); sv != nil {
					st.Slots = append(st.Slots, sv.Clone())
				} else {
					// Never updated: a lazily created slot would be zeros.
					st.Slots = append(st.Slots, tensor.NewDense(r.v.Shape...))
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// SnapshotServerParts captures every parameter-server partition hosted
// by local machine m's server, drained to the current step: values and
// optimizer slot state in partition-local row coordinates. The
// underlying SnapshotPart blocks until each partition's version reaches
// the step counter, so a between-steps save never reads a half-applied
// update.
func (t *Trainer) SnapshotServerParts(m int) ([]VarState, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("transform: snapshot on %w trainer", errs.ErrClosed)
	}
	if m < 0 || m >= t.machines {
		return nil, fmt.Errorf("transform: machine %d out of range", m)
	}
	if t.servers == nil || t.servers[m] == nil {
		return nil, nil // no PS routes, or machine hosted by another agent
	}
	minV := int64(t.step)
	slotNames := t.psAdmin(m).SlotNames()
	var out []VarState
	for _, r := range t.routes {
		if r.assign.Method != core.MethodPS {
			continue
		}
		for pi, rr := range r.ranges {
			if r.assign.Servers[pi] != m || rr.Len() == 0 {
				continue
			}
			// Snapshot under the served (namespace-qualified) name but
			// record the bare one: checkpoints stay job-portable between
			// resident and private deployments.
			val, slots, err := t.servers[m].SnapshotPart(r.psName, pi, minV)
			if err != nil {
				return nil, err
			}
			out = append(out, VarState{
				Name: r.v.Name, Part: pi, Value: val,
				SlotNames: slices.Clone(slotNames), Slots: slots,
			})
		}
	}
	return out, nil
}

// SnapshotResiduals captures the top-k error-feedback residuals of
// machine m's workers, one VarState per (worker, fusion bucket): Name
// is the worker's global rank in decimal, Part the bucket index. Nil
// when the compression policy keeps no residuals, so uncompressed jobs
// write checkpoints without residual records (and stay on the version-1
// format). Residuals live with the worker's machine, so each machine's
// checkpoint shard carries exactly its own workers' residuals.
func (t *Trainer) SnapshotResiduals(m int) ([]VarState, error) {
	if t.closed.Load() {
		return nil, fmt.Errorf("transform: snapshot on %w trainer", errs.ErrClosed)
	}
	if t.fuseResid == nil {
		return nil, nil
	}
	var out []VarState
	for _, w := range t.localWorkers {
		if t.workerMachine[w] != m {
			continue
		}
		for b, res := range t.fuseResid[w] {
			out = append(out, VarState{
				Name: strconv.Itoa(w), Part: b, Value: res.Clone(),
			})
		}
	}
	return out, nil
}

// RestoreResiduals installs checkpointed error-feedback residuals into
// this process's workers. Every record must address a local worker's
// existing residual buffer — the session layer has already verified the
// checkpoint's compression fingerprint matches the configured policy,
// so a mismatch here (residuals for a job without top-k, an unknown
// worker, a bucket outside the fusion schedule) is a topology error.
func (t *Trainer) RestoreResiduals(states []VarState) error {
	if t.closed.Load() {
		return fmt.Errorf("transform: restore on %w trainer", errs.ErrClosed)
	}
	if len(states) == 0 {
		return nil
	}
	if t.fuseResid == nil {
		return fmt.Errorf("transform: %w: checkpoint carries top-k residuals, policy keeps none",
			errs.ErrTopologyMismatch)
	}
	for _, st := range states {
		w, err := strconv.Atoi(st.Name)
		if err != nil || w < 0 || w >= t.workers {
			return fmt.Errorf("transform: %w: residual record names worker %q",
				errs.ErrTopologyMismatch, st.Name)
		}
		if !slices.Contains(t.localWorkers, w) {
			return fmt.Errorf("transform: %w: residual for worker %d, hosted by machine %d",
				errs.ErrTopologyMismatch, w, t.workerMachine[w])
		}
		if st.Part < 0 || st.Part >= len(t.fuseResid[w]) {
			return fmt.Errorf("transform: %w: residual bucket %d outside the %d-bucket fusion schedule",
				errs.ErrTopologyMismatch, st.Part, len(t.fuseResid[w]))
		}
		dst := t.fuseResid[w][st.Part]
		if st.Value.NumElements() != dst.NumElements() {
			return fmt.Errorf("transform: %w: residual %d/%d has %d elements, bucket has %d",
				errs.ErrTopologyMismatch, w, st.Part, st.Value.NumElements(), dst.NumElements())
		}
		copy(dst.Data(), st.Value.Data())
	}
	return nil
}

// RestoreReplicaVar installs a replica-managed variable's state into
// every local replica: the value is copied into each executor's
// variable storage and the slot tensors are cloned per replica into its
// optimizer, so replicas never share state tensors. The checkpoint's
// slot names must match the configured optimizer's — restoring momentum
// state into an SGD session (or vice versa) is a configuration
// mismatch, not a silent drop.
func (t *Trainer) RestoreReplicaVar(st VarState) error {
	if t.closed.Load() {
		return fmt.Errorf("transform: restore on %w trainer", errs.ErrClosed)
	}
	ri, ok := t.routeIdx[st.Name]
	if !ok {
		return fmt.Errorf("transform: %w: checkpoint variable %q not in graph", errs.ErrTopologyMismatch, st.Name)
	}
	r := &t.routes[ri]
	if r.assign.Method == core.MethodPS {
		return fmt.Errorf("transform: %w: checkpoint stores %q as a replica variable, plan serves it from parameter servers",
			errs.ErrTopologyMismatch, st.Name)
	}
	if int64(st.Value.NumElements()) != r.v.Elements() {
		return fmt.Errorf("transform: %w: checkpoint value for %q has %d elements, variable has %d",
			errs.ErrTopologyMismatch, st.Name, st.Value.NumElements(), r.v.Elements())
	}
	for _, w := range t.localWorkers {
		ss := replicaSlotState(t.arOpts[w])
		var want []string
		if ss != nil {
			want = ss.Slots()
		}
		if !slices.Equal(st.SlotNames, want) {
			return fmt.Errorf("transform: %w: checkpoint slots %v for %q, optimizer keeps %v",
				errs.ErrTopologyMismatch, st.SlotNames, st.Name, want)
		}
		copy(t.execs[w].VarValue(st.Name).Data(), st.Value.Data())
		for k, slot := range st.SlotNames {
			sv := tensor.NewDense(r.v.Shape...)
			copy(sv.Data(), st.Slots[k].Data())
			ss.SetSlot(slot, st.Name, sv)
		}
	}
	return nil
}

// RestoreServerVars installs parameter-server state from checkpoint
// partition records: the records (which cover at least every partition
// a local server owns) are assembled into full-variable tensors, and
// each local server re-installs its owned row ranges through
// psrt.Server.ReshardVar with versions seeded to version — exactly the
// install phase of a live reshard, minus the partitioning change.
func (t *Trainer) RestoreServerVars(states []VarState, version int64) error {
	if t.closed.Load() {
		return fmt.Errorf("transform: restore on %w trainer", errs.ErrClosed)
	}
	type assembled struct {
		value     *tensor.Dense
		slotNames []string
		slots     []*tensor.Dense
	}
	full := make(map[string]*assembled)
	for _, st := range states {
		ri, ok := t.routeIdx[st.Name]
		if !ok {
			return fmt.Errorf("transform: %w: checkpoint variable %q not in graph", errs.ErrTopologyMismatch, st.Name)
		}
		r := &t.routes[ri]
		if r.assign.Method != core.MethodPS {
			return fmt.Errorf("transform: %w: checkpoint stores %q as a server variable, plan replicates it",
				errs.ErrTopologyMismatch, st.Name)
		}
		if st.Part < 0 || st.Part >= len(r.ranges) {
			return fmt.Errorf("transform: %w: checkpoint partition %s/%d outside the plan's %d partitions",
				errs.ErrTopologyMismatch, st.Name, st.Part, len(r.ranges))
		}
		a := full[st.Name]
		if a == nil {
			a = &assembled{value: tensor.NewDense(r.v.Shape...), slotNames: st.SlotNames}
			for range st.SlotNames {
				a.slots = append(a.slots, tensor.NewDense(r.v.Shape...))
			}
			full[st.Name] = a
		}
		if !slices.Equal(st.SlotNames, a.slotNames) {
			return fmt.Errorf("transform: %w: checkpoint slots for %s/%d are %v, partition 0 had %v",
				errs.ErrTopologyMismatch, st.Name, st.Part, st.SlotNames, a.slotNames)
		}
		rr := r.ranges[st.Part]
		width := a.value.RowWidth()
		if st.Value.NumElements() != rr.Len()*width {
			return fmt.Errorf("transform: %w: checkpoint partition %s/%d has %d elements, plan's range has %d",
				errs.ErrTopologyMismatch, st.Name, st.Part, st.Value.NumElements(), rr.Len()*width)
		}
		copy(a.value.Data()[rr.Start*width:rr.End*width], st.Value.Data())
		for k := range st.Slots {
			copy(a.slots[k].Data()[rr.Start*width:rr.End*width], st.Slots[k].Data())
		}
	}
	// Install in sorted-name order: ReshardVar mutates server state, and
	// a map-ordered install would make the restore sequence differ run
	// to run (harmless today, but the §15 discipline is that nothing on
	// the restore path depends on map iteration order).
	names := make([]string, 0, len(full))
	for name := range full {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		a := full[name]
		r := &t.routes[t.routeIdx[name]]
		for _, m := range t.LocalMachines() {
			want := t.psAdmin(m).SlotNames()
			if !slices.Equal(a.slotNames, want) {
				return fmt.Errorf("transform: %w: checkpoint slots %v for %q, server optimizer keeps %v",
					errs.ErrTopologyMismatch, a.slotNames, name, want)
			}
			var owned []int
			for pi, srv := range r.assign.Servers {
				if srv == m {
					owned = append(owned, pi)
				}
			}
			if len(owned) == 0 {
				continue
			}
			if err := t.psAdmin(m).ReshardVar(name, a.value, r.ranges, owned,
				r.assign.Sparse, a.slots, version); err != nil {
				return err
			}
		}
	}
	return nil
}
