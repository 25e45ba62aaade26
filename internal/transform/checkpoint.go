package transform

// Checkpoint support: the trainer-side state capture and install that
// the public Session.Save / OpenFromCheckpoint API is built on, spoken
// in the checkpoint package's own records so the session layer moves
// them between the trainer and the shard files untranslated. Both
// directions reuse the live-resharding machinery (DESIGN.md §9 → §10):
// server partitions are read through SnapshotPart — whose version wait
// doubles as the between-steps drain barrier — and restored through the
// same place/installPS pair Repartition migrates state with, which seeds
// partition versions and aggregation sequences to the restored step
// counter so the synchronous pull/clip protocol continues counting
// without a discontinuity. Replica-managed (AllReduce / AllGatherv)
// variables are bit-identical on every replica, so one copy per variable
// suffices; restore installs it into every local replica and clones the
// optimizer slot state per replica so instances never share tensors.
//
// Both methods must run between steps (never concurrently with Step),
// the same quiescence Repartition requires.

import (
	"fmt"
	"slices"
	"strconv"

	"parallax/internal/checkpoint"
	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/optim"
	"parallax/internal/tensor"
)

// StepCount returns the number of completed training steps.
func (t *Trainer) StepCount() int { return t.step }

// LocalMachines returns the machine indices whose parameter servers
// this process hosts — every machine in single-process mode, exactly
// one under a distributed fabric. The returned slice must not be
// mutated.
func (t *Trainer) LocalMachines() []int { return t.localMachines }

// slotNamesOf returns an optimizer's slot names and its slot-state view
// (nil, nil for stateless ones).
func slotNamesOf(o optim.Optimizer) ([]string, optim.SlotState) {
	if ss, ok := o.(optim.SlotState); ok {
		return ss.Slots(), ss
	}
	return nil, nil
}

// Snapshot captures local machine m's checkpoint shard, drained to the
// current step, in the shard's record order: for machine 0 every
// replica-managed variable from the first local replica (replicas
// perform identical updates, so its bits are the job's bits), then
// every parameter-server partition m's server hosts — values and
// optimizer slots in partition-local row coordinates, under the
// variable's name — then the top-k
// error-feedback residuals of m's workers (Name is the worker's global
// rank in decimal, Part the fusion bucket; none unless the compression
// policy keeps residuals).
func (t *Trainer) Snapshot(m int) ([]checkpoint.Record, error) {
	if err := t.live("snapshot"); err != nil {
		return nil, err
	}
	if !slices.Contains(t.localMachines, m) {
		return nil, fmt.Errorf("transform: machine %d is not hosted here", m)
	}
	w0 := t.local[0]
	var out []checkpoint.Record
	slotNames, ss := slotNamesOf(w0.opt)
	for _, r := range t.routes {
		if m != 0 || r.assign.Method == core.MethodPS {
			continue
		}
		rec := checkpoint.Record{
			Kind: checkpoint.KindReplica, Name: r.v.Name,
			Value: w0.exec.VarValue(r.v.Name).Clone(), SlotNames: slices.Clone(slotNames),
		}
		for _, slot := range slotNames {
			if sv := ss.SlotValue(slot, r.v.Name); sv != nil {
				rec.Slots = append(rec.Slots, sv.Clone())
			} else {
				// Never updated: a lazily created slot would be zeros.
				rec.Slots = append(rec.Slots, tensor.NewDense(r.v.Shape...))
			}
		}
		out = append(out, rec)
	}
	for _, r := range t.routes {
		if r.assign.Method != core.MethodPS {
			continue
		}
		for pi, rr := range r.ranges {
			if r.assign.Servers[pi] != m || rr.Len() == 0 {
				continue
			}
			val, slots, err := w0.ps[m].SnapshotPart(r.v.Name, pi, int64(t.step))
			if err != nil {
				return nil, err
			}
			out = append(out, checkpoint.Record{
				Kind: checkpoint.KindServerPart, Name: r.v.Name, Part: pi, Value: val,
				SlotNames: slices.Clone(t.servers[m].SlotNames()), Slots: slots,
			})
		}
	}
	for _, w := range t.local {
		if w.machine != m {
			continue
		}
		for b, res := range w.fuseResid {
			out = append(out, checkpoint.Record{
				Kind: checkpoint.KindResidual, Name: strconv.Itoa(w.rank), Part: b, Value: res.Clone(),
			})
		}
	}
	return out, nil
}

// Restore installs checkpointed state — the records of every shard this
// process needs, in any order — and sets the step counter; it must run
// before the first Step. Replica records go into every local replica;
// server-partition records (which cover at least every partition a
// local server owns) are assembled into full variables and installed
// with versions seeded to step. Residual records of workers hosted
// elsewhere are a peer's to restore; with reshard set — a checkpoint
// written at another topology, whose worker numbering has no mapping
// onto this one — all of them are dropped and error feedback restarts
// from zero. A record the plan, optimizer or policy has no place for is
// a configuration mismatch (errs.ErrTopologyMismatch), never a silent
// drop.
func (t *Trainer) Restore(recs []checkpoint.Record, step int64, reshard bool) error {
	if err := t.live("restore"); err != nil {
		return err
	}
	full := make([]psState, len(t.routes))
	var psSlots []string // every local server was built by the same NewOptimizer
	for _, srv := range t.servers {
		if srv != nil {
			psSlots = srv.SlotNames()
		}
	}
	for _, rec := range recs {
		var err error
		if rec.Kind == checkpoint.KindResidual {
			if !reshard {
				err = t.restoreResidual(rec)
			}
		} else if ri, ok := t.routeIdx[rec.Name]; !ok {
			err = mismatchf("variable %q not in graph", rec.Name)
		} else if r := &t.routes[ri]; (r.assign.Method == core.MethodPS) != (rec.Kind == checkpoint.KindServerPart) {
			err = mismatchf("stores %q as record kind %d, plan assigns it method %v", rec.Name, rec.Kind, r.assign.Method)
		} else if rec.Kind == checkpoint.KindReplica {
			err = t.restoreReplica(r, rec)
		} else if !slices.Equal(rec.SlotNames, psSlots) {
			err = mismatchf("slots %v for %s/%d, server optimizer keeps %v", rec.SlotNames, rec.Name, rec.Part, psSlots)
		} else {
			err = full[ri].place(r, rec.Part, rec.Value, rec.Slots)
		}
		if err != nil {
			return err
		}
	}
	// Route order, not record order: nothing on the restore path depends
	// on how the shards were read.
	for ri := range full {
		if full[ri].value != nil {
			if err := t.installPS(&t.routes[ri], full[ri], step); err != nil {
				return err
			}
		}
	}
	t.step = int(step)
	return nil
}

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("transform: %w: checkpoint "+format, append([]any{errs.ErrTopologyMismatch}, args...)...)
}

// restoreReplica installs a replica-managed variable's record into every
// local replica: the value is copied into each executor's variable
// storage and the slot tensors are copied per replica into its
// optimizer, so replicas never share state tensors. The record's slot
// names must match the configured optimizer's — restoring momentum
// state into an SGD session (or vice versa) is refused.
func (t *Trainer) restoreReplica(r *varRoute, rec checkpoint.Record) error {
	if int64(rec.Value.NumElements()) != r.v.Elements() {
		return mismatchf("value for %q has %d elements, variable has %d", rec.Name, rec.Value.NumElements(), r.v.Elements())
	}
	for _, w := range t.local {
		want, ss := slotNamesOf(w.opt)
		if !slices.Equal(rec.SlotNames, want) {
			return mismatchf("slots %v for %q, optimizer keeps %v", rec.SlotNames, rec.Name, want)
		}
		copy(w.exec.VarValue(rec.Name).Data(), rec.Value.Data())
		for k, slot := range rec.SlotNames {
			sv := tensor.NewDense(r.v.Shape...)
			copy(sv.Data(), rec.Slots[k].Data())
			ss.SetSlot(slot, rec.Name, sv)
		}
	}
	return nil
}

// restoreResidual installs one worker's error-feedback residual for one
// fusion bucket, if this process hosts the worker. The session layer has
// already verified the checkpoint's compression fingerprint matches the
// configured policy, so a record that addresses no residual buffer is a
// topology error.
func (t *Trainer) restoreResidual(rec checkpoint.Record) error {
	rank, err := strconv.Atoi(rec.Name)
	if err != nil || rank < 0 || rank >= t.workers {
		return mismatchf("residual names worker %q", rec.Name)
	}
	i := slices.IndexFunc(t.local, func(w *worker) bool { return w.rank == rank })
	if i < 0 {
		return nil
	}
	w := t.local[i]
	if w.fuseResid == nil {
		return mismatchf("carries top-k residuals, policy keeps none")
	}
	if rec.Part < 0 || rec.Part >= len(w.fuseResid) {
		return mismatchf("residual bucket %d outside the %d-bucket fusion schedule", rec.Part, len(w.fuseResid))
	}
	dst := w.fuseResid[rec.Part]
	if rec.Value.NumElements() != dst.NumElements() {
		return mismatchf("residual %d/%d has %d elements, bucket has %d", rank, rec.Part, rec.Value.NumElements(), dst.NumElements())
	}
	copy(dst.Data(), rec.Value.Data())
	return nil
}
