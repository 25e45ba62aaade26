package parallax

// Failure recovery (DESIGN.md §12). A distributed session configured
// with WithAutoCheckpoint + WithRecovery survives a peer agent's death:
//
//  1. Detection — the TCP fabric's heartbeats and read deadlines turn a
//     dead peer into a rank-attributed ErrPeerFailed on every survivor
//     within the heartbeat window; the trainer converts the torn fabric
//     into a step error carrying that attribution.
//  2. Recovery — each survivor bumps the fabric epoch by writing the
//     root's MEMBERS record and rebuilds (Session.rebuild) at the new
//     epoch from the latest complete auto-checkpoint: teardown of the
//     dead runtime, re-dial (waiting out the failed agent's restart),
//     restore, and a cluster-wide agreement on the restore step. The
//     Steps iterator then continues: steps between the restore point
//     and the failure replay from the feed log — the same record that
//     positions a restored session in its dataset — with their
//     emissions suppressed, so the caller sees every step exactly once
//     and the loss trajectory is bit-identical to an uninterrupted run.
//  3. The failed agent rejoins by plain restart: Open with the same
//     AutoCheckpoint directory reads the new epoch and the same
//     checkpoint, and the rendezvous completes once all peers arrive.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"parallax/internal/checkpoint"
	"parallax/internal/data"
	"parallax/internal/transport"
)

// feedLog is a Steps session's position in its forward-only dataset:
// it counts the batches drawn, so a log armed at a restored cursor
// discards up to it on its first draw. With saves set (auto-checkpoint
// on) it also buffers the batches drawn since the oldest auto-checkpoint
// a recovery might restore, and rewindTo replays them. It is trimmed
// after every auto-save to the second-most-recent save's cursor — the
// restore point falls back to the previous checkpoint when a peer died
// mid-save, so that save's feeds must stay replayable. With saves nil
// it records nothing and its base tracks the draws.
type feedLog struct {
	base    int64 // dataset cursor of entries[0]
	pos     int   // next index to serve; == len(entries) means live
	drawn   int64 // batches taken from the dataset
	entries []data.Batch
	saves   []int64 // cursors of the two most recent auto-saves
}

// next serves the replayed batch when rewound; otherwise it discards
// batches until the dataset stands at the log's position, draws one
// live, and records it for future replays.
func (l *feedLog) next(ds Dataset) data.Batch {
	if l.pos < len(l.entries) {
		b := l.entries[l.pos]
		l.pos++
		return b
	}
	for ; l.drawn < l.base+int64(l.pos); l.drawn++ {
		ds.Next()
	}
	b := ds.Next()
	l.drawn++
	if l.saves == nil {
		l.base++
		return b
	}
	l.entries = append(l.entries, b)
	l.pos++
	return b
}

// noteSave records an auto-save at the given cursor and trims entries
// no recovery can need anymore.
func (l *feedLog) noteSave(cursor int64) {
	l.saves = append(l.saves, cursor)
	if len(l.saves) > 2 {
		l.saves = l.saves[len(l.saves)-2:]
	}
	if drop := l.saves[0] - l.base; drop > 0 {
		n := int(drop)
		if n > l.pos {
			n = l.pos
		}
		l.entries = append(l.entries[:0], l.entries[n:]...)
		l.base += int64(n)
		l.pos -= n
	}
}

// rewindTo repositions the log at the given dataset cursor.
func (l *feedLog) rewindTo(cursor int64) error {
	if cursor < l.base || cursor > l.base+int64(len(l.entries)) {
		return fmt.Errorf("parallax: restore cursor %d outside the replay window [%d, %d]",
			cursor, l.base, l.base+int64(len(l.entries)))
	}
	l.pos = int(cursor - l.base)
	return nil
}

// fabricSeam, when an in-package test sets it, wraps every fabric
// dialFabric establishes so the test can observe the frames a session
// sends (nil outside tests).
var fabricSeam func(transport.Fabric) transport.Fabric

// dialFabric establishes this agent's TCP fabric for tgt and returns it
// with the fabric epoch it rendezvoused at. The first attempt dials at
// tgt.epoch; on ErrEpochMismatch — a restarting agent raced a
// survivor's epoch bump — it re-reads the epoch recorded in the
// auto-checkpoint root and retries, paced by the dialer's backoff
// schedule. One DialTimeout bounds the attempts and the waits between
// them; once it passes, the last attempt's error is returned.
func dialFabric(ctx context.Context, tgt target, cfg Config) (transport.Fabric, int, error) {
	d := tgt.dist
	rctx, cancel := context.WithTimeout(ctx, d.DialTimeout)
	defer cancel()
	listener := d.Listener
	epoch := tgt.epoch
	for attempt := 0; ; attempt++ {
		tcp, err := transport.DialTCP(rctx, transport.TCPConfig{
			Topo: transport.Topology{
				Workers:         tgt.resource.TotalGPUs(),
				Machines:        tgt.resource.NumMachines(),
				MachineOfWorker: tgt.resource.WorkerMachines(),
			},
			Process:     d.Machine,
			Addrs:       d.Addrs,
			Listener:    listener,
			DialTimeout: d.DialTimeout,
			Policy:      cfg.Compression,
			Epoch:       epoch,
		})
		if err == nil {
			var fab transport.Fabric = tcp
			if fabricSeam != nil {
				fab = fabricSeam(fab)
			}
			return fab, epoch, nil
		}
		if !errors.Is(err, ErrEpochMismatch) || cfg.AutoCheckpoint.Dir == "" || rctx.Err() != nil {
			return nil, 0, err
		}
		if transport.Backoff(rctx, attempt, nil) != nil {
			return nil, 0, cmp.Or(ctx.Err(), err)
		}
		if epoch, err = checkpoint.ReadEpoch(cfg.AutoCheckpoint.Dir); err != nil {
			return nil, 0, err
		}
		// The fabric consumed (and closed) the listener; retries rebind
		// from the address list.
		listener = nil
	}
}

// verifyJoin runs one scalar agreement right after a recovery-enabled
// distributed session joins its fabric epoch: every agent proposes its
// restored step count and checks the cluster maximum equals it. An
// agent that restored an older checkpoint than its peers fails here
// (and its failure propagates to the rest), instead of silently
// diverging. Every agent under the same configuration performs exactly
// one verifyJoin per fabric generation, keeping the collective schedule
// aligned.
func (s *Session) verifyJoin() error {
	if s.dist == nil || !s.cfg.Recovery.Enabled {
		return nil
	}
	step := s.trainer.StepCount()
	agreed, err := s.trainer.AgreeMax("join", float64(step))
	if err != nil {
		return err
	}
	if int(agreed) != step {
		return fmt.Errorf("parallax: %w: this agent restored step %d but a peer is at step %d",
			ErrTopologyMismatch, step, int(agreed))
	}
	return nil
}

// autoCheckpointKeep is how many complete step checkpoints an
// auto-checkpoint root retains.
const autoCheckpointKeep = 3

// maybeAutoSave writes the periodic checkpoint when the step count
// crosses the cadence. The schedule is a pure function of the step
// count, so every agent saves between the same steps without
// coordination — and a replayed step after a recovery re-saves the
// identical bytes over the identical directory.
func (s *Session) maybeAutoSave() error {
	root, every := s.cfg.AutoCheckpoint.Dir, s.cfg.AutoCheckpoint.EveryN
	step := s.trainer.StepCount()
	if root == "" || step == 0 || step%every != 0 {
		return nil
	}
	dir := checkpoint.StepDir(root, step)
	if s.chaos != nil {
		s.chaos.BeforeSave(step)
	}
	if err := s.Save(dir); err != nil {
		return fmt.Errorf("parallax: auto-checkpoint at step %d: %w", step, err)
	}
	if s.chaos != nil {
		s.chaos.AfterSave(step)
	}
	// One agent prunes (machine 0's host — always present); racing
	// removals from every agent would trip over each other's partial
	// deletes on a shared filesystem.
	for _, m := range s.trainer.LocalMachines() {
		if m == 0 {
			if err := checkpoint.PruneAuto(root, s.resource.NumMachines(), autoCheckpointKeep); err != nil {
				return err
			}
			break
		}
	}
	if s.replay != nil {
		s.replay.noteSave(s.cursor)
	}
	return nil
}

// maxRecoveries bounds how many failures one session survives before
// giving up and surfacing the error; redialTimeout bounds each
// re-rendezvous, which must outlast a failed agent's restart.
const maxRecoveries, redialTimeout = 3, 2 * time.Minute

// recoverable reports whether the driver should attempt in-place
// recovery for err rather than surfacing it.
func (d *stepDriver) recoverable(err error) bool {
	s := d.s
	if !errors.Is(err, ErrPeerFailed) || s.closed.Load() {
		return false
	}
	// Recovery replays the steps since the restore point from the feed
	// log, which only Steps keeps (StepsFeeds owns its feed source and
	// surfaces the failure).
	if s.dist == nil || !s.cfg.Recovery.Enabled || s.replay == nil {
		return false
	}
	// Under an elastic shrink policy a self-attributed failure is
	// terminal: the survivors will re-form without this machine, so
	// recovering in place would redial a cluster that no longer lists
	// it. Without AllowShrink the peers wait, and the in-place path
	// (kill + instant restart) still applies.
	if s.cfg.Elastic && s.cfg.Recovery.AllowShrink {
		if pf := peerFailureOf(err); pf != nil && pf.Rank == s.dist.Machine {
			return false
		}
	}
	return s.recoveries < maxRecoveries
}

// recover performs one recovery: every survivor rebuilds at the next
// fabric epoch from the latest complete auto-checkpoint — onto the same
// roster, or, under an elastic shrink policy, onto the roster without
// the failed machine. On success the driver continues its loop,
// replaying the steps since the restore point from the feed log with
// their emissions suppressed (the live dataset keeps its position); on
// failure the combined error is surfaced and the session is closed.
func (d *stepDriver) recover(cause error) error {
	s := d.s
	if err := s.recoverFrom(d.ctx, cause); err != nil {
		s.Close() // the failed trainer is dead either way
		return fmt.Errorf("parallax: recovery from peer failure gave up: %v (original failure: %w)", err, cause)
	}
	s.recoveries++
	return nil
}

func (s *Session) recoverFrom(ctx context.Context, cause error) error {
	root := s.cfg.AutoCheckpoint.Dir
	step, sdir, err := checkpoint.LatestComplete(root, s.resource.NumMachines())
	if err != nil {
		return err
	}
	if step < 0 {
		return fmt.Errorf("parallax: no complete auto-checkpoint under %s to recover from", root)
	}
	meta0, _, err := checkpoint.ReadShard(sdir, 0)
	if err != nil {
		return err
	}
	// The next epoch's record: the same roster, or under an elastic
	// shrink policy the roster without the failed machine. Every survivor
	// derives it from the same inputs and writes the same bytes; the
	// atomic renames commute.
	rec := &checkpoint.Membership{
		Epoch: s.epoch + 1, Step: meta0.Step, Cursor: meta0.Cursor,
		Parts: meta0.Parts, Joiner: -1, Members: s.currentMembers().Members,
	}
	failed, shrink := s.shrinkTarget(cause)
	if shrink {
		rec.Members = removeMember(rec.Members, failed)
	}
	if err := checkpoint.WriteMembers(root, rec); err != nil {
		return err
	}
	if !shrink {
		// The rendezvous window must outlast the failed agent's supervisor
		// restarting it.
		return s.rebuild(ctx, target{resource: s.resource, dist: s.redial(), epoch: rec.Epoch}, sdir)
	}
	// Elastic shrink (DESIGN.md §14): shed the dead machine instead of
	// waiting out its restart. Unlike the in-place path, the post-shrink
	// loss trajectory necessarily diverges from the uninterrupted run — a
	// machine's workers vanished — but every step is still yielded
	// exactly once.
	return s.rebuildAs(ctx, rec, sdir)
}

// Epoch returns the fabric generation the session is currently running
// at: 0 until a failure recovery, +1 per re-rendezvous.
func (s *Session) Epoch() int { return s.epoch }

// Recoveries returns how many in-place failure recoveries this session
// has performed.
func (s *Session) Recoveries() int { return s.recoveries }

// LastRecoveryDuration returns the wall-clock cost of the most recent
// in-place recovery (teardown through re-rendezvous, restore, and
// verification), or 0 if none happened.
func (s *Session) LastRecoveryDuration() time.Duration { return s.lastRecovery }
