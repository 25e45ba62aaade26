package parallax

// Elastic cluster membership (DESIGN.md §14). A cluster opened with
// WithElastic can change its machine set at a step boundary without a
// restart:
//
//   - Scale-out: a new agent starts with DistConfig.JoinAddr, its own
//     serving address, and files a join request in the shared
//     checkpoint root. At their next step boundary the members find it
//     there and propose admission in the control word every agent
//     exchanges. All survivors save at the boundary, adopt the agreed
//     member list, bump the fabric epoch, and re-rendezvous at the new
//     world size; the joiner reads the new MEMBERS record, pulls its
//     share of the saved state off the root and enters the collective
//     at the same boundary.
//   - Scale-in: an agent with a pending Leave (voluntary, or armed by a
//     chaos leave fault) proposes its own departure the same way; the
//     survivors reshard its parameter-server partitions onto themselves
//     and the leaver's Steps iterator ends with ErrLeft. A peer that
//     dies and stays dead is shed the same way when
//     RecoveryPolicy.AllowShrink is set — the shrink replaces the
//     in-place recovery that would otherwise wait out a restart.
//
// The agreement rides the step boundary's one control word (session.go):
// each agent contributes a proposal code (0 = nothing to propose) and the
// cluster-wide maximum elects a single winner; the winner's full member
// list travels out of band as a membership record it wrote to the
// checkpoint root *before* the exchange, so losing proposals leave no
// trace and every survivor reads exactly the elected list. Membership
// state machine helpers and codes live in membership.go.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"parallax/internal/checkpoint"
	"parallax/internal/cluster"
	"parallax/internal/transport"
)

// memberRounds reports whether this session contributes membership
// proposals to the step-boundary control word.
func (s *Session) memberRounds() bool {
	return s.cfg.Elastic && s.dist != nil && s.cfg.AutoCheckpoint.Dir != "" && !s.closed.Load()
}

// localProposal decides what this agent contributes to the boundary's
// control word and, when it has something to propose, durably
// publishes the proposed member list before returning its code — so the
// list is readable by every survivor the moment the proposal wins.
func (s *Session) localProposal() (float64, error) {
	root := s.cfg.AutoCheckpoint.Dir
	machine := s.dist.Machine
	cur := s.currentMembers()
	rec := &checkpoint.Membership{
		Epoch: s.epoch + 1, Step: int64(s.trainer.StepCount()), Cursor: s.cursor,
		Parts: s.parts, Joiner: -1,
	}
	kind := proposeLeave
	if s.leaving.Load() {
		if len(cur.Members) <= 1 {
			s.leaving.Store(false)
			return 0, fmt.Errorf("parallax: cannot leave a single-member cluster")
		}
		rec.Members = removeMember(cur.Members, machine)
	} else {
		req, err := s.pendingJoin(cur)
		if req == nil {
			return 0, err
		}
		kind, rec.Joiner = proposeJoin, len(cur.Members)
		rec.Members = admitMember(cur.Members, checkpoint.Member{Addr: req.Addr, GPUs: req.GPUs})
	}
	if err := checkpoint.WriteMembershipRecord(root, machine, rec); err != nil {
		return 0, err
	}
	return proposalCode(machine, kind), nil
}

// pendingJoin returns the first join request in the root, in file-name
// order, that the cluster can admit. A request under another compression
// policy, or from an address that is already a member, is skipped by
// every member and answered by machine 0 with a refusal record the
// joiner reads; it never reaches a proposal, so it costs no transition.
func (s *Session) pendingJoin(cur *checkpoint.Membership) (*checkpoint.JoinRequest, error) {
	root := s.cfg.AutoCheckpoint.Dir
	reqs, err := checkpoint.JoinRequests(root)
	if err != nil {
		return nil, err
	}
	fp := s.cfg.Compression.Fingerprint()
	for _, r := range reqs {
		if r.Fingerprint == fp && cur.IndexOf(r.Addr) < 0 {
			return r, nil
		}
		if s.dist.Machine == 0 {
			answer := &checkpoint.JoinRequest{Addr: r.Addr, GPUs: r.GPUs, Fingerprint: fp}
			if err := checkpoint.RefuseJoinRequest(root, answer); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// transition executes the membership change the boundary agreed on:
//
//  1. every agent saves the full state at the boundary (old topology);
//  2. the winner of an admission claims the joiner's request;
//  3. a barrier round confirms every shard is durably on disk — and
//     calls the change off on every agent when the claim found the
//     request withdrawn;
//  4. everyone records the winner's published member list, which carries
//     the new epoch, as MEMBERS: MEMBERS naming the joiner is its
//     admission;
//  5. departing machines close and surface ErrLeft; survivors rebuild
//     at the new world size from the boundary save.
func (s *Session) transition(ctx context.Context, proposal float64) error {
	winner, kind, err := decodeProposal(proposal)
	if err != nil {
		return fmt.Errorf("parallax: membership agreement folded to %v: %w", proposal, err)
	}
	root := s.cfg.AutoCheckpoint.Dir
	step := s.trainer.StepCount()
	sdir := checkpoint.StepDir(root, step)
	if err := s.Save(sdir); err != nil {
		return err
	}
	rec, err := checkpoint.ReadMembershipRecord(root, s.epoch+1, winner)
	if err != nil {
		return err
	}
	// Removing the request is the one decision point between a claim and
	// a joiner giving up: whichever removal comes second finds it gone.
	withdrawn := 0.0
	if kind == proposeJoin && winner == s.dist.Machine {
		err := checkpoint.RemoveJoinRequest(root, rec.Members[rec.Joiner].Addr)
		if errors.Is(err, fs.ErrNotExist) {
			withdrawn = 1
		} else if err != nil {
			return err
		}
	}
	if off, err := s.trainer.AgreeMax("member", withdrawn); err != nil || off != 0 {
		return err
	}
	if rec.Step != int64(step) {
		return fmt.Errorf("parallax: membership record for epoch %d proposes step %d but the cluster is at step %d",
			s.epoch+1, rec.Step, step)
	}
	if err := checkpoint.WriteMembers(root, rec); err != nil {
		return err
	}
	if rec.IndexOf(s.dist.Addrs[s.dist.Machine]) < 0 {
		// This machine left: its state is saved and the survivors own the
		// reshard from here. Terminal by design — not a failure.
		s.Close()
		return fmt.Errorf("parallax: %w at step %d (epoch %d)", ErrLeft, step, s.epoch+1)
	}
	return s.rebuildAs(ctx, rec, sdir)
}

// rebuildAs rebuilds this agent as a member of the agreed membership
// from the checkpoint in sdir (written at the previous topology), then
// settles the re-formed cluster with resave.
func (s *Session) rebuildAs(ctx context.Context, mem *checkpoint.Membership, sdir string) error {
	tgt := target{dist: s.redial(), epoch: mem.Epoch}
	if err := tgt.place(mem, s.dist.Addrs[s.dist.Machine]); err != nil {
		return err
	}
	if err := s.rebuild(ctx, tgt, sdir); err != nil {
		return err
	}
	return s.resave(sdir)
}

// resave is the collective schedule every member of a re-formed cluster
// — survivor or joiner — runs after its rebuild: re-save dir at the new
// topology between two barrier rounds, making it a valid recovery
// fallback at the new machine count. The barriers bracket the overwrite
// so no member reads old-topology shards that a faster peer is already
// replacing.
func (s *Session) resave(dir string) error {
	if _, err := s.trainer.AgreeMax("member", 0); err != nil {
		return err
	}
	if err := s.Save(dir); err != nil {
		return err
	}
	if _, err := s.trainer.AgreeMax("member", 0); err != nil {
		return err
	}
	if s.dist.Machine == 0 {
		// Machine 0 of the new world clears proposal debris from epochs
		// no survivor can need again; best-effort.
		_ = checkpoint.PruneMembershipRecords(s.cfg.AutoCheckpoint.Dir, s.epoch)
	}
	return nil
}

// redial is this agent's placement for a re-rendezvous on a live
// session: the listener (if any) died with the old fabric, so the dial
// rebinds from Addrs, with a window wide enough for a restarting or
// still-saving peer to arrive.
func (s *Session) redial() *DistConfig {
	dc := *s.dist
	dc.Listener = nil
	dc.DialTimeout = s.cfg.Recovery.RedialTimeout
	return &dc
}

// place points the target's placement at the member serving on addr:
// the membership, not the launch flags, assigns machine indices.
func (t *target) place(m *checkpoint.Membership, addr string) error {
	idx := m.IndexOf(addr)
	if idx < 0 {
		return fmt.Errorf("parallax: %s is not a member of the elastic cluster at membership epoch %d; rejoin with DistConfig.JoinAddr",
			addr, m.Epoch)
	}
	dc := *t.dist
	dc.Machine = idx
	dc.Addrs = m.Addrs()
	dc.JoinAddr = ""
	t.dist = &dc
	t.resource = resourceFromMembers(m)
	return nil
}

// awaitAdmission is Open's path for an agent started with
// DistConfig.JoinAddr: file a join request in the shared root, then wait
// until MEMBERS names this agent as the joiner at an epoch newer than the
// one recorded when it asked. That record is the admission: it names the
// rebuild's target — this agent as the newest member, at its epoch — and
// the boundary checkpoint to restore. The session's first Steps boundary
// then runs the same agreement the survivors re-enter after their
// rebuild, so the schedules align by construction. A joiner that gives
// up (ctx done, DialTimeout passed) withdraws its request.
func awaitAdmission(ctx context.Context, resource ResourceInfo, cfg Config) (target, string, error) {
	d, root := cfg.Dist, cfg.AutoCheckpoint.Dir
	if !cfg.Elastic {
		return target{}, "", fmt.Errorf("parallax: DistConfig.JoinAddr requires WithElastic")
	}
	if root == "" {
		return target{}, "", fmt.Errorf("parallax: joining requires WithAutoCheckpoint on the cluster's shared root")
	}
	if err := resource.Validate(); err != nil {
		return target{}, "", err
	}
	asked, err := checkpoint.ReadEpoch(root)
	if err != nil {
		return target{}, "", err
	}
	// The joiner contributes one machine: the first machine of the
	// resource info it was launched with describes its GPUs.
	req := &checkpoint.JoinRequest{Addr: d.JoinAddr, GPUs: resource.GPUsPerMachine(0), Fingerprint: cfg.Compression.Fingerprint()}
	if err := checkpoint.WriteJoinRequest(root, req); err != nil {
		return target{}, "", err
	}
	deadline := time.Now().Add(d.DialTimeout)
	for attempt := 0; ; attempt++ {
		m, err := checkpoint.ReadMembers(root)
		if err != nil {
			return target{}, "", err
		}
		if m != nil && m.Admits(d.JoinAddr, asked) {
			tgt := target{dist: d, epoch: m.Epoch}
			if err := tgt.place(m, d.JoinAddr); err != nil {
				return target{}, "", err
			}
			// The boundary save is the old topology's; the resharding install
			// reads every old shard, and the joiner (like the survivors) only
			// reads them before the post-rendezvous barriers allow anyone to
			// start the new-topology re-save.
			return tgt, checkpoint.StepDir(root, int(m.Step)), nil
		}
		refusal, err := checkpoint.TakeJoinRefusal(root, d.JoinAddr)
		switch {
		case err != nil:
			return target{}, "", err
		case refusal != nil && refusal.Fingerprint != req.Fingerprint:
			return target{}, "", fmt.Errorf("parallax: %w: the cluster runs policy %q, this joiner %q",
				ErrCompressionMismatch, refusal.Fingerprint, req.Fingerprint)
		case refusal != nil:
			return target{}, "", fmt.Errorf("parallax: the cluster refused %s: the address is already a member", d.JoinAddr)
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			// Withdraw. A request already gone was refused (read above next
			// time round) or claimed by a boundary admitting this agent,
			// whose barrier MEMBERS follows: wait for it while ctx allows.
			switch err := checkpoint.RemoveJoinRequest(root, d.JoinAddr); {
			case err == nil:
				return target{}, "", fmt.Errorf("parallax: join request from %s withdrawn: %w", d.JoinAddr,
					cmp.Or(ctx.Err(), fmt.Errorf("no step boundary admitted it within %v", d.DialTimeout)))
			case !errors.Is(err, fs.ErrNotExist):
				return target{}, "", err
			case ctx.Err() != nil:
				return target{}, "", ctx.Err()
			}
		}
		_ = transport.Backoff{}.Wait(ctx, attempt, nil) // a done ctx is handled above
	}
}

// adoptMembers rewrites a restarting agent's launch target from the
// MEMBERS record in the checkpoint root: the cluster may have grown or
// shrunk around the restart, and the record — not the flags — is the
// authoritative membership. The agent finds itself by its own address;
// an address no longer listed means the cluster shed this machine.
func adoptMembers(root string, tgt *target) error {
	d := tgt.dist
	if d.Machine < 0 || d.Machine >= len(d.Addrs) {
		return fmt.Errorf("parallax: machine %d outside the %d-address list", d.Machine, len(d.Addrs))
	}
	m, err := checkpoint.ReadMembers(root)
	if err != nil || m == nil {
		return err
	}
	return tgt.place(m, d.Addrs[d.Machine])
}

// shrinkTarget reports whether err names a dead peer this agent should
// shed via an elastic shrink rather than wait out with an in-place
// recovery.
func (s *Session) shrinkTarget(cause error) (int, bool) {
	if !s.cfg.Elastic || !s.cfg.Recovery.AllowShrink || s.dist == nil {
		return 0, false
	}
	pf := peerFailureOf(cause)
	if pf == nil {
		return 0, false
	}
	n := s.resource.NumMachines()
	if pf.Rank < 0 || pf.Rank >= n || pf.Rank == s.dist.Machine || n < 2 {
		return 0, false
	}
	return pf.Rank, true
}

// currentMembers renders the session's live membership from its address
// list and resources.
func (s *Session) currentMembers() *checkpoint.Membership {
	members := make([]checkpoint.Member, len(s.dist.Addrs))
	for i := range members {
		members[i] = checkpoint.Member{Addr: s.dist.Addrs[i], GPUs: s.resource.GPUsPerMachine(i)}
	}
	return &checkpoint.Membership{
		Epoch: s.epoch, Step: int64(s.trainer.StepCount()), Cursor: s.cursor,
		Parts: s.parts, Joiner: -1, Members: members,
	}
}

// resourceFromMembers derives the cluster resources a membership
// implies. Hosts are positional (m0, m1, ...) — matching Uniform's
// naming — because agreement and placement depend only on counts, and
// positional names keep the topology fingerprint a pure function of the
// member list on every agent.
func resourceFromMembers(m *checkpoint.Membership) ResourceInfo {
	ms := make([]cluster.Machine, len(m.Members))
	for i, mem := range m.Members {
		gpus := make([]int, mem.GPUs)
		for j := range gpus {
			gpus[j] = j
		}
		ms[i] = cluster.Machine{Host: fmt.Sprintf("m%d", i), GPUs: gpus}
	}
	return ResourceInfo{Machines: ms}
}

// Leave requests this agent's voluntary departure from its elastic
// cluster. The departure happens at the next step boundary: the
// survivors agree on a membership without this machine and reshard its
// parameter-server state, and this session's Steps iterator ends with
// an error wrapping ErrLeft. Safe to call from another goroutine: it
// reads only the atomic closed flag and the options Open fixed, and
// stores the intent; whether the live cluster can spare this machine is
// judged at the boundary, which refuses a leave from a single-member
// cluster.
func (s *Session) Leave() error {
	if s.closed.Load() {
		return fmt.Errorf("parallax: leave on %w session", ErrClosed)
	}
	if !s.cfg.Elastic || s.cfg.Dist == nil || s.cfg.AutoCheckpoint.Dir == "" {
		return fmt.Errorf("parallax: Leave requires WithElastic, WithDistConfig, and WithAutoCheckpoint")
	}
	s.leaving.Store(true)
	return nil
}

// Resize reshards a single-process elastic session to a different
// machine set in place: the session saves its state, rebuilds the
// runtime at the new resources, and restores through the same
// resharding path distributed transitions use. Like Repartition, it
// must not run concurrently with the step drivers. Distributed clusters
// resize through JoinAddr and Leave instead.
func (s *Session) Resize(ctx context.Context, resource ResourceInfo) error {
	if s.closed.Load() {
		return fmt.Errorf("parallax: resize on %w session", ErrClosed)
	}
	if s.dist != nil {
		return fmt.Errorf("parallax: Resize is single-process only; distributed clusters grow with JoinAddr and shrink with Leave")
	}
	if !s.cfg.Elastic {
		return fmt.Errorf("parallax: Resize requires WithElastic")
	}
	dir, err := os.MkdirTemp("", "parallax-resize-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := s.Save(dir); err != nil {
		return err
	}
	return s.rebuild(ctx, target{resource: resource, epoch: s.epoch}, dir)
}

// Members returns the agent addresses of the cluster this session is
// currently a member of (nil for single-process sessions). The slice is
// a copy.
func (s *Session) Members() []string {
	if s.dist == nil {
		return nil
	}
	return append([]string(nil), s.dist.Addrs...)
}
