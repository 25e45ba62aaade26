package parallax

// Chaos-driven elasticity suite (DESIGN.md §14): a TCP cluster grows
// 2→3 mid-run when a joiner files its request, refuses joiners it cannot
// admit, shrinks 3→2 on a voluntary (chaos leave fault) departure and on
// an unrecovered kill with AllowShrink, stays bit-identical to the
// uninterrupted reference across a same-size kill+recover with elastic
// membership enabled, and resizes a single-process session in place. Every test counts each step exactly
// once per agent and checks for leaked goroutines.

import (
	"context"
	"errors"
	"io/fs"
	"maps"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parallax/internal/checkpoint"
	"parallax/internal/data"
	"parallax/internal/transport"
)

// elasticTCPCluster opens the n agents of an n×2 TCP cluster with every
// listener pre-bound (a transition re-rendezvouses from the address
// list, so every address must be real and re-bindable), returning the
// sessions and the address list.
func elasticTCPCluster(t *testing.T, n int, perProc func(p int, dc *DistConfig) []Option) ([]*Session, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for p := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[p] = ln
		addrs[p] = ln.Addr().String()
	}
	sessions := make([]*Session, n)
	oerrs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			dc := DistConfig{
				Machine: p, Addrs: append([]string(nil), addrs...),
				Listener: lns[p], DialTimeout: 15 * time.Second,
			}
			opts := perProc(p, &dc)
			sessions[p], oerrs[p] = Open(context.Background(), buildAPIModel(8, 150), Uniform(n, 2),
				append(opts, WithDistConfig(dc))...)
		}(p)
	}
	wg.Wait()
	for p, err := range oerrs {
		if err != nil {
			t.Fatalf("agent %d: %v", p, err)
		}
	}
	return sessions, addrs
}

// elasticOpts is the option set every member of an elastic test cluster
// runs under: the shared auto-checkpoint root, recovery, and elastic
// membership.
func elasticOpts(root string) []Option {
	return append(momentumOpts(),
		WithAutoCheckpoint(root, 4),
		WithElastic(),
		WithRecovery(RecoveryPolicy{Enabled: true}))
}

type elasticResult struct {
	losses map[int]float64
	err    error
}

// driveElastic consumes a session's Steps up to step total-1, recording
// each step's loss and failing on any step emitted twice. onStep (when
// set) runs inside the loop body — on the driver's goroutine, so it may
// touch session state.
func driveElastic(sess *Session, total int, onStep func(st StepStats)) elasticResult {
	r := elasticResult{losses: map[int]float64{}}
	for st, err := range sess.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			r.err = err
			return r
		}
		if _, dup := r.losses[st.Step]; dup {
			r.err = errDupStep(st.Step)
			return r
		}
		r.losses[st.Step] = st.Loss
		if onStep != nil {
			onStep(st)
		}
		if st.Step == total-1 {
			return r
		}
	}
	return r
}

func waitElastic(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("%s did not complete", what)
	}
}

func varBits(t *testing.T, s *Session, name string) []uint32 {
	t.Helper()
	v, err := s.VarValue(name)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]uint32, len(v.Data()))
	for i, x := range v.Data() {
		bits[i] = math.Float32bits(x)
	}
	return bits
}

// TestSessionElasticGrowTCP is the scale-out tentpole: a 2-agent TCP
// cluster is mid-run when a third agent files a join request with
// DistConfig.JoinAddr. The survivors admit it at a step boundary, bump
// the fabric epoch, and re-rendezvous at world size 3; the joiner restores
// its share of the boundary checkpoint and enters the collective. The
// survivors emit every step exactly once, the joiner emits a contiguous
// suffix, and all three agents' losses agree bit for bit on every
// shared step.
func TestSessionElasticGrowTCP(t *testing.T) {
	const total = 16
	base := runtime.NumGoroutine()
	root := t.TempDir()
	sessions, _ := elasticTCPCluster(t, 2, func(p int, dc *DistConfig) []Option {
		return elasticOpts(root)
	})

	lnJ, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joinAddr := lnJ.Addr().String()

	var joiner *Session
	res := make([]elasticResult, 3)
	var wg sync.WaitGroup
	var launchOnce sync.Once
	launch := func() {
		launchOnce.Do(func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dc := DistConfig{
					JoinAddr: joinAddr, Addrs: []string{joinAddr},
					Listener: lnJ, DialTimeout: 60 * time.Second,
				}
				js, jerr := Open(context.Background(), buildAPIModel(8, 150), Uniform(1, 2),
					append(elasticOpts(root), WithDistConfig(dc))...)
				if jerr != nil {
					res[2] = elasticResult{err: jerr}
					return
				}
				joiner = js
				res[2] = driveElastic(js, total, nil)
			}()
		})
	}

	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sess := sessions[p]
			res[p] = driveElastic(sess, total, func(st StepStats) {
				if st.Step < 3 {
					return
				}
				if p == 0 {
					launch()
				}
				// Pace the survivors until the admission lands so the join
				// request cannot miss every remaining boundary; once the
				// cluster is 3-wide the run flies again.
				if len(sess.Members()) < 3 {
					time.Sleep(150 * time.Millisecond)
				}
			})
		}(p)
	}
	waitElastic(t, &wg, "elastic grow")

	for p := 0; p < 2; p++ {
		if res[p].err != nil {
			t.Fatalf("agent %d: %v", p, res[p].err)
		}
		if len(res[p].losses) != total {
			t.Fatalf("agent %d emitted %d steps, want %d (each exactly once)", p, len(res[p].losses), total)
		}
		if n := sessions[p].Recoveries(); n != 0 {
			t.Fatalf("agent %d recoveries = %d, want 0 (a grow is not a recovery)", p, n)
		}
	}
	if res[2].err != nil {
		t.Fatalf("joiner: %v", res[2].err)
	}
	if joiner == nil {
		t.Fatal("joiner session was never opened")
	}
	joinStep := total
	for step := range res[2].losses {
		if step < joinStep {
			joinStep = step
		}
	}
	if joinStep < 4 || joinStep >= total {
		t.Fatalf("joiner's first step %d, want within [4, %d)", joinStep, total)
	}
	if len(res[2].losses) != total-joinStep {
		t.Fatalf("joiner emitted %d steps from step %d, want %d (contiguous suffix)",
			len(res[2].losses), joinStep, total-joinStep)
	}
	for step, loss := range res[1].losses {
		if math.Float64bits(loss) != math.Float64bits(res[0].losses[step]) {
			t.Fatalf("step %d: agent 1 loss %x, agent 0 loss %x",
				step, math.Float64bits(loss), math.Float64bits(res[0].losses[step]))
		}
	}
	for step, loss := range res[2].losses {
		if math.Float64bits(loss) != math.Float64bits(res[0].losses[step]) {
			t.Fatalf("step %d: joiner loss %x, agent 0 loss %x",
				step, math.Float64bits(loss), math.Float64bits(res[0].losses[step]))
		}
	}
	for i, s := range []*Session{sessions[0], sessions[1], joiner} {
		if got := len(s.Members()); got != 3 {
			t.Fatalf("member %d sees %d members, want 3", i, got)
		}
		if e := s.Epoch(); e != 1 {
			t.Fatalf("member %d at epoch %d, want 1", i, e)
		}
	}
	if e, err := checkpoint.ReadEpoch(root); err != nil || e != 1 {
		t.Fatalf("recorded epoch %d (err %v), want 1", e, err)
	}
	m, err := checkpoint.ReadMembers(root)
	if err != nil || m == nil || len(m.Members) != 3 {
		t.Fatalf("MEMBERS record %+v (err %v), want 3 members", m, err)
	}
	if m.Members[2].Addr != joinAddr {
		t.Fatalf("MEMBERS[2] = %q, want the joiner %q", m.Members[2].Addr, joinAddr)
	}
	requireRootRecord(t, root, 1, sessions[0], sessions[1], joiner)
	closeInTurn(sessions[0], sessions[1], joiner)
	waitSessionGoroutines(t, base)
}

// TestSessionElasticLeaveTCP scales in 3→2 through the chaos harness: a
// leave@5:2 fault arms agent 2's voluntary departure at step 5. At the
// next boundary the cluster agrees on the shrunken membership, the
// leaver's iterator ends with ErrLeft after emitting steps 0..5 exactly
// once, and the survivors reshard its parameter-server state and finish
// the run bit-identically to each other.
func TestSessionElasticLeaveTCP(t *testing.T) {
	const total = 12
	base := runtime.NumGoroutine()
	root := t.TempDir()
	sessions, _ := elasticTCPCluster(t, 3, func(p int, dc *DistConfig) []Option {
		if p == 2 {
			dc.Chaos = "leave@5:2"
		}
		return elasticOpts(root)
	})

	res := make([]elasticResult, 3)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res[p] = driveElastic(sessions[p], total, nil)
		}(p)
	}
	waitElastic(t, &wg, "elastic leave")

	if res[2].err == nil || !errors.Is(res[2].err, ErrLeft) {
		t.Fatalf("leaver ended with %v, want ErrLeft", res[2].err)
	}
	if len(res[2].losses) != 6 {
		t.Fatalf("leaver emitted %d steps, want 6 (0..5 then departure)", len(res[2].losses))
	}
	for step := 0; step < 6; step++ {
		if _, ok := res[2].losses[step]; !ok {
			t.Fatalf("leaver missed step %d", step)
		}
	}
	for p := 0; p < 2; p++ {
		if res[p].err != nil {
			t.Fatalf("survivor %d: %v", p, res[p].err)
		}
		if len(res[p].losses) != total {
			t.Fatalf("survivor %d emitted %d steps, want %d (each exactly once)", p, len(res[p].losses), total)
		}
		if n := sessions[p].Recoveries(); n != 0 {
			t.Fatalf("survivor %d recoveries = %d, want 0 (a leave is not a failure)", p, n)
		}
		if e := sessions[p].Epoch(); e != 1 {
			t.Fatalf("survivor %d at epoch %d, want 1", p, e)
		}
		if got := len(sessions[p].Members()); got != 2 {
			t.Fatalf("survivor %d sees %d members, want 2", p, got)
		}
	}
	for step, loss := range res[1].losses {
		if math.Float64bits(loss) != math.Float64bits(res[0].losses[step]) {
			t.Fatalf("step %d: survivors' losses diverged", step)
		}
	}
	for step, loss := range res[2].losses {
		if math.Float64bits(loss) != math.Float64bits(res[0].losses[step]) {
			t.Fatalf("step %d: leaver's pre-departure loss diverged from the survivors'", step)
		}
	}
	m, err := checkpoint.ReadMembers(root)
	if err != nil || m == nil || len(m.Members) != 2 {
		t.Fatalf("MEMBERS record %+v (err %v), want 2 members", m, err)
	}
	requireRootRecord(t, root, 1, sessions[0], sessions[1])
	// A distributed session resizes through membership, never in place.
	if err := sessions[0].Resize(context.Background(), Uniform(2, 2)); err == nil {
		t.Fatal("Resize on a distributed session must refuse")
	}
	closeInTurn(sessions...)
	waitSessionGoroutines(t, base)
}

// TestSessionElasticShrinkOnKillTCP scales in on failure: a chaos fault
// kills agent 2's fabric at step 6 and every agent runs with
// AllowShrink. The killed agent fails fast (its own rank is the
// attributed failure, so it must not redial a cluster that re-formed
// without it); the survivors agree the machine is gone, reshard its
// partitions onto themselves from the step-4 auto-checkpoint, and
// finish at world size 2 with every step emitted exactly once.
func TestSessionElasticShrinkOnKillTCP(t *testing.T) {
	const total = 12
	base := runtime.NumGoroutine()
	root := t.TempDir()
	sessions, _ := elasticTCPCluster(t, 3, func(p int, dc *DistConfig) []Option {
		if p == 2 {
			dc.Chaos = "kill@6"
		}
		return append(momentumOpts(),
			WithAutoCheckpoint(root, 4),
			WithElastic(),
			WithRecovery(RecoveryPolicy{Enabled: true, AllowShrink: true}))
	})

	res := make([]elasticResult, 3)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res[p] = driveElastic(sessions[p], total, nil)
		}(p)
	}
	waitElastic(t, &wg, "elastic shrink")

	if res[2].err == nil || !errors.Is(res[2].err, ErrPeerFailed) {
		t.Fatalf("killed agent ended with %v, want ErrPeerFailed (fail fast, no self-recovery)", res[2].err)
	}
	if len(res[2].losses) != 6 {
		t.Fatalf("killed agent emitted %d steps, want 6 (0..5 then the kill)", len(res[2].losses))
	}
	for p := 0; p < 2; p++ {
		if res[p].err != nil {
			t.Fatalf("survivor %d: %v", p, res[p].err)
		}
		if len(res[p].losses) != total {
			t.Fatalf("survivor %d emitted %d steps, want %d (each exactly once)", p, len(res[p].losses), total)
		}
		if n := sessions[p].Recoveries(); n != 1 {
			t.Fatalf("survivor %d recoveries = %d, want 1", p, n)
		}
		if e := sessions[p].Epoch(); e != 1 {
			t.Fatalf("survivor %d at epoch %d, want 1", p, e)
		}
		if got := len(sessions[p].Members()); got != 2 {
			t.Fatalf("survivor %d sees %d members, want 2", p, got)
		}
	}
	for step, loss := range res[1].losses {
		if math.Float64bits(loss) != math.Float64bits(res[0].losses[step]) {
			t.Fatalf("step %d: survivors' losses diverged", step)
		}
	}
	for step, loss := range res[2].losses {
		if math.Float64bits(loss) != math.Float64bits(res[0].losses[step]) {
			t.Fatalf("step %d: killed agent's pre-kill loss diverged from the survivors'", step)
		}
	}
	if e, err := checkpoint.ReadEpoch(root); err != nil || e != 1 {
		t.Fatalf("recorded epoch %d (err %v), want 1", e, err)
	}
	m, err := checkpoint.ReadMembers(root)
	if err != nil || m == nil || len(m.Members) != 2 {
		t.Fatalf("MEMBERS record %+v (err %v), want 2 members", m, err)
	}
	requireRootRecord(t, root, 1, sessions[0], sessions[1])
	closeInTurn(sessions...)
	waitSessionGoroutines(t, base)
}

// TestSessionElasticKillRecoverBitIdentical pins that enabling elastic
// membership does not perturb the same-size recovery path: a kill@6
// with AllowShrink off recovers in place exactly as without
// WithElastic, and the loss trajectory stays bit-identical to an
// uninterrupted single-process reference.
func TestSessionElasticKillRecoverBitIdentical(t *testing.T) {
	const every, total = 4, 12
	refLosses, refState := runSessionSteps(t, total, momentumOpts()...)

	base := runtime.NumGoroutine()
	root := t.TempDir()
	sessions := recoveryTCPPair(t, func(p int, dc *DistConfig) []Option {
		if p == 1 {
			dc.Chaos = "kill@6"
		}
		return append(momentumOpts(),
			WithAutoCheckpoint(root, every),
			WithElastic(),
			WithRecovery(RecoveryPolicy{Enabled: true}))
	})

	res := [2]elasticResult{}
	states := [2]map[string][]uint32{}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if res[p] = driveElastic(sessions[p], total, nil); res[p].err == nil {
				states[p], res[p].err = stateBits(sessions[p])
			}
		}(p)
	}
	waitElastic(t, &wg, "elastic same-size recovery")

	for p := 0; p < 2; p++ {
		if res[p].err != nil {
			t.Fatalf("agent %d: %v", p, res[p].err)
		}
		if len(res[p].losses) != total {
			t.Fatalf("agent %d emitted %d steps, want %d (each exactly once)", p, len(res[p].losses), total)
		}
		for step, loss := range res[p].losses {
			if math.Float64bits(loss) != math.Float64bits(refLosses[step]) {
				t.Fatalf("agent %d step %d loss %x, uninterrupted reference %x",
					p, step, math.Float64bits(loss), math.Float64bits(refLosses[step]))
			}
		}
		if n := sessions[p].Recoveries(); n != 1 {
			t.Fatalf("agent %d recoveries = %d, want 1 (in-place, same size)", p, n)
		}
		if got := len(sessions[p].Members()); got != 2 {
			t.Fatalf("agent %d sees %d members, want 2 (no membership change)", p, got)
		}
		if err := sameState(states[p], refState); err != nil {
			t.Fatalf("agent %d trained state: %v", p, err)
		}
	}
	closeInTurn(sessions[:]...)
	waitSessionGoroutines(t, base)
}

// TestSessionElasticResizeInProc drives the single-process resharding
// path: a 2×2 elastic session grows to 3×2 and back mid-run, with no
// writable temporary directory. Every resize preserves every variable,
// PS and replicated, bit for bit, the step counter, and the exactly-once
// step numbering across the Steps calls that bracket it.
func TestSessionElasticResizeInProc(t *testing.T) {
	ctx := context.Background()
	refLosses, _ := runSessionSteps(t, 6, momentumOpts()...)

	s, err := Open(ctx, buildAPIModel(8, 150), Uniform(2, 2), append(momentumOpts(), WithElastic())...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds := data.NewZipfText(150, 8, 1, 1.0, 5)
	seen := map[int]float64{}
	runTo := func(last int) {
		t.Helper()
		for st, err := range s.Steps(ctx, ds) {
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := seen[st.Step]; dup {
				t.Fatalf("step %d emitted twice", st.Step)
			}
			seen[st.Step] = st.Loss
			if st.Step == last {
				break
			}
		}
	}
	runTo(5)
	for step := 0; step < 6; step++ {
		if math.Float64bits(seen[step]) != math.Float64bits(refLosses[step]) {
			t.Fatalf("pre-resize step %d diverged from the reference", step)
		}
	}
	state := func() map[string][]uint32 {
		t.Helper()
		bits, err := stateBits(s)
		if err != nil {
			t.Fatal(err)
		}
		return bits
	}
	// Resize snapshots in memory: it needs no writable temporary directory.
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	before := state()
	if err := s.Resize(ctx, Uniform(3, 2)); err != nil {
		t.Fatal(err)
	}
	if s.StepCount() != 6 {
		t.Fatalf("StepCount after grow = %d, want 6", s.StepCount())
	}
	if s.Workers() != 6 {
		t.Fatalf("Workers after grow = %d, want 6", s.Workers())
	}
	if err := sameState(state(), before); err != nil {
		t.Fatalf("state changed across the grow resize: %v", err)
	}
	runTo(9)
	mid := state()
	if err := s.Resize(ctx, Uniform(2, 2)); err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 4 {
		t.Fatalf("Workers after shrink = %d, want 4", s.Workers())
	}
	if err := sameState(state(), mid); err != nil {
		t.Fatalf("state changed across the shrink resize: %v", err)
	}
	runTo(11)
	if len(seen) != 12 {
		t.Fatalf("emitted %d distinct steps across resizes, want 12", len(seen))
	}
}

// TestSessionElasticCrossTopologyRestore pins OpenFromCheckpoint's
// topology contract both ways: restoring a checkpoint onto a different
// machine count is a hard ErrTopologyMismatch without WithElastic and
// an explicit resharding restore with it — in both directions, with the
// variables surviving bit for bit.
func TestSessionElasticCrossTopologyRestore(t *testing.T) {
	ctx := context.Background()
	dir2 := t.TempDir()
	s, err := Open(ctx, buildAPIModel(8, 150), Uniform(2, 2), momentumOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for st, err := range s.Steps(ctx, data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Step == 4 {
			break
		}
	}
	if err := s.Save(dir2); err != nil {
		t.Fatal(err)
	}
	ref := varBits(t, s, "embedding")
	s.Close()

	if _, err := OpenFromCheckpoint(ctx, dir2, buildAPIModel(8, 150), Uniform(3, 2), momentumOpts()...); !errors.Is(err, ErrTopologyMismatch) {
		t.Fatalf("2→3 restore without WithElastic: %v, want ErrTopologyMismatch", err)
	}
	s3, err := OpenFromCheckpoint(ctx, dir2, buildAPIModel(8, 150), Uniform(3, 2),
		append(momentumOpts(), WithElastic())...)
	if err != nil {
		t.Fatal(err)
	}
	if s3.StepCount() != 5 {
		t.Fatalf("grown restore StepCount = %d, want 5", s3.StepCount())
	}
	grown := varBits(t, s3, "embedding")
	for i := range ref {
		if ref[i] != grown[i] {
			t.Fatalf("embedding[%d] changed across the 2→3 restore", i)
		}
	}
	// The grown cluster trains on: steps 5 and 6 each exactly once (the
	// fresh dataset fast-forwards to the checkpointed cursor).
	steps := map[int]bool{}
	for st, err := range s3.Steps(ctx, data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		if steps[st.Step] {
			t.Fatalf("step %d emitted twice after the grown restore", st.Step)
		}
		steps[st.Step] = true
		if st.Step == 6 {
			break
		}
	}
	if !steps[5] || !steps[6] || len(steps) != 2 {
		t.Fatalf("grown restore emitted steps %v, want exactly {5, 6}", steps)
	}
	dir3 := t.TempDir()
	if err := s3.Save(dir3); err != nil {
		t.Fatal(err)
	}
	ref3 := varBits(t, s3, "embedding")
	s3.Close()

	if _, err := OpenFromCheckpoint(ctx, dir3, buildAPIModel(8, 150), Uniform(2, 2), momentumOpts()...); !errors.Is(err, ErrTopologyMismatch) {
		t.Fatalf("3→2 restore without WithElastic: %v, want ErrTopologyMismatch", err)
	}
	s4, err := OpenFromCheckpoint(ctx, dir3, buildAPIModel(8, 150), Uniform(2, 2),
		append(momentumOpts(), WithElastic())...)
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if s4.StepCount() != 7 {
		t.Fatalf("shrunken restore StepCount = %d, want 7", s4.StepCount())
	}
	shrunk := varBits(t, s4, "embedding")
	for i := range ref3 {
		if ref3[i] != shrunk[i] {
			t.Fatalf("embedding[%d] changed across the 3→2 restore", i)
		}
	}
}

// TestSessionElasticValidation pins the API preconditions: Resize and
// Leave demand the elastic opt-in (and a live session), and a joiner
// cannot ask for admission without WithElastic.
func TestSessionElasticValidation(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, buildAPIModel(8, 150), Uniform(2, 2), momentumOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Resize(ctx, Uniform(3, 2)); err == nil {
		t.Fatal("Resize without WithElastic must fail")
	}
	if err := s.Leave(); err == nil {
		t.Fatal("Leave on a non-elastic single-process session must fail")
	}
	s.Close()
	if err := s.Resize(ctx, Uniform(3, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Resize after Close: %v, want ErrClosed", err)
	}
	if err := s.Leave(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Leave after Close: %v, want ErrClosed", err)
	}
	if _, err := Open(ctx, buildAPIModel(8, 150), Uniform(1, 2),
		WithDistConfig(DistConfig{JoinAddr: "127.0.0.1:2"})); err == nil {
		t.Fatal("JoinAddr without WithElastic must fail")
	}
}

// TestElasticJoinHandshakeThroughRoot drives the whole request-then-admit
// exchange through the checkpoint root, without a training cluster: a
// joiner files its request and waits, a member's boundary lists it, the
// proposal winner claims it, and writing MEMBERS at a newer epoch is the
// offer that places the joiner.
func TestElasticJoinHandshakeThroughRoot(t *testing.T) {
	root := t.TempDir()
	const joinAddr = "127.0.0.1:7003"
	cur := &checkpoint.Membership{Epoch: 0, Parts: 8, Joiner: -1, Members: []checkpoint.Member{
		{Addr: "127.0.0.1:7001", GPUs: 1},
		{Addr: "127.0.0.1:7002", GPUs: 1},
	}}
	member := &Session{cfg: Config{AutoCheckpoint: AutoCheckpointSpec{Dir: root}},
		liveRuntime: liveRuntime{dist: &DistConfig{Machine: 0, Addrs: cur.Addrs()}}}
	if req, err := member.pendingJoin(cur); err != nil || req != nil {
		t.Fatalf("pending join %+v (%v) in a fresh root", req, err)
	}

	var got target
	var dir string
	var joinErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, dir, joinErr = awaitAdmission(context.Background(), Uniform(1, 1), Config{
			Elastic:        true,
			AutoCheckpoint: AutoCheckpointSpec{Dir: root},
			Dist:           &DistConfig{JoinAddr: joinAddr, DialTimeout: 10 * time.Second},
		})
	}()

	// The request lands in the root asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	var req *checkpoint.JoinRequest
	for req == nil {
		if time.Now().After(deadline) {
			t.Fatal("join request never reached the root")
		}
		var err error
		if req, err = member.pendingJoin(cur); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if req.Addr != joinAddr || req.GPUs != 1 {
		t.Fatalf("listed request %+v", req)
	}
	select {
	case <-done:
		t.Fatalf("joiner returned before any MEMBERS record: %v", joinErr)
	default:
	}

	offer := &checkpoint.Membership{Epoch: 1, Step: 10, Cursor: 20, Parts: 8, Joiner: 2,
		Members: admitMember(cur.Members, checkpoint.Member{Addr: req.Addr, GPUs: req.GPUs})}
	if err := checkpoint.RemoveJoinRequest(root, req.Addr); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteMembers(root, offer); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("MEMBERS naming the joiner at a newer epoch never admitted it")
	}
	if joinErr != nil {
		t.Fatal(joinErr)
	}
	if got.epoch != 1 || got.dist.Machine != 2 || len(got.dist.Addrs) != 3 || got.dist.Addrs[2] != joinAddr ||
		got.dist.JoinAddr != "" || dir != checkpoint.StepDir(root, 10) {
		t.Fatalf("joiner placed at epoch %d as machine %d of %v (JoinAddr %q), restoring %s",
			got.epoch, got.dist.Machine, got.dist.Addrs, got.dist.JoinAddr, dir)
	}
	if req, err := member.pendingJoin(cur); err != nil || req != nil {
		t.Fatalf("claimed request still pending: %+v (%v)", req, err)
	}
	if err := checkpoint.RemoveJoinRequest(root, joinAddr); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("second claim of one request: %v, want fs.ErrNotExist", err)
	}
}

// TestSessionElasticJoinRefusals runs the joins a two-agent cluster must
// not admit. A joiner that gives up before any boundary — its ctx
// cancelled, or its DialTimeout passed — withdraws its request. A joiner
// under another compression policy fails fast with
// ErrCompressionMismatch, and one whose address is already a member is
// refused. None of them costs a transition: the cluster steps on at
// epoch 0 with its two members, and no MEMBERS record is ever written.
func TestSessionElasticJoinRefusals(t *testing.T) {
	base := runtime.NumGoroutine()
	root := t.TempDir()
	sessions, addrs := elasticTCPCluster(t, 2, func(p int, dc *DistConfig) []Option {
		return elasticOpts(root)
	})
	join := func(ctx context.Context, addr string, timeout time.Duration, opts ...Option) error {
		opts = append(append(elasticOpts(root), opts...),
			WithDistConfig(DistConfig{JoinAddr: addr, DialTimeout: timeout}))
		js, err := Open(ctx, buildAPIModel(8, 150), Uniform(1, 2), opts...)
		if err == nil {
			js.Close()
		}
		return err
	}

	// The cluster has not stepped yet, so no boundary can claim these.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	if err := join(ctx, "127.0.0.1:1", time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner with a cancelled ctx: %v, want context.Canceled", err)
	}
	if err := join(context.Background(), "127.0.0.1:2", 100*time.Millisecond); err == nil {
		t.Fatal("a joiner past its DialTimeout was admitted")
	}
	if reqs, err := checkpoint.JoinRequests(root); err != nil || len(reqs) != 0 {
		t.Fatalf("joiners that gave up left requests behind: %v (%v)", reqs, err)
	}

	// Now step, paced, until both refusals are in.
	stepCtx, stop := context.WithCancel(context.Background())
	defer stop()
	res := make([]elasticResult, 2)
	var wg sync.WaitGroup
	for p := range sessions {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res[p].losses = map[int]float64{}
			for st, err := range sessions[p].Steps(stepCtx, data.NewZipfText(150, 8, 1, 1.0, 5)) {
				if err != nil {
					res[p].err = err
					return
				}
				if _, dup := res[p].losses[st.Step]; dup {
					res[p].err = errDupStep(st.Step)
					return
				}
				res[p].losses[st.Step] = st.Loss
				time.Sleep(10 * time.Millisecond)
			}
		}(p)
	}
	err := join(context.Background(), "127.0.0.1:3", 30*time.Second, WithCompression(CompressionF16()))
	if !errors.Is(err, ErrCompressionMismatch) {
		t.Errorf("joiner under another policy: %v, want ErrCompressionMismatch", err)
	}
	if err := join(context.Background(), addrs[1], 30*time.Second); err == nil || errors.Is(err, ErrCompressionMismatch) {
		t.Errorf("joiner at a member's address: %v, want a refusal", err)
	}
	stop()
	waitElastic(t, &wg, "stepping through refusals")

	for p, s := range sessions {
		if !errors.Is(res[p].err, context.Canceled) {
			t.Fatalf("agent %d ended with %v, want context.Canceled", p, res[p].err)
		}
		if len(res[p].losses) == 0 || s.Epoch() != 0 || len(s.Members()) != 2 || s.Recoveries() != 0 {
			t.Fatalf("agent %d: %d steps, epoch %d, %d members, %d recoveries; want steps at epoch 0, 2 members, no recovery",
				p, len(res[p].losses), s.Epoch(), len(s.Members()), s.Recoveries())
		}
	}
	if m, err := checkpoint.ReadMembers(root); err != nil || m != nil {
		t.Fatalf("MEMBERS record %+v (err %v), want none", m, err)
	}
	closeInTurn(sessions...)
	waitSessionGoroutines(t, base)
}

// goroutineStarts counts this module's live goroutines by the function
// each was started with.
func goroutineStarts() map[string]int {
	buf := make([]byte, 1<<16)
	for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	starts := map[string]int{}
	lines := strings.Split(string(buf), "\n")
	for i, l := range lines {
		// A goroutine's dump ends with its start function's frame (a call
		// line and a file line), then "created by".
		if !strings.HasPrefix(l, "created by ") || i < 2 {
			continue
		}
		fn := lines[i-2]
		if j := strings.LastIndex(fn, "("); j > 0 {
			fn = fn[:j]
		}
		if strings.HasPrefix(fn, "parallax") {
			starts[fn]++
		}
	}
	return starts
}

// settledStarts polls goroutineStarts until two reads agree — a
// rendezvous's accept loop ends moments after its listener closes.
func settledStarts() map[string]int {
	prev := goroutineStarts()
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		cur := goroutineStarts()
		if maps.Equal(prev, cur) {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestSessionElasticFabricKeepsNoListener: joiners ask through the
// checkpoint root, not a socket, so once Open returns an elastic agent's
// rendezvous listener is closed —
// dialing either agent's address is refused — and the pair runs exactly
// the goroutines a static pair does.
func TestSessionElasticFabricKeepsNoListener(t *testing.T) {
	base := runtime.NumGoroutine()
	staticRoot, root := t.TempDir(), t.TempDir()
	static, _ := elasticTCPCluster(t, 2, func(int, *DistConfig) []Option {
		return append(momentumOpts(), WithAutoCheckpoint(staticRoot, 4),
			WithRecovery(RecoveryPolicy{Enabled: true}))
	})
	want := settledStarts()
	closeInTurn(static...)
	waitSessionGoroutines(t, base)

	sessions, addrs := elasticTCPCluster(t, 2, func(int, *DistConfig) []Option {
		return elasticOpts(root)
	})
	defer closeInTurn(sessions...)
	if got := settledStarts(); !maps.Equal(got, want) {
		t.Fatalf("elastic pair runs goroutines %v, a static pair %v", got, want)
	}
	for p, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Fatalf("agent %d still accepts connections at %s after the rendezvous", p, addr)
		}
	}
}

// TestSessionLeaveDuringRebuild: Leave is safe from another goroutine
// while the session rebuilds — it reads only what Open fixed. Run under
// -race; Resize is the simplest rebuild to drive.
func TestSessionLeaveDuringRebuild(t *testing.T) {
	ctx := context.Background()
	s, err := Open(ctx, buildAPIModel(8, 150), Uniform(2, 2), append(momentumOpts(), WithElastic())...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	leaves := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				leaves <- n
				return
			default:
			}
			if err := s.Leave(); err == nil {
				t.Error("Leave on a single-process session succeeded")
			}
			n++
		}
	}()
	for _, r := range []ResourceInfo{Uniform(3, 2), Uniform(2, 2), Uniform(3, 2)} {
		if err := s.Resize(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if n := <-leaves; n == 0 {
		t.Fatal("no Leave call overlapped the rebuilds")
	}
}

// scalarCounter is the fabricSeam wrapper of the exchange-count test: it
// counts every scalar frame a session's workers send, by tag.
type scalarCounter struct {
	mu    sync.Mutex
	sends map[string]int
}

func (c *scalarCounter) wrap(f transport.Fabric) transport.Fabric {
	return &countingFabric{Fabric: f, c: c}
}

func (c *scalarCounter) snapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.sends)
}

type countingFabric struct {
	transport.Fabric
	c *scalarCounter
}

func (f *countingFabric) Conduit(rank int) transport.Conduit {
	return &countingConduit{Conduit: f.Fabric.Conduit(rank), c: f.c}
}

type countingConduit struct {
	transport.Conduit
	c *scalarCounter
}

func (cc *countingConduit) SendScalar(dst int, tag string, v float64) {
	cc.c.mu.Lock()
	cc.c.sends[tag]++
	cc.c.mu.Unlock()
	cc.Conduit.SendScalar(dst, tag, v)
}

// TestSessionBoundaryIsOneExchange pins the step-boundary protocol on
// the configuration that used to run two rounds: an elastic, recovering
// TCP cluster under a cancellable context. Between Open and Close the
// only scalar frames on the fabric are each step's loss gather and ONE
// control-word gather per boundary — k steps cross k+1 boundaries (the
// last one agrees the stop).
func TestSessionBoundaryIsOneExchange(t *testing.T) {
	const steps = 6
	counter := &scalarCounter{sends: map[string]int{}}
	fabricSeam = counter.wrap
	defer func() { fabricSeam = nil }()

	root := t.TempDir()
	sessions, _ := elasticTCPCluster(t, 2, func(p int, dc *DistConfig) []Option {
		return elasticOpts(root)
	})
	before := counter.snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for p := range sessions {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for st, err := range sessions[p].Steps(ctx, data.NewZipfText(150, 8, 1, 1.0, 5)) {
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("agent %d: %v", p, err)
					}
					return
				}
				if p == 0 && st.Step == steps-1 {
					cancel()
				}
			}
		}(p)
	}
	waitElastic(t, &wg, "counted run")
	after := counter.snapshot()
	closeInTurn(sessions...)

	// One gather is one scalar from every worker to every other worker.
	workers := sessions[0].Workers()
	perGather := workers * (workers - 1)
	window := map[string]int{}
	for tag, n := range after {
		if d := n - before[tag]; d != 0 {
			window[tag] = d
		}
	}
	want := map[string]int{"loss": steps * perGather, "ctl": (steps + 1) * perGather}
	if len(window) != len(want) || window["loss"] != want["loss"] || window["ctl"] != want["ctl"] {
		t.Fatalf("scalar frames over %d steps = %v, want %v (one control exchange per boundary)", steps, window, want)
	}
}

// TestSessionStopBeatsProposalSameBoundary lands a leave proposal and a
// cancellation on the same step boundary: agent 2 asks to leave and
// agent 0 cancels after the same step. The stop flag outranks every
// proposal in the control word, so all three agents — the would-be
// leaver included — end with context.Canceled at that step and the
// membership is untouched.
func TestSessionStopBeatsProposalSameBoundary(t *testing.T) {
	const at = 3
	base := runtime.NumGoroutine()
	root := t.TempDir()
	sessions, _ := elasticTCPCluster(t, 3, func(p int, dc *DistConfig) []Option {
		return elasticOpts(root)
	})
	ctx0, cancel := context.WithCancel(context.Background())
	defer cancel()
	last := make([]int, 3)
	final := make([]error, 3)
	var wg sync.WaitGroup
	for p := range sessions {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ctx := context.Background()
			if p == 0 {
				ctx = ctx0
			}
			last[p] = -1
			for st, err := range sessions[p].Steps(ctx, data.NewZipfText(150, 8, 1, 1.0, 5)) {
				if err != nil {
					final[p] = err
					continue
				}
				last[p] = st.Step
				if st.Step != at {
					continue
				}
				switch p {
				case 0:
					cancel()
				case 2:
					if err := sessions[p].Leave(); err != nil {
						t.Errorf("Leave: %v", err)
					}
				}
			}
		}(p)
	}
	waitElastic(t, &wg, "stop vs leave")
	for p := range sessions {
		if !errors.Is(final[p], context.Canceled) {
			t.Fatalf("agent %d ended with %v, want context.Canceled", p, final[p])
		}
		if last[p] != at {
			t.Fatalf("agent %d stopped after step %d, want %d", p, last[p], at)
		}
		if got := len(sessions[p].Members()); got != 3 {
			t.Fatalf("agent %d sees %d members, want 3 (the stop must pre-empt the leave)", p, got)
		}
		if e := sessions[p].Epoch(); e != 0 {
			t.Fatalf("agent %d at epoch %d, want 0", p, e)
		}
	}
	closeInTurn(sessions...)
	waitSessionGoroutines(t, base)
}

// TestSessionFailedRebuildLeavesClosed: a rebuild that fails after it
// tore the live runtime down leaves the session closed — every later
// operation reports ErrClosed instead of touching a dead trainer. The
// failure is provoked through Resize: the optimizer constructor changes
// its mind after the save, so the rebuilt trainer refuses the
// checkpoint's momentum slots at install time.
func TestSessionFailedRebuildLeavesClosed(t *testing.T) {
	ctx := context.Background()
	base := runtime.NumGoroutine()
	plainSGD := false
	s, err := Open(ctx, buildAPIModel(8, 150), Uniform(2, 2), WithSparsePartitions(3), WithElastic(),
		WithOptimizer(func() Optimizer {
			if plainSGD {
				return NewSGD(0.3)
			}
			return NewMomentum(0.3, 0.9)
		}))
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewZipfText(150, 8, 1, 1.0, 5)
	runSteps(t, s, ds, 3, nil)

	// A refusal before the teardown leaves the session running.
	if err := s.Resize(ctx, ResourceInfo{}); err == nil {
		t.Fatal("Resize onto empty resources must fail")
	}
	runSteps(t, s, ds, 1, nil)

	plainSGD = true
	if err := s.Resize(ctx, Uniform(3, 2)); !errors.Is(err, ErrTopologyMismatch) {
		t.Fatalf("Resize with a mismatched optimizer: %v, want ErrTopologyMismatch", err)
	}
	if err := s.Save(t.TempDir()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Save after a failed rebuild: %v, want ErrClosed", err)
	}
	for _, err := range s.Steps(ctx, ds) {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Steps after a failed rebuild: %v, want ErrClosed", err)
		}
	}
	if err := s.Repartition(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Repartition after a failed rebuild: %v, want ErrClosed", err)
	}
	s.Close()
	waitSessionGoroutines(t, base)
}
