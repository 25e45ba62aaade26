package parallax

// Tests for the failure-recovery protocol (DESIGN.md §12): periodic
// auto-checkpoints, auto-resume on restart, and — the tentpole — a
// chaos-killed agent mid-run with both survivors recovering in place at
// the next fabric epoch, the loss trajectory staying bit-identical to
// an uninterrupted run, and every step emitted exactly once.

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"parallax/internal/checkpoint"
	"parallax/internal/data"
)

func TestFeedLogTrimAndRewind(t *testing.T) {
	ds := data.NewZipfText(150, 8, 1, 1.0, 5)
	l := &feedLog{saves: []int64{0}}
	var drawn []data.Batch
	for i := 0; i < 10; i++ {
		drawn = append(drawn, l.next(ds))
	}
	// Rewind to the start and replay: identical batches, no new draws.
	if err := l.rewindTo(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b := l.next(ds)
		if &b.Tokens[0] != &drawn[i].Tokens[0] {
			t.Fatalf("replayed batch %d is not the logged batch", i)
		}
	}
	// A save at cursor 4 then 8 trims everything before cursor 4 (the
	// second-most-recent save stays replayable).
	l.noteSave(4)
	l.noteSave(8)
	if l.base != 4 || len(l.entries) != 6 {
		t.Fatalf("after trims base %d entries %d, want 4 and 6", l.base, len(l.entries))
	}
	if err := l.rewindTo(4); err != nil {
		t.Fatal(err)
	}
	b := l.next(ds)
	if &b.Tokens[0] != &drawn[4].Tokens[0] {
		t.Fatal("rewind to the older save replays the wrong batch")
	}
	if err := l.rewindTo(3); err == nil {
		t.Fatal("rewind before the replay window must fail")
	}
	if err := l.rewindTo(11); err == nil {
		t.Fatal("rewind past the live position must fail")
	}
}

// TestSessionAutoCheckpointResume: a session with WithAutoCheckpoint
// saves periodically without any Save call; a fresh Open on the same
// root resumes from the latest complete save, and the continued run
// matches an uninterrupted one bit for bit.
// TestDialFabricEpochRetriesStayInsideDialTimeout: a restarting agent
// that is told its epoch is stale re-reads the root and redials, and
// one DialTimeout bounds the whole catch-up. Here the cluster's only
// other member answers the first handshake with the epoch-mismatch ack
// and then accepts without ever answering; the retry must still end
// within the 20 ms window (plus slack), not restart the rendezvous's
// 10 s default.
func TestDialFabricEpochRetriesStayInsideDialTimeout(t *testing.T) {
	root := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addrs := []string{ln.Addr().String(), "127.0.0.1:1"}
	if err := checkpoint.WriteMembers(root, &checkpoint.Membership{
		Epoch: 1, Parts: 1, Joiner: -1, Members: []checkpoint.Member{{Addr: addrs[0], GPUs: 1}, {Addr: addrs[1], GPUs: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; ; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			if i == 0 {
				c.Write([]byte{2}) // the epoch-mismatch ack
				c.Close()
			}
		}
	}()
	tgt := target{
		resource: Uniform(2, 1),
		dist:     &DistConfig{Machine: 1, Addrs: addrs, DialTimeout: 20 * time.Millisecond},
	}
	start := time.Now()
	fab, _, err := dialFabric(context.Background(), tgt, Config{AutoCheckpoint: AutoCheckpointSpec{Dir: root}})
	if fab != nil {
		fab.Close()
	}
	if !errors.Is(err, ErrEpochMismatch) && !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("err = %v, want ErrEpochMismatch or ErrPeerFailed", err)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("a 20ms DialTimeout ran for %v", since)
	}
}

func TestSessionAutoCheckpointResume(t *testing.T) {
	const every, total = 4, 10
	refLosses, refEmb := runSessionSteps(t, total, momentumOpts()...)

	root := t.TempDir()
	opts := append(momentumOpts(), WithAutoCheckpoint(root, every))
	s, err := Open(context.Background(), buildAPIModel(8, 150), Uniform(2, 2), opts...)
	if err != nil {
		t.Fatal(err)
	}
	for st, err := range s.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Step == total-1 {
			break
		}
	}
	s.Close()
	step, _, err := checkpoint.LatestComplete(root, 2)
	if err != nil || step != 8 {
		t.Fatalf("latest auto-save at step %d (err %v), want 8", step, err)
	}

	s2, err := Open(context.Background(), buildAPIModel(8, 150), Uniform(2, 2), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.StepCount() != 8 {
		t.Fatalf("auto-resumed StepCount = %d, want 8", s2.StepCount())
	}
	for st, err := range s2.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(st.Loss) != math.Float64bits(refLosses[st.Step]) {
			t.Fatalf("auto-resumed step %d loss %x, reference %x",
				st.Step, math.Float64bits(st.Loss), math.Float64bits(refLosses[st.Step]))
		}
		if st.Step == total-1 {
			break
		}
	}
	emb, err := s2.VarValue("embedding")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range refEmb {
		if math.Float32bits(emb.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("embedding[%d] diverged after auto-resume", i)
		}
	}
}

// recoveryTCPPair opens the two agents of a 2×2 TCP cluster with
// per-process option hooks (so one agent can carry the chaos spec).
func recoveryTCPPair(t *testing.T, perProc func(p int, dc *DistConfig) []Option) [2]*Session {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), "127.0.0.1:0"}
	var sessions [2]*Session
	oerrs := [2]error{}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			dc := DistConfig{Machine: p, Addrs: addrs, DialTimeout: 10 * time.Second}
			if p == 0 {
				dc.Listener = ln0
			}
			opts := perProc(p, &dc)
			sessions[p], oerrs[p] = Open(context.Background(), buildAPIModel(8, 150), Uniform(2, 2),
				append(opts, WithDistConfig(dc))...)
		}(p)
	}
	wg.Wait()
	for p, err := range oerrs {
		if err != nil {
			t.Fatalf("agent %d: %v", p, err)
		}
	}
	return sessions
}

// TestSessionChaosKillRecoversBitIdentical is the recovery tentpole: a
// chaos fault kills agent 1's fabric at step 6 of a 2-agent TCP run.
// Both agents recover in place — epoch bump, re-rendezvous, restore of
// the step-4 auto-checkpoint, feed-log replay — and the run continues.
// Every step is emitted exactly once per agent, the losses are
// bit-identical to an uninterrupted single-process run, and the stats
// report the recovery.
func TestSessionChaosKillRecoversBitIdentical(t *testing.T) {
	const every, total = 4, 12
	refLosses, _ := runSessionSteps(t, total, momentumOpts()...)

	base := runtime.NumGoroutine()
	root := t.TempDir()
	sessions := recoveryTCPPair(t, func(p int, dc *DistConfig) []Option {
		if p == 1 {
			dc.Chaos = "kill@6"
		}
		return append(momentumOpts(),
			WithAutoCheckpoint(root, every),
			WithRecovery(RecoveryPolicy{Enabled: true}))
	})

	type result struct {
		losses map[int]float64
		last   StepStats
		err    error
	}
	res := [2]result{}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := result{losses: map[int]float64{}}
			defer func() { res[p] = r }()
			for st, err := range sessions[p].Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
				if err != nil {
					r.err = err
					return
				}
				if _, dup := r.losses[st.Step]; dup {
					r.err = errDupStep(st.Step)
					return
				}
				r.losses[st.Step] = st.Loss
				r.last = st
				if st.Step == total-1 {
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("recovery did not complete")
	}

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
			t.Fatalf("agent %d recoveries = %d, want 1", p, n)
		}
		if e := sessions[p].Epoch(); e != 1 {
			t.Fatalf("agent %d epoch = %d, want 1", p, e)
		}
		if res[p].last.Epoch != 1 || res[p].last.RecoveryCount != 1 {
			t.Fatalf("agent %d final stats epoch %d recoveries %d, want 1 and 1",
				p, res[p].last.Epoch, res[p].last.RecoveryCount)
		}
		if d := sessions[p].LastRecoveryDuration(); d <= 0 {
			t.Fatalf("agent %d recovery duration %v, want > 0", p, d)
		}
	}
	if e, err := checkpoint.ReadEpoch(root); err != nil || e != 1 {
		t.Fatalf("recorded epoch %d (err %v), want 1", e, err)
	}
	requireRootRecord(t, root, 1, sessions[:]...)
	closeInTurn(sessions[:]...)
	waitSessionGoroutines(t, base)
}

// requireRootRecord checks the checkpoint root's one durable record of
// the cluster after a recovery or a membership change: MEMBERS holds
// the epoch every survivor runs at and lists their roster, and no EPOCH
// file sits beside it.
func requireRootRecord(t *testing.T, root string, epoch int, survivors ...*Session) {
	t.Helper()
	m, err := checkpoint.ReadMembers(root)
	if err != nil || m == nil {
		t.Fatalf("MEMBERS record %+v (err %v), want one", m, err)
	}
	if m.Epoch != epoch {
		t.Fatalf("MEMBERS at epoch %d, want %d", m.Epoch, epoch)
	}
	for i, s := range survivors {
		if s.Epoch() != m.Epoch || !slices.Equal(m.Addrs(), s.Members()) {
			t.Fatalf("MEMBERS lists %v at epoch %d; survivor %d runs %v at epoch %d",
				m.Addrs(), m.Epoch, i, s.Members(), s.Epoch())
		}
	}
	if _, err := os.Stat(filepath.Join(root, "EPOCH")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("root holds an EPOCH file (stat: %v); MEMBERS is the only record of the epoch", err)
	}
}

type errDupStep int

func (e errDupStep) Error() string { return "step emitted twice" }
