package parallax

// Tests for the context-first Session API: the streaming step iterator,
// cluster-synchronized cancellation, and checkpoint/restore with
// bit-identical resume — over the in-process fabric here and over TCP
// in TestSessionTCP*.

import (
	"context"
	"errors"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"parallax/internal/checkpoint"
	"parallax/internal/data"
)

// closeInTurn closes the agents of one in-process test cluster one
// after the other: Close waits for no peer, so the first to close
// returns while the rest are still open.
func closeInTurn(sessions ...*Session) {
	for _, s := range sessions {
		s.Close()
	}
}

// waitSessionGoroutines polls until the goroutine count settles near
// base (the persistent runtime fully unwound).
func waitSessionGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// momentumOpts is the option set the checkpoint tests train under:
// momentum exercises slot state on both the server (PS embedding) and
// replica (AllReduce projection) paths.
func momentumOpts() []Option {
	return []Option{
		WithSparsePartitions(3),
		WithOptimizer(func() Optimizer { return NewMomentum(0.3, 0.9) }),
	}
}

// runSessionSteps opens a session, drives it to totalSteps completed
// steps, and returns the per-step losses indexed by absolute step.
func runSessionSteps(t *testing.T, totalSteps int, opts ...Option) ([]float64, []float32) {
	t.Helper()
	g := buildAPIModel(8, 150)
	s, err := Open(context.Background(), g, Uniform(2, 2), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	losses := make([]float64, totalSteps)
	for st, err := range s.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		losses[st.Step] = st.Loss
		if st.Step == totalSteps-1 {
			break
		}
	}
	emb, err := s.VarValue("embedding")
	if err != nil {
		t.Fatal(err)
	}
	return losses, emb.Data()
}

// TestSessionCheckpointResumeBitIdentical is the tentpole acceptance
// check on the in-process fabric: a run saved at step k and restored
// continues with per-step losses (and final variable bits) equal to an
// uninterrupted run's, momentum slot state included.
func TestSessionCheckpointResumeBitIdentical(t *testing.T) {
	const saveAt, total = 4, 10
	refLosses, refEmb := runSessionSteps(t, total, momentumOpts()...)

	dir := t.TempDir()
	g := buildAPIModel(8, 150)
	s, err := Open(context.Background(), g, Uniform(2, 2), momentumOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for st, err := range s.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(st.Loss) != math.Float64bits(refLosses[st.Step]) {
			t.Fatalf("pre-save step %d diverged", st.Step)
		}
		if st.Step == saveAt-1 {
			break
		}
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()

	g2 := buildAPIModel(8, 150)
	s2, err := OpenFromCheckpoint(context.Background(), dir, g2, Uniform(2, 2), momentumOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.StepCount() != saveAt {
		t.Fatalf("restored StepCount = %d, want %d", s2.StepCount(), saveAt)
	}
	sawFirst := false
	for st, err := range s2.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		if !sawFirst {
			sawFirst = true
			if st.Step != saveAt {
				t.Fatalf("resume started at step %d, want %d", st.Step, saveAt)
			}
		}
		if math.Float64bits(st.Loss) != math.Float64bits(refLosses[st.Step]) {
			t.Fatalf("resumed step %d loss %x, uninterrupted %x",
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
			t.Fatalf("embedding[%d] %x after resume, want %x",
				i, math.Float32bits(emb.Data()[i]), math.Float32bits(v))
		}
	}
}

// TestSessionCheckpointValidation: restores that cannot be correct are
// refused with the typed sentinels — wrong cluster shape, wrong
// architecture (plan fingerprint), wrong optimizer (slot state), and a
// checkpoint from a future format version.
func TestSessionCheckpointValidation(t *testing.T) {
	dir := t.TempDir()
	g := buildAPIModel(8, 150)
	s, err := Open(context.Background(), g, Uniform(2, 2), momentumOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, err := range s.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 2 {
			break
		}
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()

	open := func(res ResourceInfo, opts ...Option) error {
		_, err := OpenFromCheckpoint(context.Background(), dir, buildAPIModel(8, 150), res, opts...)
		return err
	}
	if err := open(Uniform(2, 3), momentumOpts()...); !errors.Is(err, ErrTopologyMismatch) {
		t.Fatalf("wrong GPU count: err = %v, want ErrTopologyMismatch", err)
	}
	if err := open(Uniform(2, 2), append(momentumOpts(), WithArch(AllReduceOnly))...); !errors.Is(err, ErrTopologyMismatch) {
		t.Fatalf("wrong architecture: err = %v, want ErrTopologyMismatch", err)
	}
	if err := open(Uniform(2, 2), WithSparsePartitions(3)); !errors.Is(err, ErrTopologyMismatch) {
		t.Fatalf("wrong optimizer (no slots): err = %v, want ErrTopologyMismatch", err)
	}
	// Corrupt the format version byte of shard 0.
	path := dir + "/machine-0.ckpt"
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[7] = 99
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := open(Uniform(2, 2), momentumOpts()...); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("future version: err = %v, want ErrCheckpointVersion", err)
	}
}

// TestSessionCancelMidLoop: cancelling the Steps context ends the
// iterator at the next step boundary with the context error, and
// closing the session afterwards leaks no goroutines under -race.
func TestSessionCancelMidLoop(t *testing.T) {
	base := runtime.NumGoroutine()
	g := buildAPIModel(8, 150)
	s, err := Open(context.Background(), g, Uniform(2, 2), WithSparsePartitions(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps int
	var sawErr error
	for st, err := range s.Steps(ctx, data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			sawErr = err
			continue // the iterator must stop on its own after an error
		}
		steps++
		if st.Step == 2 {
			cancel()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator ended with %v, want context.Canceled", sawErr)
	}
	if steps != 3 {
		t.Fatalf("ran %d steps after cancel at step 2, want 3 (cancel returns within one step)", steps)
	}
	s.Close()
	waitSessionGoroutines(t, base)
}

// TestSessionClosedErrors: every post-Close operation fails fast with
// ErrClosed (errors.Is), including a second loop.
func TestSessionClosedErrors(t *testing.T) {
	g := buildAPIModel(8, 150)
	s, err := Open(context.Background(), g, Uniform(2, 2), WithSparsePartitions(3))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent

	for _, err := range s.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Steps after Close: err = %v, want ErrClosed", err)
		}
	}
	if err := s.Save(t.TempDir()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Save after Close: err = %v, want ErrClosed", err)
	}
	for _, err := range s.StepsFeeds(context.Background(), func(int, int) (Feed, error) { return Feed{}, nil }) {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("StepsFeeds after Close: err = %v, want ErrClosed", err)
		}
	}
	if err := s.Repartition(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Repartition after Close: err = %v, want ErrClosed", err)
	}
}

// TestSessionSearchedPartitionCheckpoint: a checkpoint taken after the
// partition search settles records the decision; the restored session
// runs at the searched P without searching again, and — because live
// resharding is lossless — its losses match an uninterrupted searching
// run bit for bit even though the two runs' probe sequences measured
// different wall-clock times.
func TestSessionSearchedPartitionCheckpoint(t *testing.T) {
	const saveAt, total = 18, 22 // the search consumes at most 5 probes × 3 steps
	refLosses, _ := runSessionSteps(t, total)

	dir := t.TempDir()
	g := buildAPIModel(8, 150)
	s, err := Open(context.Background(), g, Uniform(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for st, err := range s.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Step == saveAt-1 {
			break
		}
	}
	d := s.PartitionDecision()
	if d.Pending || d.Source != "online" {
		t.Fatalf("decision before save = %+v, want settled online", d)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenFromCheckpoint(context.Background(), dir, buildAPIModel(8, 150), Uniform(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d2 := s2.PartitionDecision()
	if d2.Pending || d2.P != d.P || s2.SparsePartitions() != d.P {
		t.Fatalf("restored decision %+v, saved was %+v", d2, d)
	}
	for st, err := range s2.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(st.Loss) != math.Float64bits(refLosses[st.Step]) {
			t.Fatalf("resumed step %d loss %x, uninterrupted %x",
				st.Step, math.Float64bits(st.Loss), math.Float64bits(refLosses[st.Step]))
		}
		if st.Step == total-1 {
			break
		}
	}
	if d3 := s2.PartitionDecision(); d3 != d2 {
		t.Fatalf("restored session searched again: %+v, restored as %+v", d3, d2)
	}
}

// TestSessionRestoresRecordedDecision: what a restore does about the
// partition count is read from the checkpoint alone. A settled decision
// — including the "simulated" source older checkpoints carry — reopens
// at its recorded count with no search; a decision saved while the
// search was still pending resumes the search in the first loop.
func TestSessionRestoresRecordedDecision(t *testing.T) {
	const parts = 5
	dir := t.TempDir()
	s := openSession(t, buildAPIModel(8, 150), Uniform(2, 2), WithSparsePartitions(parts))
	runSteps(t, s, data.NewZipfText(150, 8, 1, 1.0, 5), 2, nil)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()

	reopenAs := func(source string, pending bool) *Session {
		for m := range 2 {
			meta, recs, err := checkpoint.ReadShard(dir, m)
			if err != nil {
				t.Fatal(err)
			}
			meta.DecisionSource, meta.DecisionPending = source, pending
			if err := checkpoint.WriteShard(dir, meta, recs); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenFromCheckpoint(context.Background(), dir, buildAPIModel(8, 150), Uniform(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	settled := reopenAs("simulated", false)
	defer settled.Close()
	want := PartitionDecision{P: parts, Source: "simulated"}
	if d := settled.PartitionDecision(); d != want {
		t.Fatalf("restored decision = %+v, want %+v", d, want)
	}
	runSteps(t, settled, data.NewZipfText(150, 8, 1, 1.0, 5), 3, nil)
	if d := settled.PartitionDecision(); d != want || settled.SparsePartitions() != parts {
		t.Fatalf("settled checkpoint searched: decision %+v at P=%d", d, settled.SparsePartitions())
	}

	pending := reopenAs("online", true)
	defer pending.Close()
	if d := pending.PartitionDecision(); !d.Pending || d.P != parts {
		t.Fatalf("restored decision = %+v, want pending at P=%d", d, parts)
	}
	runSteps(t, pending, data.NewZipfText(150, 8, 1, 1.0, 5), 16, nil)
	if d := pending.PartitionDecision(); d.Pending || d.Source != "online" || d.Search == nil {
		t.Fatalf("decision after the first loop = %+v, want a settled search", d)
	}
}

// sessionTCPPair opens the two agents of a 2-machine × 2-GPU cluster
// over TCP on loopback, each built from an identical graph.
func sessionTCPPair(t *testing.T, opts ...Option) [2]*Session {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), "127.0.0.1:0"}
	var sessions [2]*Session
	errs := [2]error{}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			dc := DistConfig{Machine: p, Addrs: addrs, DialTimeout: 10 * time.Second}
			if p == 0 {
				dc.Listener = ln0
			}
			sessions[p], errs[p] = Open(context.Background(), buildAPIModel(8, 150), Uniform(2, 2),
				append(append([]Option{}, opts...), WithDistConfig(dc))...)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", p, err)
		}
	}
	return sessions
}

// TestSessionTCPCancelAgreed: with cancellable contexts, one agent's
// cancellation ends BOTH agents' iterators at the same step boundary
// (cluster-agreed stop), both sessions close cleanly, and no goroutines
// leak.
func TestSessionTCPCancelAgreed(t *testing.T) {
	base := runtime.NumGoroutine()
	sessions := sessionTCPPair(t, WithSparsePartitions(3))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lastStep := [2]int{-1, -1}
	finalErr := [2]error{}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for st, err := range sessions[p].Steps(ctx, data.NewZipfText(150, 8, 1, 1.0, 5)) {
				if err != nil {
					finalErr[p] = err
					continue
				}
				lastStep[p] = st.Step
				// Only agent 0 cancels; agent 1 must stop via the agreement.
				if p == 0 && st.Step == 2 {
					cancel()
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("agreed cancellation did not end both loops")
	}
	for p := 0; p < 2; p++ {
		if !errors.Is(finalErr[p], context.Canceled) {
			t.Fatalf("agent %d ended with %v, want context.Canceled", p, finalErr[p])
		}
	}
	if lastStep[0] != lastStep[1] {
		t.Fatalf("agents stopped at different steps: %d vs %d", lastStep[0], lastStep[1])
	}
	closeInTurn(sessions[:]...)
	waitSessionGoroutines(t, base)
}

// TestSessionCloseWaitsForNoPeer pins the shutdown protocol (DESIGN.md
// §8): the agents of a TCP pair close one after the other, each Close
// returns promptly with the peer still open, and what the still-open
// peer gets from its next collective is an ErrPeerFailed naming the
// departed machine — from the goodbye, well inside the 10 s heartbeat
// window — never a hang.
func TestSessionCloseWaitsForNoPeer(t *testing.T) {
	base := runtime.NumGoroutine()
	sessions := sessionTCPPair(t, WithSparsePartitions(3))
	ds := data.NewZipfText(150, 8, 1, 1.0, 5)
	feedsFor := func() []Feed {
		feeds := make([]Feed, sessions[0].Workers())
		for w := range feeds {
			b := ds.Next()
			feeds[w] = Feed{Ints: map[string][]int{"tokens": b.Tokens, "labels": b.Labels}}
		}
		return feeds
	}
	const steps = 3
	for s := 0; s < steps; s++ {
		feeds := feedsFor()
		var wg sync.WaitGroup
		for p := range sessions {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				if _, err := sessions[p].trainer.Step(feeds); err != nil {
					t.Errorf("agent %d step %d: %v", p, s, err)
				}
			}(p)
		}
		wg.Wait()
	}
	if t.Failed() {
		t.FailNow()
	}

	const prompt = 2 * time.Second
	start := time.Now()
	sessions[0].Close()
	if d := time.Since(start); d > prompt {
		t.Fatalf("the first Close took %v with its peer still open", d)
	}
	if n := sessions[1].StepCount(); n != steps {
		t.Fatalf("the still-open agent is at step %d, want %d", n, steps)
	}
	start = time.Now()
	_, err := sessions[1].trainer.Step(feedsFor())
	var pf *PeerFailure
	if !errors.Is(err, ErrPeerFailed) || !errors.As(err, &pf) || pf.Rank != 0 {
		t.Fatalf("step against a departed peer returned %v, want ErrPeerFailed naming machine 0", err)
	}
	if d := time.Since(start); d > prompt {
		t.Fatalf("the departure took %v to surface", d)
	}
	start = time.Now()
	sessions[1].Close()
	if d := time.Since(start); d > prompt {
		t.Fatalf("the second Close took %v", d)
	}
	waitSessionGoroutines(t, base)
}

// TestSessionTCPCheckpointResume is the cross-fabric half of the
// tentpole acceptance: two TCP agents save at step k (each writing its
// machine's shard), fresh agents restore from the same directory, and
// the continued run matches the uninterrupted single-process run bit
// for bit.
func TestSessionTCPCheckpointResume(t *testing.T) {
	const saveAt, total = 4, 8
	refLosses, refEmb := runSessionSteps(t, total, momentumOpts()...)
	dir := t.TempDir()

	phase := func(restore bool, from, to int) {
		var sessions [2]*Session
		if restore {
			ln0, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs := []string{ln0.Addr().String(), "127.0.0.1:0"}
			errs := [2]error{}
			var wg sync.WaitGroup
			for p := 0; p < 2; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					dc := DistConfig{Machine: p, Addrs: addrs, DialTimeout: 10 * time.Second}
					if p == 0 {
						dc.Listener = ln0
					}
					sessions[p], errs[p] = OpenFromCheckpoint(context.Background(), dir,
						buildAPIModel(8, 150), Uniform(2, 2),
						append(momentumOpts(), WithDistConfig(dc))...)
				}(p)
			}
			wg.Wait()
			for p, err := range errs {
				if err != nil {
					t.Fatalf("restore agent %d: %v", p, err)
				}
			}
		} else {
			sessions = sessionTCPPair(t, momentumOpts()...)
		}
		var wg sync.WaitGroup
		agentErr := [2]error{}
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				s := sessions[p]
				defer s.Close()
				first := true
				for st, err := range s.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
					if err != nil {
						agentErr[p] = err
						return
					}
					if first && st.Step != from {
						agentErr[p] = errors.New("wrong resume step")
						return
					}
					first = false
					if math.Float64bits(st.Loss) != math.Float64bits(refLosses[st.Step]) {
						t.Errorf("agent %d step %d loss %x, reference %x",
							p, st.Step, math.Float64bits(st.Loss), math.Float64bits(refLosses[st.Step]))
						return
					}
					if st.Step == to-1 {
						break
					}
				}
				if err := s.Save(dir); err != nil {
					agentErr[p] = err
					return
				}
				if !restore {
					return
				}
				emb, err := s.VarValue("embedding")
				if err != nil {
					agentErr[p] = err
					return
				}
				for i, v := range refEmb {
					if math.Float32bits(emb.Data()[i]) != math.Float32bits(v) {
						t.Errorf("agent %d embedding[%d] diverged after resume", p, i)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		for p, err := range agentErr {
			if err != nil {
				t.Fatalf("agent %d: %v", p, err)
			}
		}
	}
	phase(false, 0, saveAt)    // run to k over TCP, save shards
	phase(true, saveAt, total) // restart both agents from the checkpoint
}
