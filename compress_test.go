package parallax

// Tests for the wire-compression subsystem (DESIGN.md §11): policy
// parsing, loss tolerance under lossy codecs, bit-identity across
// fabrics, the wire-byte reductions on a real TCP run, and
// checkpoint/restore of error-feedback residuals.

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"parallax/internal/data"
)

func TestParseCompression(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "none"},
		{"none", "none"},
		{"f16", CompressionF16().Fingerprint()},
		{"bf16", CompressionBF16().Fingerprint()},
		{"topk", CompressionTopK(0.1).Fingerprint()},
		{"topk=0.25", CompressionTopK(0.25).Fingerprint()},
	}
	for _, c := range cases {
		p, err := ParseCompression(c.in)
		if err != nil {
			t.Fatalf("ParseCompression(%q): %v", c.in, err)
		}
		if fp := p.Fingerprint(); fp != c.want {
			t.Fatalf("ParseCompression(%q) = %q, want %q", c.in, fp, c.want)
		}
	}
	for _, bad := range []string{"zstd", "topk=0", "topk=1.5", "topk=x", "f8"} {
		if _, err := ParseCompression(bad); err == nil {
			t.Fatalf("ParseCompression(%q) accepted", bad)
		}
	}
}

// TestCompressionInvalidPolicyRejected: Open fails early on a malformed
// policy instead of training with it.
func TestCompressionInvalidPolicyRejected(t *testing.T) {
	_, err := Open(context.Background(), buildAPIModel(8, 150), Uniform(2, 2),
		WithSparsePartitions(3), WithCompression(CompressionPolicy{TopK: 2}))
	if err == nil {
		t.Fatal("TopK=2 accepted")
	}
}

// runCompressedSteps drives a single-process 2x2 hybrid session for
// totalSteps under the given policy and returns per-step losses.
func runCompressedSteps(t *testing.T, totalSteps int, policy CompressionPolicy, extra ...Option) []float64 {
	t.Helper()
	opts := append([]Option{WithSparsePartitions(3), WithCompression(policy)}, extra...)
	losses, _ := runSessionSteps(t, totalSteps, opts...)
	return losses
}

// TestCompressedLossTolerance: training under each lossy policy tracks
// the exact-f32 run closely — the loss after 10 steps stays within a
// pinned relative tolerance. (CompressionNone is the zero policy — the
// default every bit-identity suite runs under — so its exactness is
// pinned by those.)
func TestCompressedLossTolerance(t *testing.T) {
	const steps = 10
	ref := runCompressedSteps(t, steps, CompressionNone)
	for _, c := range []struct {
		name   string
		policy CompressionPolicy
		tol    float64
	}{
		{"f16", CompressionF16(), 0.01},
		{"bf16", CompressionBF16(), 0.05},
		{"topk10", CompressionTopK(0.1), 0.10},
	} {
		losses := runCompressedSteps(t, steps, c.policy)
		got, want := losses[steps-1], ref[steps-1]
		if rel := math.Abs(got-want) / math.Abs(want); rel > c.tol {
			t.Errorf("%s: loss %.6f vs exact %.6f (rel %.4f > tol %.4f)",
				c.name, got, want, rel, c.tol)
		}
	}
}

// TestCompressedBitIdenticalAcrossFabrics is the core invariant of the
// compression design: the lossy transforms run in the data plane at
// fabric-symmetric points, so a compressed job trains bit-identically
// in one process and across TCP agents. Exercised under the most
// aggressive policy (top-k + f16 + delta), which covers every
// compressed frame kind on the wire.
func TestCompressedBitIdenticalAcrossFabrics(t *testing.T) {
	const steps = 6
	policy := CompressionTopK(0.1)
	ref := runCompressedSteps(t, steps, policy, WithOptimizer(func() Optimizer { return NewMomentum(0.3, 0.9) }))

	sessions := sessionTCPPair(t, WithSparsePartitions(3), WithCompression(policy),
		WithOptimizer(func() Optimizer { return NewMomentum(0.3, 0.9) }))
	runTCPAgents(t, sessions, steps, ref)
}

// runTCPAgents drives both agents for `steps` steps and checks every
// loss bitwise against ref; sessions are closed on return.
func runTCPAgents(t *testing.T, sessions [2]*Session, steps int, ref []float64) {
	t.Helper()
	done := make(chan error, 2)
	for p := 0; p < 2; p++ {
		go func(p int) {
			s := sessions[p]
			defer s.Close()
			for st, err := range s.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
				if err != nil {
					done <- err
					return
				}
				if math.Float64bits(st.Loss) != math.Float64bits(ref[st.Step]) {
					t.Errorf("agent %d step %d loss %x, inproc %x",
						p, st.Step, math.Float64bits(st.Loss), math.Float64bits(ref[st.Step]))
					done <- nil
					return
				}
				if st.Step == steps-1 {
					break
				}
			}
			done <- nil
		}(p)
	}
	for p := 0; p < 2; p++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// buildWideModel is the hybrid LM with a dense trunk wide enough that
// fusion-bucket AllReduce traffic dominates the wire — the regime the
// top-k reduction claim is about. The embedding stays sparse on the PS
// path so every route class still carries traffic.
func buildWideModel(batch, vocab int) *Graph {
	rng := NewRNG(17)
	g := NewGraph()
	tokens := g.Input("tokens", Int, batch)
	labels := g.Input("labels", Int, batch)
	var emb *Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, vocab, 8))
	})
	w1 := g.Variable("w1", rng.RandN(0.1, 8, 256))
	w2 := g.Variable("w2", rng.RandN(0.1, 256, 256))
	w3 := g.Variable("w3", rng.RandN(0.1, 256, vocab))
	h := g.MatMul(g.Gather(emb, tokens), w1)
	h = g.MatMul(h, w2)
	g.SoftmaxCE(g.MatMul(h, w3), labels)
	return g
}

// wideTCPPair is sessionTCPPair over buildWideModel.
func wideTCPPair(t *testing.T, opts ...Option) [2]*Session {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), "127.0.0.1:0"}
	var sessions [2]*Session
	var errs [2]error
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			dc := DistConfig{Machine: p, Addrs: addrs, DialTimeout: 10 * time.Second}
			if p == 0 {
				dc.Listener = ln0
			}
			sessions[p], errs[p] = Open(context.Background(), buildWideModel(8, 150), Uniform(2, 2),
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

// TestCompressedWireReduction runs the wide hybrid LM over real TCP
// agents under each policy and checks the wire wins the subsystem
// exists for: f16 halves the compressed frames' payloads (ratio ~2x,
// counted by the raw-vs-compressed accounting) and top-k at 10% cuts
// the TOTAL bytes on the wire — pulls, headers, everything — by at
// least 3x against the uncompressed run. The bar divides by the exact
// run, which crosses the machine link once per AllReduce (2(M−1)·w, not
// every GPU's share): that alone took the measured ratio from 5.8x to
// 3.3x, and internal/collective's TestAllReduceCrossesTheMachineLinkOnce
// pins the exact path's bytes.
func TestCompressedWireReduction(t *testing.T) {
	const steps = 4
	run := func(policy CompressionPolicy) (sent, raw, comp int64) {
		sessions := wideTCPPair(t, WithSparsePartitions(3), WithCompression(policy))
		done := make(chan error, 2)
		var agg [2]LoopStats
		for p := 0; p < 2; p++ {
			go func(p int) {
				s := sessions[p]
				defer s.Close()
				for st, err := range s.Steps(context.Background(), data.NewZipfText(150, 8, 1, 1.0, 5)) {
					if err != nil {
						done <- err
						return
					}
					agg[p].Observe(st)
					if st.Step == steps-1 {
						break
					}
				}
				done <- nil
			}(p)
		}
		for p := 0; p < 2; p++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < 2; p++ {
			sent += agg[p].TotalWireSent
			raw += agg[p].TotalWireRaw
			comp += agg[p].TotalWireCompressed
		}
		return sent, raw, comp
	}

	noneSent, noneRaw, noneComp := run(CompressionNone)
	if noneRaw != 0 || noneComp != 0 {
		t.Fatalf("CompressionNone produced compression accounting: raw %d comp %d", noneRaw, noneComp)
	}
	if noneSent == 0 {
		t.Fatal("no wire traffic measured")
	}

	f16Sent, f16Raw, f16Comp := run(CompressionF16())
	if f16Comp == 0 {
		t.Fatal("f16 run compressed nothing")
	}
	// Payload reduction over compressed frames: 4 -> 2 bytes per value,
	// diluted only by frame headers and varint index savings.
	if ratio := float64(f16Raw) / float64(f16Comp); ratio < 1.9 {
		t.Errorf("f16 payload ratio %.2fx, want ~2x", ratio)
	}
	if f16Sent >= noneSent {
		t.Errorf("f16 total wire %d not below uncompressed %d", f16Sent, noneSent)
	}

	topkSent, _, topkComp := run(CompressionTopK(0.1))
	if topkComp == 0 {
		t.Fatal("topk run compressed nothing")
	}
	if ratio := float64(noneSent) / float64(topkSent); ratio < 3 {
		t.Errorf("topk total wire reduction %.2fx (sent %d vs %d), want >= 3x",
			ratio, topkSent, noneSent)
	} else {
		t.Logf("topk wire reduction: %.2fx (%d -> %d bytes), f16: %.2fx payload",
			ratio, noneSent, topkSent, float64(f16Raw)/float64(f16Comp))
	}
}

// TestCompressedCheckpointResume: a top-k run saved mid-stream restores
// bit-identically — which requires the error-feedback residuals to
// round-trip through the checkpoint, since after the save point every
// worker's selection depends on them.
func TestCompressedCheckpointResume(t *testing.T) {
	const saveAt, total = 4, 10
	policy := CompressionTopK(0.1)
	opts := []Option{
		WithSparsePartitions(3), WithCompression(policy),
		WithOptimizer(func() Optimizer { return NewMomentum(0.3, 0.9) }),
	}
	refLosses, _ := runSessionSteps(t, total, opts...)

	dir := t.TempDir()
	s, err := Open(context.Background(), buildAPIModel(8, 150), Uniform(2, 2), opts...)
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
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenFromCheckpoint(context.Background(), dir, buildAPIModel(8, 150), Uniform(2, 2), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
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
}

// TestCompressedCheckpointPolicyMismatch: a checkpoint can only be
// restored under the policy that wrote it, in both directions, with the
// typed sentinel.
func TestCompressedCheckpointPolicyMismatch(t *testing.T) {
	runTo := func(dir string, opts ...Option) {
		t.Helper()
		s, err := Open(context.Background(), buildAPIModel(8, 150), Uniform(2, 2), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
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
	}
	reopen := func(dir string, opts ...Option) error {
		_, err := OpenFromCheckpoint(context.Background(), dir, buildAPIModel(8, 150), Uniform(2, 2), opts...)
		return err
	}

	// Compressed checkpoint, uncompressed (and differently compressed) restores.
	dirTopK := t.TempDir()
	runTo(dirTopK, WithSparsePartitions(3), WithCompression(CompressionTopK(0.1)))
	if err := reopen(dirTopK, WithSparsePartitions(3)); !errors.Is(err, ErrCompressionMismatch) {
		t.Fatalf("topk checkpoint, none restore: err = %v, want ErrCompressionMismatch", err)
	}
	if err := reopen(dirTopK, WithSparsePartitions(3), WithCompression(CompressionF16())); !errors.Is(err, ErrCompressionMismatch) {
		t.Fatalf("topk checkpoint, f16 restore: err = %v, want ErrCompressionMismatch", err)
	}
	if err := reopen(dirTopK, WithSparsePartitions(3), WithCompression(CompressionTopK(0.1))); err != nil {
		t.Fatalf("matching restore failed: %v", err)
	}

	// Uncompressed checkpoint, compressed restore.
	dirNone := t.TempDir()
	runTo(dirNone, WithSparsePartitions(3))
	if err := reopen(dirNone, WithSparsePartitions(3), WithCompression(CompressionF16())); !errors.Is(err, ErrCompressionMismatch) {
		t.Fatalf("none checkpoint, f16 restore: err = %v, want ErrCompressionMismatch", err)
	}
}
