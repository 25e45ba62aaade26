package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"parallax/internal/errs"
	"parallax/internal/tensor"
)

// TestCompressedFrameSizes pins the wire wins the codecs exist for —
// half-precision frames carry 2 bytes/value and the top-k frame is far
// smaller than the dense chunk it replaces — and the sizes of the exact
// frames every step sends, as measured before exact f32 became the
// CodecF32 instance of the one grammar: carrying the codec must not cost
// header bytes, or wire_bytes_per_step creeps.
func TestCompressedFrameSizes(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(i)
	}
	tensor.QuantizeF16(data)
	raw := appendMessage(nil, 0, 1, message{tag: "x", kind: kindF32, f32: data})
	half := appendMessage(nil, 0, 1, message{tag: "x", kind: kindF32, codec: CodecF16, f32: data})
	if want := len(raw) - 2*len(data); len(half) != want {
		t.Fatalf("f16 frame is %d bytes, want %d", len(half), want)
	}
	if est := rawFrameBytes(message{tag: "x", kind: kindF32, codec: CodecF16, f32: data}, len(half)); est != len(raw) {
		t.Fatalf("rawFrameBytes of the f16 frame = %d, want %d", est, len(raw))
	}
	ch := topkChunk()
	m := message{tag: "x", kind: kindF32Sparse, codec: ch.Codec, topk: &ch}
	sp := appendMessage(nil, 0, 1, m)
	if est := rawFrameBytes(m, len(sp)); est != 2+2+1+1+1+4+4*ch.Len {
		t.Fatalf("rawFrameBytes = %d", est)
	}
	if len(sp)*5 > rawFrameBytes(m, len(sp)) {
		t.Fatalf("top-k frame %d bytes vs %d dense: less than 5x", len(sp), rawFrameBytes(m, len(sp)))
	}

	for name, c := range map[string]struct {
		m    message
		want int
	}{
		"f32 chunk": {message{tag: "x", kind: kindF32, f32: data}, 4011},
		"scalar":    {message{tag: "loss", kind: kindScalar, scalar: 1}, 18},
		"ps pull request": {psMessage(&PSMsg{Op: PSPullMany, Version: 7,
			Names: []string{"embedding", "embedding"}, Parts: []int{0, 3}}), 65},
		"ps pull reply": {psMessage(&PSMsg{Op: PSReply,
			Dense: []*tensor.Dense{tensor.NewDense(6), tensor.NewDense(3)}}), 81},
		// The same request asking for 3 + 1 rows, and its reply at width 2:
		// a count and one or two bytes a row out, the rows' values back.
		"ps row pull request": {psMessage(&PSMsg{Op: PSPullMany, Version: 7,
			Names: []string{"embedding", "embedding"}, Parts: []int{0, 3},
			Rows: [][]int{{1, 5, 200}, {7}}}), 78},
		"ps row pull reply": {psMessage(&PSMsg{Op: PSReply,
			Dense: []*tensor.Dense{tensor.NewDense(3, 2), tensor.NewDense(1, 2)}}), 77},
	} {
		if got := len(appendMessage(nil, 0, 1, c.m)); got != c.want {
			t.Errorf("exact %s frame is %d bytes, want %d", name, got, c.want)
		}
	}
}

// TestPolicyFingerprintAndValidate pins the four presets' fingerprints:
// the TCP handshake compares them and compressed checkpoints record
// them, so they must keep rendering what earlier builds wrote.
func TestPolicyFingerprintAndValidate(t *testing.T) {
	for want, p := range map[string]Policy{
		"none": {},
		"dense=f16,topk=0,psdense=f16,pssparse=f16,delta=true":    {Codec: CodecF16},
		"dense=bf16,topk=0,psdense=bf16,pssparse=bf16,delta=true": {Codec: CodecBF16},
		"dense=f16,topk=0.1,psdense=f16,pssparse=f16,delta=true":  {Codec: CodecF16, TopK: 0.1},
	} {
		if fp := p.Fingerprint(); fp != want {
			t.Errorf("fingerprint of %+v = %q, want %q", p, fp, want)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
		if p.Enabled() != (want != "none") {
			t.Errorf("%+v: Enabled() = %t", p, p.Enabled())
		}
	}
	if err := (Policy{TopK: 1.5}).Validate(); err == nil {
		t.Fatal("TopK 1.5 validated")
	}
	if err := (Policy{Codec: Codec(9)}).Validate(); err == nil {
		t.Fatal("unknown codec validated")
	}
	if !(Policy{TopK: 0.5}).Enabled() {
		t.Fatal("top-k-only policy not enabled")
	}
}

// exchangeCompressed sends one half-precision chunk and one top-k chunk
// from a to b (and back), checking bit-exact delivery of on-grid data.
func exchangeCompressed(t *testing.T, a, b Conduit) {
	t.Helper()
	data := onGrid()
	ch := topkChunk()
	var wg sync.WaitGroup
	wg.Add(2)
	for _, pair := range [][2]Conduit{{a, b}, {b, a}} {
		go func(src, dst Conduit) {
			defer wg.Done()
			src.SendF32C(dst.Rank(), "half", data, CodecF16)
			src.SendF32Sparse(dst.Rank(), "topk", ch)
		}(pair[0], pair[1])
	}
	for _, pair := range [][2]Conduit{{a, b}, {b, a}} {
		src, dst := pair[0], pair[1]
		got := dst.RecvF32(src.Rank(), "half")
		if !sameF32s(got, data) {
			t.Fatalf("half-precision chunk changed: %v vs %v", got, data)
		}
		dst.PutBuf(got)
		gotCh := dst.RecvF32Sparse(src.Rank(), "topk")
		if gotCh.Len != ch.Len || gotCh.Codec != ch.Codec ||
			len(gotCh.Idx) != len(ch.Idx) || !sameF32s(gotCh.Vals, ch.Vals) {
			t.Fatalf("top-k chunk changed: %+v vs %+v", gotCh, ch)
		}
		for i := range ch.Idx {
			if gotCh.Idx[i] != ch.Idx[i] {
				t.Fatalf("top-k index %d changed", i)
			}
		}
	}
	wg.Wait()
}

func TestCompressedExchangeTCPAndAccounting(t *testing.T) {
	f0, f1 := dialPair(t, twoMachineTopo())
	exchangeCompressed(t, f0.Conduit(0), f1.Conduit(1))
	s := f0.Stats()
	if s.SentBytesCompressed <= 0 || s.SentBytesRaw <= s.SentBytesCompressed {
		t.Fatalf("compression accounting: raw %d, compressed %d", s.SentBytesRaw, s.SentBytesCompressed)
	}
	// The classic counters still cover everything that hit the wire.
	if s.SentBytes < s.SentBytesCompressed {
		t.Fatalf("SentBytes %d < compressed %d", s.SentBytes, s.SentBytesCompressed)
	}
	// Uncompressed sends leave the compression counters untouched.
	before := f0.Stats()
	f0.Conduit(0).SendF32(1, "plain", onGrid())
	got := f1.Conduit(1).RecvF32(0, "plain")
	f1.Conduit(1).PutBuf(got)
	after := f0.Stats()
	if after.SentBytesRaw != before.SentBytesRaw || after.SentBytesCompressed != before.SentBytesCompressed {
		t.Fatal("uncompressed frame moved the compression counters")
	}
	if after.SentBytes == before.SentBytes {
		t.Fatal("uncompressed frame not counted at all")
	}
}

// TestTCPCompressionPolicyMismatch: two agents configured with different
// wire-compression policies must refuse the rendezvous on both sides
// with ErrCompressionMismatch — a deployment error caught before any
// training state diverges.
func TestTCPCompressionPolicyMismatch(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), "127.0.0.1:0"}
	policies := []Policy{{Codec: CodecF16}, {}}
	errsOut := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := TCPConfig{
				Topo: twoMachineTopo(), Process: p, Addrs: addrs,
				DialTimeout: 5 * time.Second, Policy: policies[p],
			}
			if p == 0 {
				cfg.Listener = ln0
			}
			var f *TCP
			f, errsOut[p] = DialTCP(context.Background(), cfg)
			if f != nil {
				f.Close()
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errsOut {
		if !errors.Is(err, errs.ErrCompressionMismatch) {
			t.Fatalf("process %d: err = %v, want ErrCompressionMismatch", p, err)
		}
	}
}

// TestTCPMatchingPolicyConnects: agents agreeing on a non-trivial
// policy rendezvous normally and exchange compressed frames.
func TestTCPMatchingPolicyConnects(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), "127.0.0.1:0"}
	pol := Policy{Codec: CodecF16, TopK: 0.25}
	fabs := make([]*TCP, 2)
	errsOut := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := TCPConfig{
				Topo: twoMachineTopo(), Process: p, Addrs: addrs,
				DialTimeout: 10 * time.Second, Policy: pol,
			}
			if p == 0 {
				cfg.Listener = ln0
			}
			fabs[p], errsOut[p] = DialTCP(context.Background(), cfg)
		}(p)
	}
	wg.Wait()
	for p, err := range errsOut {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	defer fabs[0].Close()
	defer fabs[1].Close()
	exchangeCompressed(t, fabs[0].Conduit(0), fabs[1].Conduit(1))
}
