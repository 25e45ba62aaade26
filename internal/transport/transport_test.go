package transport

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parallax/internal/tensor"
)

func TestTopology(t *testing.T) {
	topo := Topology{Workers: 4, Machines: 2, MachineOfWorker: []int{0, 0, 1, 1}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Endpoints() != 6 || topo.ServerEndpoint(1) != 5 || topo.Processes() != 2 {
		t.Fatalf("layout: endpoints=%d server1=%d procs=%d", topo.Endpoints(), topo.ServerEndpoint(1), topo.Processes())
	}
	for rank, want := range []int{0, 0, 1, 1, 0, 1} {
		if got := topo.ProcessOf(rank); got != want {
			t.Errorf("ProcessOf(%d) = %d, want %d", rank, got, want)
		}
	}
	if err := (Topology{Workers: 0}).Validate(); err == nil {
		t.Error("zero workers validated")
	}
	if err := (Topology{Workers: 2, Machines: 2, MachineOfWorker: []int{0}}).Validate(); err == nil {
		t.Error("short MachineOfWorker validated")
	}
	if err := (Topology{Workers: 2, Machines: 2, MachineOfWorker: []int{0, 5}}).Validate(); err == nil {
		t.Error("out-of-range machine validated")
	}
}

// exchangeAll drives all six message kinds across a pair of conduits and
// verifies payloads, mutating every borrowed buffer as soon as its send
// returns; shared by the local-pair and cross-socket tests so pipes and
// wires pin the same contract.
func exchangeAll(t *testing.T, a, b Conduit) {
	t.Helper()
	ch := topkChunk()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		data := []float32{1.5, -2.25, float32(math.Pi)}
		a.SendF32(b.Rank(), "f32", data)
		data[0] = 99 // the caller may reuse the slice immediately
		half := onGrid()
		a.SendF32C(b.Rank(), "half", half, CodecF16)
		half[1] = 99
		sel := SparseChunk{Len: ch.Len, Codec: ch.Codec,
			Idx: append([]int32(nil), ch.Idx...), Vals: append([]float32(nil), ch.Vals...)}
		a.SendF32Sparse(b.Rank(), "topk", sel)
		sel.Idx[0], sel.Vals[0] = 0, 99 // selection scratch is reused too
		a.SendScalar(b.Rank(), "sc", 42.125)
		sp := tensor.NewSparse([]int{3, 1, 3}, tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2), 7)
		a.SendSparse(b.Rank(), "sp", sp)
		a.SendPS(b.Rank(), "ps", &PSMsg{
			Op: PSPushDenseMany, Version: 9, Scale: 0.5,
			Names: []string{"v"}, Parts: []int{2},
			Dense: []*tensor.Dense{tensor.FromSlice([]float32{7, 8}, 2)},
		})
		// Reply flows the other way on the same tag.
		if rep := a.RecvPS(b.Rank(), "ps"); rep == nil || rep.Err != "boom" {
			t.Errorf("reply = %+v", rep)
		}
	}()

	f := b.RecvF32(a.Rank(), "f32")
	if len(f) != 3 || f[0] != 1.5 || f[1] != -2.25 {
		t.Fatalf("f32 payload %v", f)
	}
	b.PutBuf(f)
	if h := b.RecvF32(a.Rank(), "half"); !sameF32s(h, onGrid()) {
		t.Fatalf("half-precision chunk changed: %v vs %v", h, onGrid())
	}
	got := b.RecvF32Sparse(a.Rank(), "topk")
	if got.Len != ch.Len || got.Codec != ch.Codec || !slices.Equal(got.Idx, ch.Idx) || !sameF32s(got.Vals, ch.Vals) {
		t.Fatalf("top-k chunk changed: %+v vs %+v", got, ch)
	}
	if v := b.RecvScalar(a.Rank(), "sc"); v != 42.125 {
		t.Fatalf("scalar %v", v)
	}
	sp := b.RecvSparse(a.Rank(), "sp")
	if sp.Dim0 != 7 || len(sp.Rows) != 3 || sp.Rows[2] != 3 || sp.Values.At(1, 1) != 4 {
		t.Fatalf("sparse payload %+v", sp)
	}
	req := b.RecvPS(a.Rank(), "ps")
	if req == nil || req.Op != PSPushDenseMany || req.Version != 9 || req.Scale != 0.5 {
		t.Fatalf("ps req %+v", req)
	}
	if len(req.Dense) != 1 || req.Dense[0].Data()[1] != 8 || req.Names[0] != "v" || req.Parts[0] != 2 {
		t.Fatalf("ps req payload %+v", req)
	}
	b.SendPS(a.Rank(), "ps", &PSMsg{Op: PSReply, Err: "boom"})
	wg.Wait()
}

// TestLocalPairContract runs one script on the two places a pipe carries
// a pair: the in-process fabric, and the colocated workers 0 and 1 of a
// two-process TCP fabric. Either way the exchange never touches a wire,
// a diverged tag panics, and Close releases a blocked RecvPS.
func TestLocalPairContract(t *testing.T) {
	topo := Topology{Workers: 4, Machines: 2, MachineOfWorker: []int{0, 0, 1, 1}}
	for name, open := range map[string]func(t *testing.T) *TCP{
		"inproc": func(t *testing.T) *TCP {
			f := NewInproc(topo)
			t.Cleanup(func() { f.Close() })
			if f.Distributed() || !f.Local(3) || !f.Local(5) || f.Local(6) {
				t.Fatal("inproc locality")
			}
			return f
		},
		"tcp colocated": func(t *testing.T) *TCP {
			f0, _ := dialPair(t, topo)
			if !f0.Distributed() || !f0.Local(1) || f0.Local(2) {
				t.Fatal("tcp locality")
			}
			return f0
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := open(t)
			before := f.Stats()
			exchangeAll(t, f.Conduit(0), f.Conduit(1))
			if after := f.Stats(); after != before {
				t.Errorf("local exchange hit the wire: %+v -> %+v", before, after)
			}

			f.Conduit(0).SendScalar(1, "a", 0)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic on tag mismatch")
					}
				}()
				f.Conduit(1).RecvScalar(0, "b")
			}()

			done := make(chan *PSMsg, 1)
			go func() { done <- f.Conduit(0).RecvPS(1, "ps") }()
			time.Sleep(10 * time.Millisecond)
			f.Close()
			f.Close() // idempotent
			select {
			case m := <-done:
				if m != nil {
					t.Fatalf("closed RecvPS returned %+v", m)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("RecvPS did not unblock on Close")
			}
		})
	}
}

// eachPair runs fn on a pair of worker conduits a -> b of each fabric: the
// in-process one, and two loopback agents with one worker each. rx is the
// fabric that hosts b.
func eachPair(t *testing.T, fn func(t *testing.T, a, b Conduit, rx *TCP)) {
	t.Run("inproc", func(t *testing.T) {
		f := NewInproc(WorkersOnly(2))
		t.Cleanup(func() { f.Close() })
		fn(t, f.Conduit(0), f.Conduit(1), f)
	})
	t.Run("tcp", func(t *testing.T) {
		f0, f1 := dialPair(t, twoMachineTopo())
		fn(t, f0.Conduit(0), f1.Conduit(1), f1)
	})
}

// A pair is one FIFO queue whatever its link: a receive that finds
// another tag at the head of the queue is a diverged schedule, and it
// panics naming both tags instead of taking the message out of order.
func TestOutOfOrderTagPanics(t *testing.T) {
	eachPair(t, func(t *testing.T, a, b Conduit, _ *TCP) {
		a.SendScalar(b.Rank(), "a", 1)
		a.SendScalar(b.Rank(), "b", 2)
		msg, _ := recovered(func() { b.RecvScalar(a.Rank(), "b") }).(string)
		if !strings.Contains(msg, `"a"`) || !strings.Contains(msg, `"b"`) {
			t.Fatalf("receiving b ahead of a raised %q, want a panic naming both tags", msg)
		}
	})
}

// A torn-down fabric delivers nothing, not even what was queued before
// the teardown: an agreement whose receives were all queued must not
// report success on a dead fabric.
func TestClosedFabricReceiveFails(t *testing.T) {
	eachPair(t, func(t *testing.T, a, b Conduit, rx *TCP) {
		a.SendScalar(b.Rank(), "x", 7)
		for len(rx.pipes[a.Rank()][b.Rank()]) == 0 {
			time.Sleep(time.Millisecond)
		}
		rx.Fail(rx.proc, errors.New("injected crash"))
		if p := recovered(func() { b.RecvScalar(a.Rank(), "x") }); p == nil {
			t.Fatal("a receive on the torn-down fabric returned the queued message")
		} else if _, ok := p.(ClosedPanic); !ok {
			t.Fatalf("a receive on the torn-down fabric raised %v, want ClosedPanic", p)
		}
	})
}

// waitGoroutines polls until the goroutine count settles back to at most
// base+slack, failing the test otherwise.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
