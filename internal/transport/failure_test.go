package transport

// Tests for the failure model (DESIGN.md §12): rank-attributed peer
// failures, heartbeat-based detection of silent peers, the peer-down
// broadcast that keeps every survivor's attribution consistent, and the
// epoch handshake that fences stale agents out of a recovered cluster.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parallax/internal/errs"
)

// dialN builds an n-process fabric on loopback inside one test process,
// with per-process config tweaks.
func dialN(t *testing.T, n int, topo Topology, mutate func(p int, cfg *TCPConfig)) ([]*TCP, []error) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for p := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[p], addrs[p] = ln, ln.Addr().String()
	}
	fabs := make([]*TCP, n)
	errsOut := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := TCPConfig{Topo: topo, Process: p, Addrs: addrs, Listener: lns[p],
				DialTimeout: 10 * time.Second}
			if mutate != nil {
				mutate(p, &cfg)
			}
			fabs[p], errsOut[p] = DialTCP(context.Background(), cfg)
		}(p)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, f := range fabs {
			if f != nil {
				f.Close()
			}
		}
	})
	return fabs, errsOut
}

func mustDialN(t *testing.T, n int, topo Topology, mutate func(p int, cfg *TCPConfig)) []*TCP {
	t.Helper()
	fabs, es := dialN(t, n, topo, mutate)
	for p, err := range es {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	return fabs
}

func waitDone(t *testing.T, f *TCP, what string) {
	t.Helper()
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: fabric did not observe the failure", what)
	}
}

// An abrupt peer death (no announcement, simulating a crash) must
// surface on the survivor as a typed, rank-attributed failure, and
// blocked receives must fail stop rather than hang.
func TestTCPAbruptPeerDeathAttributed(t *testing.T) {
	base := runtime.NumGoroutine()
	fabs := mustDialN(t, 2, twoMachineTopo(), nil)
	done := make(chan *PSMsg, 1)
	go func() { done <- fabs[0].Conduit(2).RecvPS(1, "ps") }()
	time.Sleep(10 * time.Millisecond)

	fabs[1].Fail(1, fmt.Errorf("injected crash"))
	waitDone(t, fabs[0], "survivor")
	if m := <-done; m != nil {
		t.Fatalf("RecvPS after peer death returned %+v", m)
	}
	err := fabs[0].Err()
	if !errors.Is(err, errs.ErrPeerFailed) {
		t.Fatalf("survivor error %v, want ErrPeerFailed", err)
	}
	var pf *errs.PeerFailure
	if !errors.As(err, &pf) || pf.Rank != 1 {
		t.Fatalf("survivor attributed %v, want rank 1", err)
	}
	fabs[0].Close()
	fabs[1].Close()
	waitGoroutines(t, base)
}

// A peer that stops sending frames and heartbeats (process wedged, NIC
// dead) must be detected within the heartbeat timeout and attributed.
func TestTCPHeartbeatTimeoutAttributed(t *testing.T) {
	base := runtime.NumGoroutine()
	fabs := mustDialN(t, 2, twoMachineTopo(), func(p int, cfg *TCPConfig) {
		if p == 0 {
			cfg.HeartbeatInterval = 20 * time.Millisecond
			cfg.HeartbeatTimeout = 150 * time.Millisecond
		} else {
			cfg.HeartbeatInterval = -1 // process 1 goes silent
		}
	})
	start := time.Now()
	waitDone(t, fabs[0], "heartbeat watcher")
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("detection took %v, want within a few heartbeat timeouts", d)
	}
	err := fabs[0].Err()
	var pf *errs.PeerFailure
	if !errors.As(err, &pf) || pf.Rank != 1 {
		t.Fatalf("attributed %v, want rank 1", err)
	}
	if !strings.Contains(err.Error(), "no frames or heartbeats") {
		t.Fatalf("error %v does not describe the silence", err)
	}
	fabs[0].Close()
	fabs[1].Close()
	waitGoroutines(t, base)
}

// When one process observes a failure, its peer-down broadcast makes
// every other survivor attribute the SAME rank — nobody blames the
// neighbor that merely tore down in the cascade.
func TestTCPPeerDownBroadcastAlignsAttribution(t *testing.T) {
	topo := Topology{Workers: 3, Machines: 3, MachineOfWorker: []int{0, 1, 2}}
	fabs := mustDialN(t, 3, topo, nil)

	fabs[2].Fail(2, fmt.Errorf("injected crash"))
	waitDone(t, fabs[0], "survivor 0")
	waitDone(t, fabs[1], "survivor 1")
	for p := 0; p < 2; p++ {
		var pf *errs.PeerFailure
		if err := fabs[p].Err(); !errors.As(err, &pf) || pf.Rank != 2 {
			t.Fatalf("survivor %d attributed %v, want rank 2", p, err)
		}
	}
}

// A send that finds its socket broken must not outrun the peer-down
// frame waiting unread on the same connection. Process 2 crashes while
// process 0's readers are parked on full pipes; process 1 observes the
// crash, announces it to process 0 and tears down. Process 0 then sends
// to process 1 and the write fails: the failure is still process 2's,
// not that of the messenger whose socket broke.
func TestTCPBrokenSendDefersToPeerDown(t *testing.T) {
	base := runtime.NumGoroutine()
	topo := Topology{Workers: 3, Machines: 3, MachineOfWorker: []int{0, 1, 2}}
	fabs := mustDialN(t, 3, topo, nil)

	// Fill endpoint 0's pipes; each reader takes one more frame and
	// parks on its full pipe.
	for _, p := range []int{1, 2} {
		q := fabs[0].pipes[p][0]
		for i := 0; i <= cap(q); i++ {
			fabs[p].Conduit(p).SendF32(0, "fill", []float32{float32(i)})
		}
		for len(q) < cap(q) {
			time.Sleep(time.Millisecond)
		}
	}
	fabs[2].Fail(2, errors.New("injected crash"))
	waitDone(t, fabs[1], "process 1")

	send := func() (failed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(ClosedPanic); !ok {
					panic(r)
				}
				failed = true
			}
		}()
		fabs[0].Conduit(0).SendF32(1, "after", []float32{1})
		return false
	}
	for i := 0; !send(); i++ {
		if i == 1000 {
			t.Fatal("sends to the torn-down process kept succeeding")
		}
		time.Sleep(time.Millisecond)
	}
	for p := 0; p < 2; p++ {
		var pf *errs.PeerFailure
		if err := fabs[p].Err(); !errors.As(err, &pf) || pf.Rank != 2 {
			t.Fatalf("process %d attributed %v, want rank 2", p, err)
		}
	}
	for _, f := range fabs {
		f.Close()
	}
	waitGoroutines(t, base)
}

// A single severed connection (broken link, not a dead process) still
// fail-stops both sides with an attribution.
func TestTCPSeveredLinkFailsStop(t *testing.T) {
	fabs := mustDialN(t, 2, twoMachineTopo(), nil)
	if err := fabs[0].SeverPeer(1); err != nil {
		t.Fatal(err)
	}
	waitDone(t, fabs[0], "severing side")
	waitDone(t, fabs[1], "severed side")
	if err := fabs[0].Err(); !errors.Is(err, errs.ErrPeerFailed) {
		t.Fatalf("severing side error %v, want ErrPeerFailed", err)
	}
	if err := fabs[1].Err(); !errors.Is(err, errs.ErrPeerFailed) {
		t.Fatalf("severed side error %v, want ErrPeerFailed", err)
	}
}

// A stale agent dialing into a recovered cluster (older epoch) is
// refused with ErrEpochMismatch; the acceptor keeps waiting for the
// restarted agent rather than failing.
func TestTCPEpochMismatchStaleDialerRefused(t *testing.T) {
	fabs, es := dialN(t, 2, twoMachineTopo(), func(p int, cfg *TCPConfig) {
		cfg.DialTimeout = 2 * time.Second
		if p == 0 {
			cfg.Epoch = 1 // survivor, already at the recovered epoch
		}
	})
	if !errors.Is(es[1], errs.ErrEpochMismatch) {
		t.Fatalf("stale dialer got %v, want ErrEpochMismatch", es[1])
	}
	// The survivor times out waiting for an up-to-date peer (nobody
	// redialed at the right epoch in this test).
	if es[0] == nil {
		fabs[0].Close()
		t.Fatal("survivor rendezvous succeeded with a stale peer")
	}
}

// The reverse skew — the acceptor is the stale one — must fail the
// acceptor's own rendezvous too: it is the process that missed a
// recovery and must re-read the epoch, not the cluster.
func TestTCPEpochMismatchStaleAcceptorFails(t *testing.T) {
	_, es := dialN(t, 2, twoMachineTopo(), func(p int, cfg *TCPConfig) {
		cfg.DialTimeout = 2 * time.Second
		if p == 1 {
			cfg.Epoch = 3 // the dialer is ahead
		}
	})
	if !errors.Is(es[0], errs.ErrEpochMismatch) {
		t.Fatalf("stale acceptor got %v, want ErrEpochMismatch", es[0])
	}
	if !errors.Is(es[1], errs.ErrEpochMismatch) {
		t.Fatalf("ahead dialer got %v, want ErrEpochMismatch", es[1])
	}
}

// ctrlFrame renders a control frame as writeCtrl puts it on the wire.
func ctrlFrame(words ...uint32) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// rawHandshake is the rendezvous header process 1 of twoMachineTopo
// sends at epoch 0 under policy "none", opened by magic.
func rawHandshake(magic string) []byte {
	return append([]byte(magic), 1, 0, 4, 0, 0, 0, 0, 0, 'n', 'o', 'n', 'e')
}

// An agent built before the wire protocol changed announces itself with
// an earlier magic — PXA2 from before PS pulls became row-addressed,
// PXA3 from before Close said goodbye (such a peer would read frameBye
// as an oversized frame and turn every orderly shutdown into a
// failure), PXA4 from before the dense AllReduce became machine-level
// (such a peer sends lanes where this build expects the flat exchange's
// chunks, and the step dies on a chunk-size panic). It must be turned
// away at rendezvous — no ack, connection closed — and the acceptor's
// rendezvous fails attributed to the rank that never validly arrived,
// rather than the pair handshaking and failing mid-step.
func TestTCPOldGrammarPeerRefusedAtRendezvous(t *testing.T) {
	for _, magic := range []string{"PXA2", "PXA3", "PXA4"} {
		t.Run(magic, func(t *testing.T) {
			ln0 := mustListen(t)
			defer ln0.Close()
			refused := make(chan error, 1)
			go func() {
				conn, err := net.Dial("tcp", ln0.Addr().String())
				if err != nil {
					refused <- err
					return
				}
				defer conn.Close()
				if _, err := conn.Write(rawHandshake(magic)); err != nil {
					refused <- err
					return
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				var ack [1]byte
				if n, err := conn.Read(ack[:]); n != 0 || err == nil {
					refused <- fmt.Errorf("old-grammar handshake answered with ack %d (err %v)", ack[0], err)
					return
				}
				refused <- nil
			}()
			_, err := DialTCP(context.Background(), TCPConfig{
				Topo: twoMachineTopo(), Process: 0,
				Addrs:       []string{ln0.Addr().String(), "127.0.0.1:1"},
				Listener:    ln0,
				DialTimeout: time.Second,
			})
			var pf *errs.PeerFailure
			if !errors.As(err, &pf) || pf.Rank != 1 {
				t.Fatalf("rendezvous with a %s peer: %v, want a failure attributed to rank 1", magic, err)
			}
			if err := <-refused; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The control-frame grammar at the reader, driven by a raw peer that
// handshakes as process 1 and then writes stream bytes and hangs up: a
// whole goodbye is a departure, and any control frame cut short — the
// goodbye's own length word, a peer-down notice without its rank — is a
// broken connection attributed to the peer, as is a goodbye that never
// came.
func TestTCPControlFramesWholeAndTruncated(t *testing.T) {
	for _, c := range []struct {
		name     string
		stream   []byte
		departed bool
	}{
		{"bye", ctrlFrame(frameBye), true},
		{"heartbeats then bye", append(ctrlFrame(frameHeartbeat, frameHeartbeat), ctrlFrame(frameBye)...), true},
		{"bye cut short", ctrlFrame(frameBye)[:2], false},
		{"peer-down without its rank", ctrlFrame(framePeerDown), false},
		{"peer-down rank cut short", ctrlFrame(framePeerDown, 1)[:6], false},
		{"no goodbye", nil, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			ln0 := mustListen(t)
			go func() {
				conn, err := net.Dial("tcp", ln0.Addr().String())
				if err != nil {
					return // DialTCP below times out and reports it
				}
				defer conn.Close()
				conn.Write(rawHandshake(string(handshakeMagic[:])))
				var ack [1]byte
				if _, err := io.ReadFull(conn, ack[:]); err == nil && ack[0] == ackOK {
					conn.Write(c.stream)
				}
			}()
			f, err := DialTCP(context.Background(), TCPConfig{
				Topo: twoMachineTopo(), Process: 0,
				Addrs:       []string{ln0.Addr().String(), "127.0.0.1:1"},
				Listener:    ln0,
				DialTimeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if !c.departed {
				waitDone(t, f, "reader of a cut-short stream")
				var pf *errs.PeerFailure
				if err := f.Err(); !errors.As(err, &pf) || pf.Rank != 1 {
					t.Fatalf("attributed %v, want rank 1", err)
				}
				return
			}
			if m := f.Conduit(2).RecvPS(1, "ps"); m != nil { // serving-loop shape
				t.Fatalf("RecvPS from a departed process returned %+v", m)
			}
			if err := f.Err(); err != nil {
				t.Fatalf("a goodbye recorded the failure %v", err)
			}
		})
	}
}

// A rendezvous where a peer never shows up is attributed to the first
// missing rank, so operators know which agent to look at.
func TestTCPRendezvousTimeoutAttributed(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln0.Close()
	_, err = DialTCP(context.Background(), TCPConfig{
		Topo: twoMachineTopo(), Process: 0,
		Addrs:       []string{ln0.Addr().String(), "127.0.0.1:1"},
		Listener:    ln0,
		DialTimeout: 500 * time.Millisecond,
	})
	if !errors.Is(err, errs.ErrPeerFailed) {
		t.Fatalf("rendezvous timeout error %v, want ErrPeerFailed attribution", err)
	}
	var pf *errs.PeerFailure
	if !errors.As(err, &pf) || pf.Rank != 1 {
		t.Fatalf("timeout attributed %v, want rank 1", err)
	}
}
