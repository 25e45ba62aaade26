package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parallax/internal/errs"
)

// dialPair builds the 2-process fabric of topo inside one test process:
// both listeners are pre-bound on ":0" so no fixed ports are needed, and
// both DialTCP calls run concurrently like real agents starting up.
func dialPair(t *testing.T, topo Topology) (*TCP, *TCP) {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), "127.0.0.1:0"}
	fabs := make([]*TCP, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := TCPConfig{Topo: topo, Process: p, Addrs: addrs, DialTimeout: 10 * time.Second}
			if p == 0 {
				cfg.Listener = ln0
			}
			fabs[p], errs[p] = DialTCP(context.Background(), cfg)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	t.Cleanup(func() { fabs[0].Close(); fabs[1].Close() })
	return fabs[0], fabs[1]
}

func twoMachineTopo() Topology {
	return Topology{Workers: 2, Machines: 2, MachineOfWorker: []int{0, 1}}
}

func TestTCPExchangeAcrossProcesses(t *testing.T) {
	f0, f1 := dialPair(t, twoMachineTopo())
	if !f0.Distributed() || f0.Local(1) || !f0.Local(0) || !f0.Local(2) {
		t.Fatal("tcp locality")
	}
	// Worker 0 lives on f0, worker 1 on f1: a genuine cross-socket pair.
	exchangeAll(t, f0.Conduit(0), f1.Conduit(1))
	s0, s1 := f0.Stats(), f1.Stats()
	if s0.SentBytes == 0 || s0.RecvBytes == 0 || s1.SentBytes == 0 || s1.RecvBytes == 0 {
		t.Errorf("wire stats not counted: %+v %+v", s0, s1)
	}
	if s0.SentBytes != s1.RecvBytes || s1.SentBytes != s0.RecvBytes {
		t.Errorf("stats asymmetric: %+v vs %+v", s0, s1)
	}
}

func TestTCPRingCollectiveShapedTraffic(t *testing.T) {
	// The ring schedule's send-then-recv pattern with chunks far larger
	// than a socket buffer: both sides send 4 MB simultaneously, which
	// deadlocks unless readers drain independently of send order.
	f0, f1 := dialPair(t, twoMachineTopo())
	a, b := f0.Conduit(0), f1.Conduit(1)
	big := make([]float32, 1<<20)
	for i := range big {
		big[i] = float32(i % 97)
	}
	var wg sync.WaitGroup
	for _, c := range []Conduit{a, b} {
		wg.Add(1)
		go func(c Conduit, peer int) {
			defer wg.Done()
			c.SendF32(peer, "big", big)
			got := c.RecvF32(peer, "big")
			if len(got) != len(big) || got[12345] != big[12345] {
				t.Errorf("big chunk corrupted")
			}
			c.PutBuf(got)
		}(c, 1-c.Rank())
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simultaneous large sends deadlocked")
	}
}

func TestTCPDialFailureReturnsErrorWithoutLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	// A port nothing listens on: grab one and close it immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	// Process 1 dials process 0; nobody is there.
	_, err = DialTCP(context.Background(), TCPConfig{
		Topo: twoMachineTopo(), Process: 1,
		Addrs:       []string{dead, "127.0.0.1:0"},
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "dialing peer") {
		t.Fatalf("err = %v", err)
	}
	waitGoroutines(t, base)
}

func TestTCPAcceptTimeoutReturnsErrorWithoutLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	// Process 0 waits for process 1, which never comes.
	_, err := DialTCP(context.Background(), TCPConfig{
		Topo: twoMachineTopo(), Process: 0,
		Addrs:       []string{"127.0.0.1:0", "127.0.0.1:0"},
		Listener:    mustListen(t),
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
	waitGoroutines(t, base)
}

// TestTCPDialObservesContextCancel: cancelling the rendezvous context
// aborts DialTCP well before DialTimeout, surfaces the context error
// through errors.Is, and leaks nothing.
func TestTCPDialObservesContextCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = DialTCP(ctx, TCPConfig{
		Topo: twoMachineTopo(), Process: 1,
		Addrs:       []string{dead, "127.0.0.1:0"},
		DialTimeout: 30 * time.Second,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("cancelled dial took %v", since)
	}
	// The accept side observes cancellation too.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	_, err = DialTCP(ctx2, TCPConfig{
		Topo: twoMachineTopo(), Process: 0,
		Addrs:       []string{"127.0.0.1:0", "127.0.0.1:0"},
		Listener:    mustListen(t),
		DialTimeout: 30 * time.Second,
	})
	if err == nil {
		t.Fatal("accept rendezvous ignored the context deadline")
	}
	waitGoroutines(t, base)
}

// TestTCPRendezvousReverseStartOrder: processes dial down and then accept
// up, so a cluster whose agents start highest index first — every dialer
// ahead of the peer it dials — still forms, with a connection on every
// pair.
func TestTCPRendezvousReverseStartOrder(t *testing.T) {
	const n = 5
	topo := Topology{Workers: n, Machines: n, MachineOfWorker: []int{0, 1, 2, 3, 4}}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for p := range lns {
		lns[p] = mustListen(t)
		addrs[p] = lns[p].Addr().String()
	}
	fabs := make([]*TCP, n)
	errsOut := make([]error, n)
	var wg sync.WaitGroup
	for p := n - 1; p >= 0; p-- {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fabs[p], errsOut[p] = DialTCP(context.Background(), TCPConfig{
				Topo: topo, Process: p, Addrs: addrs, Listener: lns[p], DialTimeout: 10 * time.Second,
			})
		}(p)
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	for p, err := range errsOut {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
		defer fabs[p].Close()
	}
	for p := range fabs {
		for q := range fabs {
			if q != p {
				fabs[p].Conduit(p).SendScalar(q, "pair", float64(10*p+q))
			}
		}
	}
	for p := range fabs {
		for q := range fabs {
			if q == p {
				continue
			}
			if v := fabs[p].Conduit(p).RecvScalar(q, "pair"); v != float64(10*q+p) {
				t.Errorf("process %d got %v from %d, want %d", p, v, q, 10*q+p)
			}
		}
	}
}

// TestTCPAcceptRunsNoGoroutine: the rendezvous runs on the caller's
// goroutine, so a process waiting for a peer that never comes adds no
// goroutine of its own.
func TestTCPAcceptRunsNoGoroutine(t *testing.T) {
	ln := mustListen(t)
	ctx, cancel := context.WithCancel(context.Background())
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := DialTCP(ctx, TCPConfig{
			Topo: twoMachineTopo(), Process: 0,
			Addrs:       []string{ln.Addr().String(), "127.0.0.1:1"},
			Listener:    ln,
			DialTimeout: 30 * time.Second,
		})
		done <- err
	}()
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond)
		if n := runtime.NumGoroutine(); n > base+1 {
			t.Errorf("poll %d: %d goroutines while accepting, want at most %d", i, n, base+1)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTCPSilentConnectionYieldsToCancel: a connection that never sends
// its handshake holds the accept loop no longer than the rendezvous
// lasts — a cancel still ends DialTCP at once, and the silent connection
// is closed with it.
func TestTCPSilentConnectionYieldsToCancel(t *testing.T) {
	ln := mustListen(t)
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = DialTCP(ctx, TCPConfig{
		Topo: twoMachineTopo(), Process: 0,
		Addrs:       []string{ln.Addr().String(), "127.0.0.1:1"},
		Listener:    ln,
		DialTimeout: 30 * time.Second,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("cancelled rendezvous took %v", since)
	}
	silent.SetReadDeadline(time.Now().Add(time.Second))
	var b [1]byte
	if _, err := silent.Read(b[:]); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the silent connection outlived the rendezvous")
	}
}

func mustListen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func TestTCPCloseIdempotentAndReleasesServing(t *testing.T) {
	base := runtime.NumGoroutine()
	f0, f1 := dialPair(t, twoMachineTopo())
	done := make(chan *PSMsg, 1)
	go func() { done <- f0.Conduit(2).RecvPS(1, "ps") }() // serving-loop shape
	time.Sleep(10 * time.Millisecond)
	f0.Close()
	f0.Close()
	if m := <-done; m != nil {
		t.Fatalf("closed RecvPS returned %+v", m)
	}
	// The peer read the goodbye; its fabric stays up until it closes too.
	f1.Close()
	waitGoroutines(t, base)
}

// recovered runs fn and returns what it panicked with, nil if it did
// not.
func recovered(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// An orderly Close is a departure, not a failure: the peers that read the
// goodbye keep their fabric and from then on read that one process as
// closed — a serving loop parked on it ends, sends to it drop, the rest
// of the fabric works. Only an endpoint still owed a message by it —
// after draining what it sent before the goodbye — makes the departure
// a failure, naming the process that left on every survivor.
func TestTCPByeIsDepartureUntilOwed(t *testing.T) {
	base := runtime.NumGoroutine()
	topo := Topology{Workers: 3, Machines: 3, MachineOfWorker: []int{0, 1, 2}}
	fabs := mustDialN(t, 3, topo, nil)
	c0 := fabs[0].Conduit(0)

	// Process 0's server parks on worker 2's next request; process 2 owes
	// worker 0 two scalars, writes them, and leaves.
	parked := make(chan *PSMsg, 1)
	go func() { parked <- fabs[0].Conduit(topo.ServerEndpoint(0)).RecvPS(2, "ps") }()
	fabs[2].Conduit(2).SendScalar(0, "loss", 1.5)
	fabs[2].Conduit(2).SendScalar(0, "loss", 2.5)
	fabs[2].Close()
	select {
	case m := <-parked:
		if m != nil {
			t.Fatalf("RecvPS from a departed process returned %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the goodbye did not release a parked serving loop")
	}
	if p := recovered(func() {
		for i := 0; i < 100; i++ { // enough writes to meet the closed socket
			c0.SendScalar(2, "loss", 0)
		}
	}); p != nil {
		t.Fatalf("send to a departed process panicked: %v", p)
	}
	fabs[1].Conduit(1).SendScalar(0, "loss", 7)
	if v := c0.RecvScalar(1, "loss"); v != 7 {
		t.Fatalf("exchange with a remaining peer = %v, want 7", v)
	}
	select {
	case <-fabs[0].Done():
		t.Fatal("a peer's orderly Close shut this fabric down")
	default:
	}
	if err := fabs[0].Err(); err != nil {
		t.Fatalf("a peer's orderly Close recorded the failure %v", err)
	}

	for _, want := range []float64{1.5, 2.5} {
		if v := c0.RecvScalar(2, "loss"); v != want {
			t.Fatalf("scalar sent before the goodbye = %v, want %v", v, want)
		}
	}
	cp, ok := recovered(func() { c0.RecvScalar(2, "loss") }).(ClosedPanic)
	var pf *errs.PeerFailure
	if !ok || !errors.As(cp.Err, &pf) || pf.Rank != 2 {
		t.Fatalf("receive past the goodbye raised %v, want ClosedPanic with a failure naming process 2", cp.Err)
	}
	for p := 0; p < 2; p++ {
		waitDone(t, fabs[p], "survivor of the departure")
		if err := fabs[p].Err(); !errors.As(err, &pf) || pf.Rank != 2 {
			t.Fatalf("process %d attributed %v, want rank 2", p, err)
		}
	}
	for _, f := range fabs {
		f.Close()
	}
	waitGoroutines(t, base)
}

// A client is owed its server's reply: when the server's process has
// said goodbye instead, the wait comes back empty and the process is
// failed, so the trainer can attribute the torn step.
func TestTCPClientOwedReplyFailsDepartedServer(t *testing.T) {
	f0, f1 := dialPair(t, twoMachineTopo())
	f1.Close()
	if m := f0.Conduit(0).RecvPS(3, "ps"); m != nil { // worker 0 awaiting server 1
		t.Fatalf("RecvPS from a departed server returned %+v", m)
	}
	waitDone(t, f0, "client of the departed server")
	var pf *errs.PeerFailure
	if err := f0.Err(); !errors.As(err, &pf) || pf.Rank != 1 {
		t.Fatalf("attributed %v, want rank 1", err)
	}
}

// Close never closes a socket with bytes unread — that would reset the
// connection, and a reset may overtake the goodbye. It half-closes after
// the goodbye and reads to the peer's end of stream instead, which the
// peer's reader produces by closing its end when it reads the goodbye.
// So Close has read every byte the peer wrote, frames nobody received
// included, and the peer sees a departure.
func TestTCPCloseReadsToThePeersEndOfStream(t *testing.T) {
	base := runtime.NumGoroutine()
	f0, f1 := dialPair(t, twoMachineTopo())
	// More frames than process 0's pipe from endpoint 1 holds: its reader
	// parks on the pipe and the rest stay in the socket.
	for i := 0; i < 500; i++ {
		f1.Conduit(1).SendF32(0, "unreceived", make([]float32, 256))
	}
	f0.Close()
	if got, want := f0.Stats().RecvBytes, f1.Stats().SentBytes; got != want {
		t.Fatalf("Close read %d of the %d bytes its peer had written", got, want)
	}
	select {
	case <-f1.conns[0].gone:
	case <-time.After(5 * time.Second):
		t.Fatal("the peer never read the goodbye")
	}
	if err := f1.Err(); err != nil {
		t.Fatalf("the peer of an orderly Close recorded the failure %v", err)
	}
	f1.Close()
	waitGoroutines(t, base)
}

// Close must not wait on a wedged peer: data writes parked on a peer that
// has stopped reading hold, or queue for, the connection's write mutex,
// and the goodbye needs that mutex. The deadline Close puts on the
// connection first ends the parked write and, whatever a heartbeat
// queued among them then does to the write deadline, the connection's
// reader — the peer's own heartbeats do not keep it reading — which
// closes the socket under all of them. So Close returns and the
// senders' messages are dropped like any send on a closed fabric.
func TestTCPCloseDoesNotWaitOnWedgedPeer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		writers int
		hb      time.Duration
	}{
		{"one parked write", 1, -1},
		{"two writes and the heartbeat queued", 2, 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln0 := mustListen(t)
			wedged := make(chan net.Conn, 1)
			go func() {
				conn, err := net.Dial("tcp", ln0.Addr().String())
				if err != nil {
					return // DialTCP below times out and reports it
				}
				conn.Write(rawHandshake(string(handshakeMagic[:])))
				var ack [1]byte
				io.ReadFull(conn, ack[:])
				wedged <- conn  // held open, never read again
				for tc.hb > 0 { // it only talks: nothing on this side times out
					if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
						return
					}
					time.Sleep(tc.hb)
				}
			}()
			f, err := DialTCP(context.Background(), TCPConfig{
				Topo: twoMachineTopo(), Process: 0,
				Addrs:             []string{ln0.Addr().String(), "127.0.0.1:1"},
				Listener:          ln0,
				DialTimeout:       5 * time.Second,
				HeartbeatInterval: tc.hb,
				HeartbeatTimeout:  time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			conn := <-wedged
			defer conn.Close()
			sent := make(chan any, tc.writers)
			for range tc.writers {
				go func() {
					sent <- recovered(func() { f.Conduit(0).SendF32(1, "big", make([]float32, 16<<20)) })
				}()
				// The first 64 MB write fills the socket buffers and parks; a
				// heartbeat, then the next write, queue behind it in that order.
				time.Sleep(100 * time.Millisecond)
			}
			start := time.Now()
			f.Close()
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("Close took %v behind writes parked on a wedged peer", d)
			}
			for range tc.writers {
				select {
				case p := <-sent:
					if p != nil {
						t.Fatalf("a parked send panicked: %v", p)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a parked send never returned")
				}
			}
		})
	}
}
