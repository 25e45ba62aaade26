package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
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

func TestTCPConcurrentTagsOnePair(t *testing.T) {
	// Two concurrent request/reply streams between the same endpoints
	// under different tags: the per-tag inbox queues must demultiplex.
	f0, f1 := dialPair(t, twoMachineTopo())
	a, b := f0.Conduit(0), f1.Conduit(1)
	var wg sync.WaitGroup
	for _, tag := range []string{"t1", "t2"} {
		wg.Add(2)
		go func(tag string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a.SendScalar(1, tag, float64(i))
			}
		}(tag)
		go func(tag string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if v := b.RecvScalar(0, tag); v != float64(i) {
					t.Errorf("tag %s msg %d = %v", tag, i, v)
					return
				}
			}
		}(tag)
	}
	wg.Wait()
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
	// Peer's reader notices the dead connection and shuts its fabric
	// down too (fail-stop).
	f1.Close()
	waitGoroutines(t, base)
}

func TestTCPPeerDeathFailsStop(t *testing.T) {
	f0, f1 := dialPair(t, twoMachineTopo())
	f1.Close() // peer vanishes
	// f0's reader observes the broken connection and closes the fabric,
	// turning a blocked RecvPS into nil rather than a hang.
	done := make(chan *PSMsg, 1)
	go func() { done <- f0.Conduit(0).RecvPS(1, "ps") }()
	select {
	case m := <-done:
		if m != nil {
			t.Fatalf("RecvPS after peer death returned %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fabric did not fail stop after peer death")
	}
}
