package main

import (
	"io"
	"net"
	"testing"
)

// The socket counter must count exactly the bytes that cross an
// accepted connection, each direction on its own.
func TestCountingListenerCountsBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	defer cl.Close()

	const up, down = 70_000, 1_234 // more than one read's worth up
	done := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		if _, err := c.Write(make([]byte, up)); err != nil {
			done <- err
			return
		}
		_, err = io.ReadFull(c, make([]byte, down))
		done <- err
	}()

	c, err := cl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.ReadFull(c, make([]byte, up)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(make([]byte, down)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r, w := cl.read.Load(), cl.written.Load(); r != up || w != down {
		t.Fatalf("counted %d read and %d written, want %d and %d", r, w, up, down)
	}
	if cl.total() != up+down {
		t.Fatalf("total %d, want %d", cl.total(), up+down)
	}
}

// The program's own accounting may miss bytes (serving traffic between
// steps, heartbeats, the rendezvous) but can never see bytes the socket
// did not carry: the sum of StepStats.WireSentBytes over both agents
// stays at or below the socket count, and the shortfall is what
// session.wire_accounting_gap reports.
func TestSocketCountBoundsStepStats(t *testing.T) {
	w, err := findWorkload("emb_tcp")
	if err != nil {
		t.Fatal(err)
	}
	a, err := openAgents(w, 1, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	recs, errs := drive(a, 1, window{warmup: 2, lossSteps: 10}, nil)
	a.close()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var sent int64
	for p := range recs {
		for i := range recs[p] {
			sent += recs[p][i].st.WireSentBytes
		}
	}
	socket := a.socketBytes()
	if sent <= 0 || socket <= 0 {
		t.Fatalf("nothing counted: StepStats %d, socket %d", sent, socket)
	}
	if sent > socket {
		t.Fatalf("StepStats claims %d wire bytes, the socket carried %d", sent, socket)
	}
	if gap := 1 - float64(sent)/float64(socket); gap > 0.25 {
		t.Fatalf("accounting gap %.3f: StepStats %d of socket %d", gap, sent, socket)
	}
}

// An in-process run has no socket to count.
func TestInprocCountsNothing(t *testing.T) {
	w, err := findWorkload("lm_inproc")
	if err != nil {
		t.Fatal(err)
	}
	a, err := openAgents(w, 1, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.close()
	if _, errs := drive(a, 1, window{warmup: 1, lossSteps: 2}, nil); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if n := a.socketBytes(); n != 0 {
		t.Fatalf("in-process run counted %d socket bytes", n)
	}
}
