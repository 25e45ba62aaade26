package engine

import (
	"math"
	"testing"

	"parallax/internal/cluster"
)

func testHW() cluster.Hardware {
	hw := cluster.DefaultHardware()
	hw.NICBandwidth = 1000 // 1000 B/s for easy arithmetic
	hw.ProtocolEff = map[cluster.Protocol]float64{
		cluster.ProtoNCCL: 1.0,
		cluster.ProtoRPC:  0.5,
		cluster.ProtoMPI:  0.25,
	}
	hw.NetLatency = 0.001
	hw.LocalBusBandwidth = 1e6
	return hw
}

// testFabric returns an n-machine fabric on a fresh kernel.
func testFabric(n int, hw cluster.Hardware) (*kernel, *fabric) {
	k := &kernel{}
	return k, newFabric(k, n, hw)
}

func TestTransferTiming(t *testing.T) {
	k, f := testFabric(2, testHW())
	var at vtime
	f.Transfer(0, 1, 500, cluster.ProtoNCCL, func() { at = k.Now() })
	k.Run()
	// egress 0.5s + latency 0.001 + ingress 0.5s
	want := vtime(0.5 + 0.001 + 0.5)
	if math.Abs(float64(at-want)) > 1e-9 {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestProtocolBandwidthApplied(t *testing.T) {
	var nccl, rpc vtime
	k, f := testFabric(2, testHW())
	f.Transfer(0, 1, 500, cluster.ProtoNCCL, func() { nccl = k.Now() })
	k.Run()
	k2, f2 := testFabric(2, testHW())
	f2.Transfer(0, 1, 500, cluster.ProtoRPC, func() { rpc = k2.Now() })
	k2.Run()
	if !(rpc > nccl*1.5) {
		t.Fatalf("RPC transfer (%v) should be ~2x slower than NCCL (%v)", rpc, nccl)
	}
}

func TestEgressSerialization(t *testing.T) {
	// Two transfers from machine 0 to different destinations must
	// serialize on 0's egress NIC.
	k, f := testFabric(3, testHW())
	var d1, d2 vtime
	f.Transfer(0, 1, 1000, cluster.ProtoNCCL, func() { d1 = k.Now() })
	f.Transfer(0, 2, 1000, cluster.ProtoNCCL, func() { d2 = k.Now() })
	k.Run()
	// first: egress [0,1], ingress [1.001, 2.001]
	// second: egress [1,2], ingress [2.001, 3.001]
	if math.Abs(float64(d1)-2.001) > 1e-9 || math.Abs(float64(d2)-3.001) > 1e-9 {
		t.Fatalf("d1=%v d2=%v, want 2.001, 3.001", d1, d2)
	}
}

func TestIngressContention(t *testing.T) {
	// Two senders to one receiver contend on the receiver's ingress NIC.
	k, f := testFabric(3, testHW())
	var done []vtime
	f.Transfer(0, 2, 1000, cluster.ProtoNCCL, func() { done = append(done, k.Now()) })
	f.Transfer(1, 2, 1000, cluster.ProtoNCCL, func() { done = append(done, k.Now()) })
	k.Run()
	if len(done) != 2 {
		t.Fatalf("deliveries = %d", len(done))
	}
	// Both egress in parallel finish at 1; ingress serializes: 2.001, 3.001.
	if math.Abs(float64(done[0])-2.001) > 1e-9 || math.Abs(float64(done[1])-3.001) > 1e-9 {
		t.Fatalf("done = %v, want [2.001 3.001]", done)
	}
}

func TestFullDuplex(t *testing.T) {
	// A machine can send and receive simultaneously (ring AllReduce relies
	// on this).
	k, f := testFabric(2, testHW())
	var d0, d1 vtime
	f.Transfer(0, 1, 1000, cluster.ProtoNCCL, func() { d0 = k.Now() })
	f.Transfer(1, 0, 1000, cluster.ProtoNCCL, func() { d1 = k.Now() })
	k.Run()
	if math.Abs(float64(d0)-2.001) > 1e-9 || math.Abs(float64(d1)-2.001) > 1e-9 {
		t.Fatalf("full duplex broken: d0=%v d1=%v", d0, d1)
	}
}

func TestLocalTransferBypassesNetwork(t *testing.T) {
	k, f := testFabric(2, testHW())
	delivered := false
	f.Transfer(0, 0, 1<<20, cluster.ProtoRPC, func() { delivered = true })
	k.Run()
	if !delivered {
		t.Fatal("local transfer not delivered")
	}
	if f.TotalBytes(0) != 0 || f.TotalBytes(1) != 0 {
		t.Fatal("local transfer counted as network bytes")
	}
}

func TestByteAccounting(t *testing.T) {
	k, f := testFabric(3, testHW())
	f.Transfer(0, 1, 100, cluster.ProtoNCCL, nil)
	f.Transfer(0, 2, 50, cluster.ProtoRPC, nil)
	f.Transfer(2, 0, 25, cluster.ProtoRPC, nil)
	f.Transfer(1, 1, 1000, cluster.ProtoRPC, nil) // local bus: a message, no network bytes
	k.Run()
	// Each byte counts at its sender and at its receiver.
	for m, want := range []int64{175, 100, 75} {
		if got := f.TotalBytes(m); got != want {
			t.Errorf("machine %d moved %d bytes, want %d", m, got, want)
		}
	}
	if f.Transfers() != 4 {
		t.Fatalf("transfers = %d", f.Transfers())
	}
}

func TestTransferFromFutureEvent(t *testing.T) {
	k, f := testFabric(2, testHW())
	var at vtime
	k.After(5, func() {
		f.Transfer(0, 1, 1000, cluster.ProtoNCCL, func() { at = k.Now() })
	})
	k.Run()
	want := vtime(5 + 1 + 0.001 + 1)
	if math.Abs(float64(at-want)) > 1e-9 {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestLateReadyTransferDoesNotBlockEarlyOne(t *testing.T) {
	// A transfer that becomes ready at t=10 must not delay one ready at
	// t=0, even if the late one is *scheduled* first — the regression the
	// two-stage booking discipline prevents.
	k, f := testFabric(3, testHW())
	var early, late vtime
	k.After(10, func() {
		f.Transfer(1, 2, 1000, cluster.ProtoNCCL, func() { late = k.Now() })
	})
	k.After(0, func() {
		f.Transfer(0, 2, 1000, cluster.ProtoNCCL, func() { early = k.Now() })
	})
	k.Run()
	if math.Abs(float64(early)-2.001) > 1e-9 {
		t.Fatalf("early delivery at %v, want 2.001", early)
	}
	if math.Abs(float64(late)-12.001) > 1e-9 {
		t.Fatalf("late delivery at %v, want 12.001", late)
	}
}

func TestLocalBusCost(t *testing.T) {
	k, f := testFabric(1, testHW())
	var at vtime
	f.Local(0, 1_000_000, func() { at = k.Now() }) // 1e6 B at 1e6 B/s = 1s
	k.Run()
	if math.Abs(float64(at)-1) > 1e-9 {
		t.Fatalf("local bus completion %v, want 1", at)
	}
}

func TestHotSpotAsymmetry(t *testing.T) {
	// The PS hot-spot of §3.1: one machine serving a variable to N-1
	// pullers is bottlenecked on its egress; the same volume moved in a
	// balanced ring is not. With 4 machines and w bytes per pull, server
	// egress takes 3w/B while ring steps overlap across NICs.
	const w = 12000
	hw := testHW()
	hw.NetLatency = 0
	arrived := func() {} // an event at delivery, so the kernel's clock ends there

	// Server pattern: machine 0 sends w to each of 1..3.
	k1, f1 := testFabric(4, hw)
	for d := 1; d < 4; d++ {
		f1.Transfer(0, d, w, cluster.ProtoNCCL, arrived)
	}
	k1.Run()

	// Ring pattern: every machine sends w/4 to its successor, 2*(N-1)
	// rounds; all NICs busy in parallel.
	k2, f2 := testFabric(4, hw)
	for step := 0; step < 6; step++ {
		for m := 0; m < 4; m++ {
			f2.Transfer(m, (m+1)%4, w/4, cluster.ProtoNCCL, arrived)
		}
	}
	k2.Run()

	if !(k2.Now() < k1.Now()) {
		t.Fatalf("ring (%v) should beat hot-spot server (%v) for same per-variable volume", k2.Now(), k1.Now())
	}
}
