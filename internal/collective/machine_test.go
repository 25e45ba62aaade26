package collective

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// machineMajor expands GPUs-per-machine counts into the rank→machine map
// cluster.ResourceInfo.WorkerMachines produces.
func machineMajor(gpus []int) []int {
	var out []int
	for m, g := range gpus {
		for i := 0; i < g; i++ {
			out = append(out, m)
		}
	}
	return out
}

func layoutTopo(machineOf []int) transport.Topology {
	return transport.Topology{Workers: len(machineOf), Machines: machineOf[len(machineOf)-1] + 1, MachineOfWorker: machineOf}
}

// dialMachines builds one TCP fabric per machine of topo on loopback, as
// that many agent processes would.
func dialMachines(t *testing.T, topo transport.Topology) []*transport.TCP {
	t.Helper()
	n := topo.Machines
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for p := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[p], addrs[p] = ln, ln.Addr().String()
	}
	fabs := make([]*transport.TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fabs[p], errs[p] = transport.DialTCP(context.Background(), transport.TCPConfig{
				Topo: topo, Process: p, Addrs: addrs, Listener: lns[p], DialTimeout: 10 * time.Second})
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
	for p, err := range errs {
		if err != nil {
			t.Fatalf("fabric %d: %v", p, err)
		}
	}
	return fabs
}

// runRanks runs fn for every rank of machineOf on its own goroutine, rank
// r over fabs[machineOf[r]] (or fabs[0] when one fabric hosts them all).
func runRanks(fabs []*transport.TCP, machineOf []int, fn func(c *Comm)) {
	var wg sync.WaitGroup
	for r, m := range machineOf {
		if len(fabs) == 1 {
			m = 0
		}
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			fn(c)
		}(NewComm(fabs[m].Conduit(r), machineOf))
	}
	wg.Wait()
}

// specialInput is rank r's contribution: normals at a rank-dependent
// scale (so reassociating the sum changes bits), with NaNs of two
// payloads, ±Inf, −0 and denormals sprinkled at rank-dependent places.
func specialInput(r, n int) []float32 {
	specials := []float32{
		math.Float32frombits(0x7fc00001), float32(math.Inf(1)), float32(math.Copysign(0, -1)),
		math.Float32frombits(1), float32(math.Inf(-1)), math.Float32frombits(0x807fffff),
		math.Float32frombits(0xffc00002), math.Float32frombits(0x00000003),
	}
	out := tensor.NewRNG(int64(1000*r+n)).RandN(1, n).Data()
	scale := float32(math.Ldexp(1, (r*7)%24-12))
	for i := range out {
		out[i] *= scale
		if (i+3*r)%16 == 0 {
			out[i] = specials[(i/16+r)%len(specials)]
		}
	}
	return out
}

// TestAllReduceMachineLevelMatchesSerialFold: on every machine layout —
// one machine, uniform, one GPU per machine, uneven — and every length,
// including fewer elements than lanes, every rank ends with exactly
// quantize(serial rank-order fold of the quantized inputs), NaN payloads
// and signed zeros included, over the all-pipe fabric and over one TCP
// fabric per machine.
func TestAllReduceMachineLevelMatchesSerialFold(t *testing.T) {
	layouts := [][]int{{4}, {2, 2}, {2, 2, 2}, {3, 3}, {1, 1, 1, 1}, {3, 1}, {1, 3}, {2, 1, 3}}
	lengths := []int{1, 2, 23, 4099}
	codecs := []transport.Codec{transport.CodecF32, transport.CodecF16, transport.CodecBF16}
	type tc struct {
		n     int
		codec transport.Codec
	}
	var cases []tc
	for _, n := range lengths {
		for _, codec := range codecs {
			cases = append(cases, tc{n, codec})
		}
	}
	for _, gpus := range layouts {
		machineOf := machineMajor(gpus)
		size := len(machineOf)
		want := make([][]float32, len(cases))
		for k, cs := range cases {
			acc := make([]float32, cs.n)
			for r := 0; r < size; r++ {
				q := specialInput(r, cs.n)
				cs.codec.Quantize(q)
				if r == 0 {
					copy(acc, q)
				} else {
					tensor.AddTo(q, acc)
				}
			}
			cs.codec.Quantize(acc)
			want[k] = acc
		}
		for _, fabric := range []string{"inproc", "tcp"} {
			if fabric == "tcp" && len(gpus) == 1 {
				continue // one machine is one process: nothing to dial
			}
			t.Run(fmt.Sprintf("%v/%s", gpus, fabric), func(t *testing.T) {
				fabs := []*transport.TCP{transport.NewInproc(layoutTopo(machineOf))}
				if fabric == "tcp" {
					fabs = dialMachines(t, layoutTopo(machineOf))
				}
				got := make([][][]float32, size)
				runRanks(fabs, machineOf, func(c *Comm) {
					for _, cs := range cases {
						d := tensor.FromSlice(specialInput(c.Rank(), cs.n), cs.n)
						AllReduceCodecTagged(c, TagsFor("m"), d, cs.codec)
						got[c.Rank()] = append(got[c.Rank()], d.Data())
					}
				})
				for r := range got {
					for k, cs := range cases {
						for i, v := range got[r][k] {
							if math.Float32bits(v) != math.Float32bits(want[k][i]) {
								t.Fatalf("rank %d len %d %s elem %d: %#08x, serial fold %#08x",
									r, cs.n, cs.codec, i, math.Float32bits(v), math.Float32bits(want[k][i]))
							}
						}
					}
				}
			})
		}
	}
}

// A layout that is not machine-major — interleaved, out of order, or
// skipping a machine — is refused when the endpoint is built.
func TestNewCommRefusesNonMachineMajorLayout(t *testing.T) {
	fab := transport.NewInproc(transport.WorkersOnly(4))
	for _, machineOf := range [][]int{{0, 1, 0, 1}, {1, 1, 0, 0}, {0, 0, 2, 2}, {0, 1, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewComm accepted layout %v", machineOf)
				}
			}()
			NewComm(fab.Conduit(0), machineOf)
		}()
	}
}

// TestAllReduceCrossesTheMachineLinkOnce pins the schedule's wire volume
// to the paper's Table 3: one exact AllReduce of S floats over M machines
// puts 2(M−1)·4·S payload bytes on the sockets, plus a frame header per
// lane message — where the flat per-GPU exchange moved 3.5·S·4 on 2×2.
func TestAllReduceCrossesTheMachineLinkOnce(t *testing.T) {
	const S = 6000
	for _, gpus := range [][]int{{2, 2}, {2, 2, 2}} {
		t.Run(fmt.Sprint(gpus), func(t *testing.T) {
			machineOf := machineMajor(gpus)
			fabs := dialMachines(t, layoutTopo(machineOf))
			sent := func() (b int64) {
				for _, f := range fabs {
					b += f.Stats().SentBytes
				}
				return b
			}
			before := sent()
			runRanks(fabs, machineOf, func(c *Comm) {
				AllReduceTagged(c, TagsFor("x"), tensor.NewRNG(int64(c.Rank())).RandN(1, S))
			})
			moved := sent() - before
			payload := int64(2 * (len(gpus) - 1) * 4 * S)
			if moved < payload || moved >= payload+1024 {
				t.Fatalf("one AllReduce of %d floats moved %d B over the sockets, want %d B of payload plus headers (< 1 KiB)",
					S, moved, payload)
			}
		})
	}
}
