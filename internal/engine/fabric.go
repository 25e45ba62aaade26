package engine

import "parallax/internal/cluster"

// fabric is the NIC model of the simulated cluster: one full-duplex NIC per
// machine (separate egress and ingress FIFO resources), per-protocol
// effective bandwidth, a fixed per-message latency, a local bus per machine,
// and per-machine byte accounting.
//
// The byte counters are what Table 3 of the paper analyses — the amount of
// network transfer each machine does per iteration — and what
// internal/experiments checks against the paper's closed-form expressions.
// Transfers are booked in two stages (see the package doc).
type fabric struct {
	k  *kernel
	hw cluster.Hardware

	egress, ingress []resource
	local           []resource // intra-machine bus

	bytes     []int64 // network bytes sent + received, per machine
	transfers int64
}

// newFabric returns a fabric for n machines on kernel k.
func newFabric(k *kernel, n int, hw cluster.Hardware) *fabric {
	f := &fabric{
		k:       k,
		hw:      hw,
		egress:  make([]resource, n),
		ingress: make([]resource, n),
		local:   make([]resource, n),
		bytes:   make([]int64, n),
	}
	for m := 0; m < n; m++ {
		f.egress[m].k, f.ingress[m].k, f.local[m].k = k, k, k
	}
	return f
}

// Transfer moves bytes from machine src to machine dst over the given
// protocol and invokes deliver when the last byte arrives at dst. The data
// is taken to be ready now. Transfers between co-located endpoints
// (src == dst) use the machine-local bus and are not counted as network
// traffic, matching the paper's model where a worker and its machine's
// server communicate "locally within the machine without involving network
// communication" (§3.1).
func (f *fabric) Transfer(src, dst int, bytes int64, proto cluster.Protocol, deliver func()) {
	if bytes < 0 {
		panic("engine: negative transfer size")
	}
	f.transfers++
	if src == dst {
		f.Local(src, bytes, deliver)
		return
	}
	f.bytes[src] += bytes
	f.bytes[dst] += bytes
	dur := vtime(float64(bytes) / f.hw.Bandwidth(proto))
	lat := vtime(f.hw.NetLatency)
	f.egress[src].Use(dur, func() {
		f.k.After(lat, func() {
			f.ingress[dst].Use(dur, deliver)
		})
	})
}

// Local occupies machine m's local bus (PCIe/NVLink class) for moving
// bytes, starting now, and invokes done at completion. Used for
// intra-machine gradient staging, local aggregation and broadcast.
func (f *fabric) Local(m int, bytes int64, done func()) {
	if bytes < 0 {
		panic("engine: negative local transfer size")
	}
	f.local[m].Use(vtime(float64(bytes)/f.hw.LocalBusBandwidth), done)
}

// TotalBytes returns the network bytes machine m has sent and received —
// the per-machine "amount of network transfer" of Table 3.
func (f *fabric) TotalBytes(m int) int64 { return f.bytes[m] }

// Transfers returns the number of Transfer calls (message count).
func (f *fabric) Transfers() int64 { return f.transfers }
