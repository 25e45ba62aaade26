// Package collective implements the communication primitives the paper's
// AllReduce architecture relies on — a machine-level AllReduce, ring
// AllGatherv, and Broadcast — as real message-passing algorithms over a
// pluggable wire transport (internal/transport), executed by one goroutine
// per worker.
//
// These are functional implementations moving real tensor data, used by the
// real-mode training engine and the correctness test suite. The algorithms
// are transport-agnostic: the same schedule runs over the in-process
// fabric (transport.NewInproc, the single-process fast path with pooled
// chunk buffers and zero serialization) or over persistent TCP
// connections between agent processes (transport.DialTCP). A Comm knows
// which machine each rank sits on, so the dense AllReduce can stage its
// machine-local merge among a machine's own ranks and cross the machine
// boundary once, moving the paper's Table 3 volume. The virtual-time
// *cost* of the same communication patterns is modelled separately in
// internal/engine, on its own NIC model; keeping data plane and cost plane
// separate lets us run paper-scale byte volumes without allocating
// paper-scale tensors.
//
// One property of every algorithm here is load-bearing for shutdown
// (DESIGN.md §8): every message a collective sends is one its peer
// receives in the same collective, and a rank has sent all of it before
// it returns, so a rank that has completed a collective has nothing
// outstanding and may close its fabric without waiting for the others.
// That is why there is no barrier primitive: an all-to-all agreement
// (AllGatherScalarsInto) is the only rendezvous the runtime needs.
package collective

import (
	"fmt"

	"parallax/internal/transport"
)

// Comm is one worker rank's endpoint in a collective group: a transport
// conduit plus the group's machine layout. The group is the first
// len(machineOf) endpoints of the conduit's topology (worker ranks come
// first, parameter-server endpoints after), so collectives never address
// a server endpoint.
type Comm struct {
	t    transport.Conduit
	rank int
	n    int
	mach int // this rank's machine
	// first[m] is machine m's lowest rank; first[len(first)-1] is n.
	first []int
	// lanes is the fewest ranks on any machine: the AllReduce splits a
	// tensor into that many lanes, lane j led by each machine's j-th rank.
	lanes int
}

// NewComm wraps a transport conduit into a collective endpoint for a
// group whose rank r sits on machine machineOf[r]. Ranks must be
// machine-major — machine 0's ranks first, then machine 1's, and so on,
// the layout cluster.ResourceInfo.WorkerMachines produces — and the
// conduit's rank must lie inside the group; anything else panics.
func NewComm(t transport.Conduit, machineOf []int) *Comm {
	n := len(machineOf)
	if r := t.Rank(); r < 0 || r >= n {
		panic(fmt.Sprintf("collective: conduit rank %d outside group [0,%d)", r, n))
	}
	c := &Comm{t: t, rank: t.Rank(), n: n, mach: machineOf[t.Rank()], lanes: n}
	for r, m := range machineOf {
		if r > 0 && m == machineOf[r-1] {
			continue
		}
		if m != len(c.first) {
			panic(fmt.Sprintf("collective: rank %d on machine %d: ranks must be machine-major, machines numbered 0,1,… in rank order", r, m))
		}
		c.first = append(c.first, r)
	}
	c.first = append(c.first, n)
	for m := 0; m+1 < len(c.first); m++ {
		c.lanes = min(c.lanes, c.first[m+1]-c.first[m])
	}
	return c
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the group size.
func (c *Comm) Size() int { return c.n }

// SendScalar ships one float64 to dst under tag (loss exchange,
// agreements).
func (c *Comm) SendScalar(dst int, tag string, v float64) { c.t.SendScalar(dst, tag, v) }

// RecvScalar blocks for a float64 from src under tag. A tag mismatch
// means the two ranks' protocols diverged; that is a bug, so the
// transport panics rather than silently reordering.
func (c *Comm) RecvScalar(src int, tag string) float64 { return c.t.RecvScalar(src, tag) }

// World is the in-process convenience fabric for a fixed group of worker
// ranks on one machine, the harness tests and benchmarks build on. It
// wraps an in-process fabric (transport.NewInproc).
type World struct {
	fab       *transport.TCP
	machineOf []int // all zero: one machine
}

// NewWorld creates an in-process transport for size worker ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("collective: world size %d", size))
	}
	return &World{fab: transport.NewInproc(transport.WorkersOnly(size)), machineOf: make([]int, size)}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.machineOf) }

// Comm returns the endpoint for the given rank.
func (w *World) Comm(rank int) *Comm {
	return NewComm(w.fab.Conduit(rank), w.machineOf)
}
