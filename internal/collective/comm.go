// Package collective implements the communication primitives the paper's
// AllReduce architecture relies on — ring AllReduce, ring AllGatherv, and
// Broadcast — as real message-passing algorithms over a pluggable wire
// transport (internal/transport), executed by one goroutine per worker.
//
// These are functional implementations moving real tensor data, used by the
// real-mode training engine and the correctness test suite. The algorithms
// are transport-agnostic: the same schedule runs over the in-process
// fabric (transport.NewInproc, the single-process fast path with pooled
// chunk buffers and zero serialization) or over persistent TCP
// connections between agent processes (transport.DialTCP). The virtual-time
// *cost* of the same communication patterns is modelled separately in
// internal/engine on top of internal/simnet; keeping data plane and cost
// plane separate lets us run paper-scale byte volumes without allocating
// paper-scale tensors.
package collective

import (
	"fmt"
	"sync"

	"parallax/internal/transport"
)

// Comm is one worker rank's endpoint in a collective group: a transport
// conduit plus the group size. The group is the first size endpoints of
// the conduit's topology (worker ranks come first, parameter-server
// endpoints after), so collectives never address a server endpoint.
type Comm struct {
	t    transport.Conduit
	rank int
	n    int
}

// NewComm wraps a transport conduit into a collective endpoint for a
// group of size worker ranks. The conduit's rank must lie inside the
// group.
func NewComm(t transport.Conduit, size int) *Comm {
	if r := t.Rank(); r < 0 || r >= size {
		panic(fmt.Sprintf("collective: conduit rank %d outside group [0,%d)", r, size))
	}
	return &Comm{t: t, rank: t.Rank(), n: size}
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the group size.
func (c *Comm) Size() int { return c.n }

// SendScalar ships one float64 to dst under tag (loss exchange,
// barriers).
func (c *Comm) SendScalar(dst int, tag string, v float64) { c.t.SendScalar(dst, tag, v) }

// RecvScalar blocks for a float64 from src under tag. A tag mismatch
// means the two ranks' protocols diverged; that is a bug, so the
// transport panics rather than silently reordering.
func (c *Comm) RecvScalar(src int, tag string) float64 { return c.t.RecvScalar(src, tag) }

// Barrier blocks until all ranks have entered it. Implemented as a
// dissemination barrier (log₂ rounds).
func (c *Comm) Barrier(tag string) {
	n := c.n
	for dist := 1; dist < n; dist *= 2 {
		dst := (c.rank + dist) % n
		src := (c.rank - dist + n) % n
		c.t.SendScalar(dst, tag, 0)
		c.t.RecvScalar(src, tag)
	}
}

// CloseBarrier is Barrier for shutdown paths: it rendezvouses all ranks
// but treats the fabric closing mid-barrier as completion. The
// dissemination barrier has the property that any rank completing it
// proves every rank has ENTERED it — and ranks enter only after their
// last step's traffic is fully acknowledged — so once a peer finishes
// and tears its fabric down (which fail-stops connected fabrics), the
// only messages lost are barrier scalars and the drain guarantee the
// barrier exists for already holds. Sends on a closed fabric drop
// silently; a recv on one raises transport.ClosedPanic, which this
// absorbs — and nothing else: a tag mismatch or a nil conduit is a bug
// at shutdown as much as mid-step, and propagates.
func (c *Comm) CloseBarrier(tag string) {
	defer func() {
		if p := recover(); p != nil {
			if _, closed := p.(transport.ClosedPanic); !closed {
				panic(p)
			}
		}
	}()
	c.Barrier(tag)
}

// World is the in-process convenience fabric for a fixed group of worker
// ranks — the harness tests and the single-process trainer path build
// on. It wraps an in-process fabric (transport.NewInproc).
type World struct {
	fab  *transport.TCP
	size int
}

// NewWorld creates an in-process transport for size worker ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("collective: world size %d", size))
	}
	return &World{fab: transport.NewInproc(transport.WorkersOnly(size)), size: size}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns the endpoint for the given rank.
func (w *World) Comm(rank int) *Comm {
	return NewComm(w.fab.Conduit(rank), w.size)
}

// RunWorld spawns fn for every rank on its own goroutine and waits for all
// to finish. It is the harness the tests and real-mode engine use.
func RunWorld(size int, fn func(c *Comm)) {
	w := NewWorld(size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
}
