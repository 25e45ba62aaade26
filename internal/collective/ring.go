package collective

import (
	"fmt"

	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// chunkBounds splits n elements into size near-equal contiguous chunks and
// returns the [start,end) of chunk i.
func chunkBounds(n, size, i int) (int, int) {
	base, extra := n/size, n%size
	start := i*base + min(i, extra)
	length := base
	if i < extra {
		length++
	}
	return start, start + length
}

// Tags holds the per-phase rendezvous tags of one AllReduce route,
// precomputed at build time so the hot loop never concatenates strings.
// One tag per phase is enough even across steps: each directed pair's
// stream is FIFO and all ranks advance through an identical deterministic
// schedule, so per-step or per-round tags would only re-verify ordering
// the transport already guarantees (a schedule divergence still panics on
// the tag check).
type Tags struct {
	RS string // reduce-scatter phase
	AG string // all-gather phase
}

// TagsFor derives the phase tags from a route's base tag.
func TagsFor(base string) Tags { return Tags{RS: base + "/rs", AG: base + "/ag"} }

// AllReduceTagged is AllReduceCodecTagged under the exact codec: it sums
// t element-wise across all ranks, leaving every rank with the identical
// total.
func AllReduceTagged(c *Comm, tags Tags, t *tensor.Dense) {
	AllReduceCodecTagged(c, tags, t, transport.CodecF32)
}

// AllReduceCodecTagged is the dense aggregation path for the AR and
// hybrid architectures: a machine-level, rank-ordered schedule that
// crosses the machine boundary once. t is modified in place.
//
// The tensor is split into L lanes, L the fewest ranks on any machine;
// lane j is led on every machine by that machine's j-th rank.
//
//  1. Every rank sends each lane's slice to its own machine's lane
//     leader (over a pipe when the machine is one process).
//  2. Machine 0's leader folds its machine's contributions in rank order
//     (copy the first, then AddTo) and sends the partial sum to machine
//     1's leader as exact f32, whatever the codec. Each later leader
//     folds its own ranks, in rank order, on top of the partial it
//     received and passes the result on.
//  3. The last machine's leader rounds the lane onto the codec's grid and
//     sends it under the codec to every other machine's leader of that
//     lane; each leader then hands the lane to its local peers.
//
// Ranks are machine-major, so every element is quantize(((q0+q1)+q2)+…)
// over ranks 0..N−1 — the serial rank-order fold, whichever lane the
// element lands in and whatever the machine layout. That makes the sum
// independent of chunk layout, which is what lets transform's fusion
// buckets produce bit-identical results to per-variable collectives (the
// property the fusion equivalence tests pin down), and independent of the
// fabric. A hierarchical ring would cross the link just as rarely but
// reassociates the sum.
//
// Per lane, M machines move (M−1) partials and (M−1) finals across the
// machine link: 2(M−1)·w in all for a tensor of w bytes, the paper's
// Table 3 total. On one machine the schedule is a rank-ordered
// reduce-scatter followed by a direct all-gather; with one rank per
// machine it is a serial chain.
//
// Payloads travel under codec, following the wire compression contract
// (internal/transport/compress.go): each contribution is rounded onto the
// codec's grid here in the data plane, the leaders fold in exact f32, and
// the folded lane is re-rounded before it fans out. Under CodecF32 both
// roundings are no-ops and this is the exact sum. The partial is the one
// frame a codec does not narrow: rounding it would round the sum twice.
//
// Lanes are sent straight from the tensor's storage (SendF32C borrows the
// slice: a pipe copies it into a pooled buffer, a socket serializes it
// before returning); received lanes arrive in pooled buffers the receiver
// recycles once folded. Each directed pair exchanges at most one message
// per tag per call.
func AllReduceCodecTagged(c *Comm, tags Tags, t *tensor.Dense, codec transport.Codec) {
	data := t.Data()
	codec.Quantize(data)
	if c.n == 1 {
		return
	}
	lo := c.first[c.mach]
	for j := 0; j < c.lanes; j++ {
		s, e := chunkBounds(len(data), c.lanes, j)
		if e > s && lo+j != c.rank {
			c.t.SendF32C(lo+j, tags.RS, data[s:e], codec)
		}
	}
	if j := c.rank - lo; j < c.lanes {
		if s, e := chunkBounds(len(data), c.lanes, j); e > s {
			c.leadLane(tags, j, data[s:e], codec)
		}
	}
	for j := 0; j < c.lanes; j++ {
		s, e := chunkBounds(len(data), c.lanes, j)
		if e > s && lo+j != c.rank {
			c.recvInto(lo+j, tags.AG, data[s:e])
		}
	}
}

// leadLane is lane j's leader on this rank's machine: it folds the lane
// across machines and fans the result out. lane holds this rank's
// contribution on entry and the reduced lane on return.
func (c *Comm) leadLane(tags Tags, j int, lane []float32, codec transport.Codec) {
	lo, hi, last := c.first[c.mach], c.first[c.mach+1], len(c.first)-2
	var acc []float32 // the rank-order sum so far, in a pooled buffer
	if c.mach > 0 {
		acc = c.recvChunk(c.first[c.mach-1]+j, tags.RS, len(lane))
	}
	for r := lo; r < hi; r++ {
		src := lane
		if r != c.rank {
			src = c.recvChunk(r, tags.RS, len(lane))
		}
		if acc == nil {
			acc = c.t.GetBuf(len(lane))
			copy(acc, src)
		} else {
			tensor.AddTo(src, acc)
		}
		if r != c.rank {
			c.t.PutBuf(src)
		}
	}
	if c.mach < last {
		c.t.SendF32C(c.first[c.mach+1]+j, tags.RS, acc, transport.CodecF32)
		c.t.PutBuf(acc)
		c.recvInto(c.first[last]+j, tags.AG, lane)
	} else {
		copy(lane, acc)
		c.t.PutBuf(acc)
		codec.Quantize(lane)
		for m := 0; m < last; m++ {
			c.t.SendF32C(c.first[m]+j, tags.AG, lane, codec)
		}
	}
	for r := lo; r < hi; r++ {
		if r != c.rank {
			c.t.SendF32C(r, tags.AG, lane, codec)
		}
	}
}

// recvChunk receives a float chunk of n values from src under tag; the
// caller returns it with PutBuf.
func (c *Comm) recvChunk(src int, tag string, n int) []float32 {
	in := c.t.RecvF32(src, tag)
	if len(in) != n {
		panic(fmt.Sprintf("collective: rank %d tag %q from %d: chunk of %d values, want %d", c.rank, tag, src, len(in), n))
	}
	return in
}

// recvInto receives a chunk of len(dst) values from src under tag into dst.
func (c *Comm) recvInto(src int, tag string, dst []float32) {
	in := c.recvChunk(src, tag, len(dst))
	copy(dst, in)
	c.t.PutBuf(in)
}

// AllGathervTagged is the aggregation path for *sparse* gradients in the
// pure-AR architecture (§2.1: AllGatherv "aggregates gradients by
// concatenating"): every rank's gradient concatenated in rank order, on
// all ranks, under a caller-prepared tag. It uses a ring: each of
// the N−1 steps forwards the block received in the previous step. Blocks
// travel read-only (a pipe shares pointers; a socket
// delivers fresh decoded tensors), and ConcatSparse copies them out, so
// no received block is retained past the call.
func AllGathervTagged(c *Comm, tag string, s *tensor.Sparse) *tensor.Sparse {
	n := c.Size()
	if n == 1 {
		return s.Clone()
	}
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	blocks := make([]*tensor.Sparse, n)
	blocks[c.rank] = s
	cur := s
	for step := 0; step < n-1; step++ {
		c.t.SendSparse(right, tag, cur)
		cur = c.t.RecvSparse(left, tag)
		origin := (c.rank - step - 1 + n) % n
		blocks[origin] = cur
	}
	return tensor.ConcatSparse(blocks)
}

// Broadcast copies root's tensor to every rank (in place on non-roots)
// using a binomial tree, log₂(N) rounds. Used to synchronize initial
// variable values across AR replicas so all workers start identical.
func Broadcast(c *Comm, tag string, t *tensor.Dense, root int) {
	n := c.Size()
	if n == 1 {
		return
	}
	// Re-index ranks so root is virtual rank 0.
	vr := (c.rank - root + n) % n
	for dist := 1; dist < n; dist *= 2 {
		if vr < dist {
			peer := vr + dist
			if peer < n {
				dst := (peer + root) % n
				c.t.SendF32(dst, tag, t.Data())
			}
		} else if vr < dist*2 {
			src := ((vr - dist) + root) % n
			in := c.t.RecvF32(src, tag)
			if len(in) != t.NumElements() {
				panic(fmt.Sprintf("collective: broadcast size mismatch %d vs %d", len(in), t.NumElements()))
			}
			copy(t.Data(), in)
			c.t.PutBuf(in)
		}
	}
}

// AllGatherScalarsInto gathers every rank's v into out (out[r] holds rank
// r's value on every rank; len(out) must be the group size). It is a
// direct exchange — one scalar per directed pair — used by the
// distributed trainer to combine per-worker losses in a fixed rank order,
// so the reported mean is bitwise identical to the single-process sum.
func AllGatherScalarsInto(c *Comm, tag string, v float64, out []float64) {
	n := c.Size()
	if len(out) != n {
		panic(fmt.Sprintf("collective: gather into %d slots for %d ranks", len(out), n))
	}
	out[c.rank] = v
	for p := 0; p < n; p++ {
		if p != c.rank {
			c.t.SendScalar(p, tag, v)
		}
	}
	for p := 0; p < n; p++ {
		if p != c.rank {
			out[p] = c.t.RecvScalar(p, tag)
		}
	}
}
