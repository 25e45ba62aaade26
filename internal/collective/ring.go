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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
// hybrid architectures: a rank-ordered reduce-scatter followed by the
// bandwidth-optimal ring all-gather (Patarasuk & Yuan [31]); each phase
// moves (N−1)/N of the tensor per rank, the same volume as the classic
// ring. t is modified in place.
//
// The reduce-scatter deviates from the pipelined ring deliberately: rank i
// owns chunk i, every rank sends its slice of chunk c directly to c's
// owner, and the owner folds the contributions in rank order 0..N−1. A
// pipelined ring folds chunk c starting at rank c, so an element's
// float32 accumulation order depends on which chunk it lands in — and
// therefore on the tensor's position inside a fused buffer. The
// rank-ordered fold makes every element's sum independent of chunk
// layout, which is what lets transform's fusion buckets produce
// bit-identical results to per-variable collectives (and is the property
// the fusion equivalence tests pin down).
//
// Payloads travel under codec, following the wire compression contract
// (internal/transport/compress.go): the tensor is rounded onto the
// codec's grid here in the data plane, the owner folds in exact f32, and
// the folded chunks are re-rounded before the all-gather so the second
// phase travels at the same width. Every rank ends with the identical
// tensor: per chunk, quantize(sum over ranks of quantize(contribution)).
// Under CodecF32 both roundings are no-ops and this is the exact sum.
//
// Chunks are sent straight from the tensor's storage (SendF32C borrows
// the slice: a pipe copies it into a pooled buffer, a socket serializes
// it before returning); received chunks arrive in pooled buffers the
// receiver recycles once folded.
func AllReduceCodecTagged(c *Comm, tags Tags, t *tensor.Dense, codec transport.Codec) {
	data := t.Data()
	codec.Quantize(data)
	n := c.Size()
	if n == 1 {
		return
	}

	// Reduce-scatter: direct exchange, one message per directed pair.
	for dst := 0; dst < n; dst++ {
		if dst == c.rank {
			continue
		}
		ss, se := chunkBounds(len(data), n, dst)
		if se == ss {
			continue // empty chunk: owner skips the fold symmetrically
		}
		c.t.SendF32C(dst, tags.RS, data[ss:se], codec)
	}
	os, oe := chunkBounds(len(data), n, c.rank)
	if oe > os {
		own := data[os:oe]
		tmp := c.t.GetBuf(oe - os)
		copy(tmp, own)
		for r := 0; r < n; r++ {
			src := tmp
			if r != c.rank {
				in := c.t.RecvF32(r, tags.RS)
				if len(in) != oe-os {
					panic(fmt.Sprintf("collective: allreduce chunk size mismatch %d vs %d", len(in), oe-os))
				}
				src = in
			}
			if r == 0 {
				copy(own, src)
			} else {
				tensor.AddTo(src, own)
			}
			if r != c.rank {
				c.t.PutBuf(src)
			}
		}
		c.t.PutBuf(tmp)
		// Back onto the grid before the all-gather re-ships it.
		codec.Quantize(own)
	}

	// All-gather: circulate the fully reduced chunks around the ring.
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendChunk := (c.rank - s + n) % n
		recvChunk := (c.rank - s - 1 + n) % n
		ss, se := chunkBounds(len(data), n, sendChunk)
		c.t.SendF32C(right, tags.AG, data[ss:se], codec)
		in := c.t.RecvF32(left, tags.AG)
		rs, re := chunkBounds(len(data), n, recvChunk)
		if len(in) != re-rs {
			panic(fmt.Sprintf("collective: allgather chunk size mismatch %d vs %d", len(in), re-rs))
		}
		copy(data[rs:re], in)
		c.t.PutBuf(in)
	}
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
