// Package transport is the wire layer of the functional data plane: it
// abstracts the point-to-point tagged message exchange that the
// collective algorithms (internal/collective) and the parameter-server
// runtime (internal/psrt) are built on, so the same training schedule can
// run over an in-memory channel fabric inside one process or over
// persistent TCP connections between agent processes.
//
// # Endpoints
//
// A training cluster exposes one transport endpoint per communicating
// party: worker (GPU) ranks 0..W-1 followed by parameter-server ranks
// W..W+M-1, one server per machine (Topology). Every endpoint obtains a
// Conduit from the process's Fabric; a message carries its destination
// endpoint and a rendezvous tag. Tags are the build-time strings
// internal/collective and internal/transform precompute ("fuse/0/rs",
// "agv/embedding", ...). Each directed (source, destination) pair is one
// FIFO queue whatever the link, and the tag is an assertion, not an
// address: a receive that finds another tag at the head of its pair's
// queue panics naming both, because the two endpoints' schedules have
// diverged.
//
// # Fabrics
//
// There is one fabric implementation (TCP) and one Conduit behind it. A
// per-endpoint local table decides how a pair exchanges:
//
//   - both endpoints hosted by this process: straight into the pair's
//     queue, a pipe (one buffered Go channel per directed pair); float
//     chunks travel as pooled buffers, sparse tensors and PS batches as
//     pointers. Zero serialization.
//   - otherwise: the persistent length-prefixed framed connection to the
//     peer's process, one dialer/listener pair per peer, reused across
//     steps, whose reader delivers into the same pipe on the far side.
//
// DialTCP builds one agent process's fabric; NewInproc builds the
// instance with every endpoint local, which therefore has no listener,
// connection, reader goroutine or heartbeat.
//
// # Buffer ownership
//
//   - SendF32 borrows data for the duration of the call: the pipe path
//     copies it into a pooled buffer, the wire path writes it to the
//     socket before returning. Either way the caller may reuse (or keep
//     mutating) the slice as soon as the call returns, which is what lets
//     the trainer serialize straight from fusion-bucket storage and
//     SliceRows views.
//   - RecvF32 returns a pooled buffer; the consumer returns it with
//     PutBuf once folded in.
//   - SendSparse hands the tensor to the fabric read-only: the pipe
//     path shares the pointer (the receiver must not mutate it), the wire
//     path serializes it. Receivers of RecvSparse own fresh tensors on
//     the wire path and shared read-only tensors on the pipe path —
//     matching the existing collective AllGatherv contract.
//   - SendPS transfers the message to the fabric; the caller must not
//     touch it afterwards. PS exchanges are strict request/reply (the
//     client blocks on RecvPS before reusing any borrowed dense views
//     inside the request), which is what makes borrowed views safe on
//     the pipe path.
package transport

import (
	"fmt"
	"sync"

	"parallax/internal/tensor"
)

// Topology describes the endpoint space of a training cluster: worker
// endpoints 0..Workers-1, then one parameter-server endpoint per machine.
type Topology struct {
	// Workers is the number of worker (GPU) ranks.
	Workers int
	// Machines is the number of machines; machine m's server is endpoint
	// Workers+m. Zero means a worker-only world (collective tests).
	Machines int
	// MachineOfWorker[w] is the machine hosting worker w. May be nil for
	// single-process fabrics; required by TCP fabrics.
	MachineOfWorker []int
}

// WorkersOnly is the topology of a pure collective world: n worker
// endpoints, no servers.
func WorkersOnly(n int) Topology { return Topology{Workers: n} }

// Endpoints returns the total endpoint count.
func (t Topology) Endpoints() int { return t.Workers + t.Machines }

// ServerEndpoint returns machine m's server endpoint rank.
func (t Topology) ServerEndpoint(m int) int { return t.Workers + m }

// Processes returns the number of agent processes the topology spans
// (one per machine; a worker-only world is one process).
func (t Topology) Processes() int {
	if t.Machines == 0 {
		return 1
	}
	return t.Machines
}

// ProcessOf returns the process (machine index) hosting an endpoint:
// workers live on their machine's agent, server m on agent m.
func (t Topology) ProcessOf(rank int) int {
	if rank < t.Workers {
		if t.MachineOfWorker == nil {
			return 0
		}
		return t.MachineOfWorker[rank]
	}
	return rank - t.Workers
}

// Validate checks internal consistency.
func (t Topology) Validate() error {
	if t.Workers <= 0 {
		return fmt.Errorf("transport: topology needs at least one worker, got %d", t.Workers)
	}
	if t.Machines < 0 {
		return fmt.Errorf("transport: negative machine count %d", t.Machines)
	}
	if t.MachineOfWorker != nil {
		if len(t.MachineOfWorker) != t.Workers {
			return fmt.Errorf("transport: MachineOfWorker has %d entries for %d workers",
				len(t.MachineOfWorker), t.Workers)
		}
		for w, m := range t.MachineOfWorker {
			if m < 0 || m >= t.Processes() {
				return fmt.Errorf("transport: worker %d on machine %d of %d", w, m, t.Processes())
			}
		}
	}
	return nil
}

// Stats counts the bytes a fabric moved over real wires: framed socket
// bytes in both directions. Local pairs exchange over pipes and are
// excluded, so an in-process fabric always reports zeros.
type Stats struct {
	SentBytes int64
	RecvBytes int64
	// SentBytesRaw and SentBytesCompressed cover only the frames that
	// travelled under a half-precision codec or as a top-k selection: Raw
	// is the bytes the same frames would occupy under CodecF32 (a
	// kindF32Sparse frame counts as the dense chunk it replaces),
	// Compressed their actual on-wire size. Both stay zero under
	// CompressionNone; their ratio is the wire compression factor.
	SentBytesRaw        int64
	SentBytesCompressed int64
}

// Conduit is one endpoint's handle on the fabric: point-to-point tagged
// message exchange with the other endpoints of the topology. All methods
// are safe for use by the multiple goroutines a trainer endpoint runs
// (worker, comm goroutine), provided no two goroutines exchange with the
// same peer concurrently — the pair's one FIFO, not the tag, carries the
// order the collective schedule relies on.
type Conduit interface {
	// Rank returns this endpoint's rank in the topology.
	Rank() int

	// SendF32 ships a float32 chunk to dst under tag; data is borrowed
	// for the duration of the call only.
	SendF32(dst int, tag string, data []float32)
	// RecvF32 blocks for a float32 chunk from src under tag. The returned
	// buffer is pooled: pass it to PutBuf once consumed.
	RecvF32(src int, tag string) []float32
	// GetBuf returns a length-n pooled float buffer (contents
	// unspecified); PutBuf recycles buffers from GetBuf or RecvF32.
	GetBuf(n int) []float32
	PutBuf(b []float32)

	// SendF32C is SendF32 under a wire payload codec (SendF32 is its
	// CodecF32 call): cross-process links encode the chunk at 2
	// bytes/value for CodecF16/CodecBF16. The values must already lie on
	// the codec's grid (the data plane quantizes before sending), which
	// keeps the encoding lossless and the schedule bit-identical across
	// fabrics. RecvF32 receives every codec.
	SendF32C(dst int, tag string, data []float32, codec Codec)

	// SendF32Sparse ships a top-k sparsified dense chunk (a
	// kindF32Sparse frame on the wire: delta-varint indices plus values
	// under the chunk's codec). The chunk's slices are borrowed for the
	// duration of the call; RecvF32Sparse returns receiver-owned fresh
	// slices.
	SendF32Sparse(dst int, tag string, ch SparseChunk)
	RecvF32Sparse(src int, tag string) SparseChunk

	// SendSparse ships a sparse tensor read-only; see the package comment
	// for ownership.
	SendSparse(dst int, tag string, s *tensor.Sparse)
	RecvSparse(src int, tag string) *tensor.Sparse

	// SendScalar / RecvScalar exchange one float64 (loss aggregation,
	// barriers).
	SendScalar(dst int, tag string, v float64)
	RecvScalar(src int, tag string) float64

	// SendPS ships a parameter-server request or reply; the message
	// belongs to the fabric after the call. RecvPS returns nil once the
	// fabric is closed or src's process has said goodbye, which is how
	// long-running serving loops learn to exit.
	SendPS(dst int, tag string, m *PSMsg)
	RecvPS(src int, tag string) *PSMsg
}

// Fabric owns the transport state of one process: the conduits of its
// local endpoints and the pipes/connections behind them.
type Fabric interface {
	Topology() Topology
	// Local reports whether an endpoint is hosted by this process.
	Local(rank int) bool
	// Conduit returns the handle for a local endpoint.
	Conduit(rank int) Conduit
	// Distributed reports whether any endpoint lives in another process.
	Distributed() bool
	// Stats returns cumulative wire-byte counters.
	Stats() Stats
	// Err returns the rank-attributed failure that tore the fabric down
	// (wrapping errs.ErrPeerFailed), or nil while the fabric is healthy
	// or after an orderly Close.
	Err() error
	// Fail records a failure attributed to process rank and tears the
	// fabric down abruptly, as if this process had crashed — the fault
	// injection hook (internal/chaos).
	Fail(rank int, cause error)
	// Done is closed when the fabric shuts down — by Close or by a
	// failure — so watchers (server-abort, chaos) can react without
	// polling.
	Done() <-chan struct{}
	// Close tears the fabric down, waiting for no peer; blocked RecvPS
	// calls return nil. Close is idempotent.
	Close() error
}

// PSOp discriminates parameter-server wire operations.
type PSOp uint8

// Parameter-server operations: requests carry the batched shapes of
// psrt's PullManyInto / PushDenseMany / PushSparseMany plus the
// chief-clipping calls and the resharding snapshot read; PSReply answers
// all of them. PSReply must stay the highest value — the decoder rejects
// ops above it.
const (
	PSPullMany PSOp = iota + 1
	PSPushDenseMany
	PSPushSparseMany
	PSNormSquared
	PSApplyUpdate
	// PSSnapshot reads one partition's value plus its optimizer slot
	// state (live resharding's gather phase): request Names[0]/Parts[0]
	// with Version as the minimum applied-update count; the reply's
	// Dense[0] is the value, Dense[1:] the slot tensors.
	PSSnapshot
	PSReply
)

// PSMsg is one parameter-server request or reply. Names/Parts address
// the variable partitions of a batch; Dense and Sparse carry per-item
// payloads (Dense entries are flattened to rank-1 on the wire — both
// sides know the real partition shapes). A reply carries Err (empty on
// success), Scalar for norm reads, and Dense for pull results.
//
// Rows makes a pull row-addressed: it is nil, or holds one entry per
// item (a shorter one leaves the rest whole), and a non-nil Rows[i] lists the partition-local rows item i
// asks for — strictly ascending, so they travel as delta-varints — in
// place of the whole partition. The reply's Dense[i] is then those rows
// packed in list order.
type PSMsg struct {
	Op      PSOp
	Version int64   // minVersion (pull) or aggregation seq (norm)
	Scale   float32 // ApplyUpdate scale
	Scalar  float64 // norm reply
	Err     string  // reply error, "" on success
	Names   []string
	Parts   []int
	Rows    [][]int
	Dense   []*tensor.Dense
	Sparse  []*tensor.Sparse

	// Codec is a wire-encoding hint, not semantic payload: cross-process
	// links encode the Dense and Sparse values (which must already lie on
	// the codec's grid) at 2 bytes/value for CodecF16/CodecBF16.
	Codec Codec
}

// RowsAt returns item i's row list, nil when it asks for its whole
// partition.
func (m *PSMsg) RowsAt(i int) []int {
	if i >= len(m.Rows) {
		return nil
	}
	return m.Rows[i]
}

// kind discriminates fabric datagrams.
type kind uint8

const (
	kindF32 kind = iota + 1
	kindSparse
	kindScalar
	kindPS
	// kindF32Sparse is a top-k sparsified dense chunk: delta-varint
	// indices plus surviving values.
	kindF32Sparse
)

// message is one fabric datagram.
type message struct {
	tag  string
	kind kind
	// codec is the wire encoding of the float values the message carries
	// (f32 chunk, sparse values, PS payloads, top-k survivors); the zero
	// value is exact f32. Pipes ignore it.
	codec  Codec
	f32    []float32
	sparse *tensor.Sparse
	scalar float64
	ps     *PSMsg
	topk   *SparseChunk
}

// bufPool recycles float chunk buffers by exact length, the same
// discipline the collective world pool used: a persistent training loop
// reuses the same handful of buffers every step.
type bufPool struct {
	mu   sync.Mutex
	bufs map[int][][]float32
}

func newBufPool() *bufPool { return &bufPool{bufs: make(map[int][][]float32)} }

func (p *bufPool) get(n int) []float32 {
	p.mu.Lock()
	if l := p.bufs[n]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.bufs[n] = l[:len(l)-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]float32, n)
}

func (p *bufPool) put(b []float32) {
	if len(b) == 0 {
		return
	}
	p.mu.Lock()
	p.bufs[len(b)] = append(p.bufs[len(b)], b)
	p.mu.Unlock()
}
