package psrt

import (
	"errors"
	"fmt"

	"parallax/internal/errs"
	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// Endpoint is the parameter-server surface the trainer drives: the
// batched pull/push calls of the hot loop, the chief-clipping read-back
// path, and the resharding snapshot read. *Server implements it with
// direct calls (the single-process path and an agent's own colocated
// server); *Client implements it over a transport conduit for servers
// hosted by other agent processes.
type Endpoint interface {
	PullManyInto(minVersion int64, reqs []PullReq) error
	PushDenseMany(reqs []DensePush) error
	PushSparseMany(reqs []SparsePush) error
	WaitAggregatedNormSquared(name string, pi int, seq int64) (float64, error)
	ApplyUpdate(name string, pi int, scale float32) error
	SnapshotPart(name string, pi int, minVersion int64) (*tensor.Dense, []*tensor.Dense, error)
}

var (
	_ Endpoint = (*Server)(nil)
	_ Endpoint = (*Client)(nil)
)

// Tag is the rendezvous tag of all parameter-server wire traffic. One
// tag suffices: each (worker, server) endpoint pair carries exactly one
// request/reply stream, serialized by the trainer's step phases (pulls,
// then pushes, then clipping reads).
const Tag = "ps"

// Client is one worker endpoint's stub for a remote server. Every method
// is one request/reply round trip: the client encodes the batched
// request, the serving loop on the remote agent replays it against the
// real Server and answers. Because the client blocks for the reply
// before returning, and the request is serialized before the reply
// comes, a push borrows its dense views only for the call. The pull also
// comes as its two halves, SendPull and RecvPull, so a worker can have
// one request in flight to every server at once.
//
// A Client must not be used concurrently with itself, nor between a
// SendPull and its RecvPull; the trainer's phase structure (the worker's
// pull, its comm goroutine's pushes, the worker's clip path, strictly
// ordered within a step) guarantees that.
type Client struct {
	t      transport.Conduit
	server int // server endpoint rank

	// codec is the wire-encoding hint stamped onto push requests (see
	// transport.PSMsg); the zero value is exact f32.
	codec transport.Codec
}

// NewClient returns a stub for the server at endpoint rank server,
// speaking over the worker's conduit t.
func NewClient(t transport.Conduit, server int) *Client {
	return &Client{t: t, server: server}
}

// SetCodec selects the payload codec of this client's push requests. The
// pushed values must already lie on the codec's grid (the trainer
// quantizes in the data plane before pushing), so the compact encoding is
// lossless. Pull replies always travel exact f32, whole partitions and
// row-addressed ones alike.
func (c *Client) SetCodec(codec transport.Codec) { c.codec = codec }

// maxReplyElems bounds the values of one pull reply at 1 GiB of exact
// f32, the transport's default frame cap: the peer's reader would refuse
// a larger frame and fail the fabric, so the request is refused instead.
const maxReplyElems = 1 << 28

// errClosed is returned when the fabric shut down mid-call; it wraps
// the shared sentinel so callers can match it with errors.Is.
var errClosed = fmt.Errorf("psrt: transport %w", errs.ErrClosed)

func (c *Client) call(req *transport.PSMsg) (*transport.PSMsg, error) {
	c.t.SendPS(c.server, Tag, req)
	return c.reply()
}

// reply blocks for the server's answer to the request in flight.
func (c *Client) reply() (*transport.PSMsg, error) {
	rep := c.t.RecvPS(c.server, Tag)
	if rep == nil {
		return nil, errClosed
	}
	if rep.Err != "" {
		return nil, errors.New(rep.Err)
	}
	return rep, nil
}

// PullManyInto performs the batched versioned read over the wire:
// SendPull, then RecvPull.
func (c *Client) PullManyInto(minVersion int64, reqs []PullReq) error {
	if err := c.SendPull(minVersion, reqs); err != nil {
		return err
	}
	return c.RecvPull(reqs)
}

// SendPull ships the batched request, row lists included, and returns
// without waiting. On an error nothing was sent and no reply is owed.
func (c *Client) SendPull(minVersion int64, reqs []PullReq) error {
	m := &transport.PSMsg{Op: transport.PSPullMany, Version: minVersion}
	for i := range reqs {
		r := &reqs[i]
		m.Names = append(m.Names, r.Name)
		m.Parts = append(m.Parts, r.Part)
		if r.Rows == nil {
			continue
		}
		// The frame encoder cannot express a malformed list (the grammar
		// carries rows strictly ascending and below 2^31), and a Dst that
		// is not one row per listed row cannot take the packed reply, so
		// either is refused before anything travels; the partition's
		// length is the server's to check.
		if len(r.Rows) != r.Dst.Dim(0) {
			return fmt.Errorf("psrt: pull of %s/%d: %d rows listed for a %d-row dst", r.Name, r.Part, len(r.Rows), r.Dst.Dim(0))
		}
		if err := checkRows(r.Rows, 1<<31); err != nil {
			return fmt.Errorf("psrt: pull of %s/%d: %w", r.Name, r.Part, err)
		}
		if m.Rows == nil {
			m.Rows = make([][]int, len(reqs))
		}
		m.Rows[i] = r.Rows
	}
	c.t.SendPS(c.server, Tag, m)
	return nil
}

// RecvPull blocks for the reply to the SendPull of the same reqs and
// copies the values into their destinations as they come: a
// row-addressed request's reply carries just its rows, packed, which is
// the shape of its Dst.
func (c *Client) RecvPull(reqs []PullReq) error {
	rep, err := c.reply()
	if err != nil {
		return err
	}
	if len(rep.Dense) != len(reqs) {
		return fmt.Errorf("psrt: pull reply has %d tensors for %d requests", len(rep.Dense), len(reqs))
	}
	for i := range reqs {
		src, dst := rep.Dense[i].Data(), reqs[i].Dst.Data()
		if len(src) != len(dst) {
			return fmt.Errorf("psrt: pull reply %s/%d has %d elements, want %d",
				reqs[i].Name, reqs[i].Part, len(src), len(dst))
		}
		copy(dst, src)
	}
	return nil
}

// PushDenseMany ships a batch of dense partition gradients. The gradient
// views are borrowed only until the call returns (the request is
// serialized before the reply unblocks us), and Rank does not travel:
// the serving loop stamps its client's.
func (c *Client) PushDenseMany(reqs []DensePush) error {
	m := &transport.PSMsg{Op: transport.PSPushDenseMany, Codec: c.codec}
	for i := range reqs {
		m.Names = append(m.Names, reqs[i].Name)
		m.Parts = append(m.Parts, reqs[i].Part)
		m.Dense = append(m.Dense, reqs[i].Grad)
	}
	_, err := c.call(m)
	return err
}

// PushSparseMany ships a batch of sparse partition gradients; ownership
// of the tensors transfers (to the wire here, to the remote server
// there), matching the direct call's contract.
func (c *Client) PushSparseMany(reqs []SparsePush) error {
	m := &transport.PSMsg{Op: transport.PSPushSparseMany, Codec: c.codec}
	for i := range reqs {
		m.Names = append(m.Names, reqs[i].Name)
		m.Parts = append(m.Parts, reqs[i].Part)
		m.Sparse = append(m.Sparse, reqs[i].Grad)
	}
	_, err := c.call(m)
	return err
}

// WaitAggregatedNormSquared is the chief-clipping read-back over the
// wire; it blocks (on the serving loop's side) until the partition's
// seq-th aggregation completes.
func (c *Client) WaitAggregatedNormSquared(name string, pi int, seq int64) (float64, error) {
	rep, err := c.call(&transport.PSMsg{
		Op: transport.PSNormSquared, Version: seq,
		Names: []string{name}, Parts: []int{pi},
	})
	if err != nil {
		return 0, err
	}
	return rep.Scalar, nil
}

// ApplyUpdate triggers the deferred scaled update (chief worker only).
func (c *Client) ApplyUpdate(name string, pi int, scale float32) error {
	_, err := c.call(&transport.PSMsg{
		Op: transport.PSApplyUpdate, Scale: scale,
		Names: []string{name}, Parts: []int{pi},
	})
	return err
}

// SnapshotPart reads one partition's value and optimizer slot state over
// the wire (live resharding's gather phase); the remote serving loop
// blocks inside Server.SnapshotPart until the partition's version
// reaches minVersion. The returned tensors arrive flattened to rank 1;
// the caller addresses them by element count.
func (c *Client) SnapshotPart(name string, pi int, minVersion int64) (*tensor.Dense, []*tensor.Dense, error) {
	rep, err := c.call(&transport.PSMsg{
		Op: transport.PSSnapshot, Version: minVersion,
		Names: []string{name}, Parts: []int{pi},
	})
	if err != nil {
		return nil, nil, err
	}
	if len(rep.Dense) < 1 {
		return nil, nil, fmt.Errorf("psrt: snapshot reply for %s/%d carries no value", name, pi)
	}
	return rep.Dense[0], rep.Dense[1:], nil
}

// ServeConduit answers one remote client's parameter-server requests
// against s until the fabric closes or the client's process says
// goodbye: the serving half of the wire protocol. client is the remote
// worker's rank, which places its pushes in the servers' folds. The
// trainer runs one ServeConduit goroutine per (local server, remote
// worker) pair;
// requests from one client are strictly sequential (the client blocks
// for each reply), while different clients' loops run concurrently
// against the server's per-partition locks — the same concurrency
// profile as direct calls from in-process workers.
func ServeConduit(s *Server, t transport.Conduit, client int) {
	for {
		req := t.RecvPS(client, Tag)
		if req == nil {
			return // fabric closed, or the client departed
		}
		t.SendPS(client, Tag, handle(s, client, req))
	}
}

// handle replays one decoded request from the worker of rank client
// against the server and builds the reply. Errors travel as strings in
// the reply rather than tearing the connection down, mirroring the error
// returns of direct calls.
func handle(s *Server, client int, req *transport.PSMsg) *transport.PSMsg {
	rep := &transport.PSMsg{Op: transport.PSReply}
	fail := func(err error) *transport.PSMsg {
		rep.Err = err.Error()
		return rep
	}
	if len(req.Parts) != len(req.Names) {
		return fail(fmt.Errorf("psrt: request has %d parts for %d names", len(req.Parts), len(req.Names)))
	}
	switch req.Op {
	case transport.PSPullMany:
		// The batch must fit one reply frame; size it before copying
		// anything, from dimensions a served variable never changes.
		var v *servedVar
		elems := 0
		for i, name := range req.Names {
			var err error
			if v, err = s.varFor(v, name); err != nil {
				return fail(err)
			}
			elems += v.pullRows(req.Parts[i], req.RowsAt(i)) * v.width
			if elems > maxReplyElems {
				return fail(fmt.Errorf("psrt: pull of %d items asks for more than the %d values one reply carries",
					len(req.Names), maxReplyElems))
			}
		}
		// Each item is copied into a fresh packed tensor under the
		// partition lock, so the serving loop never holds locks during
		// serialization.
		for i, name := range req.Names {
			var err error
			if v, err = s.varFor(v, name); err != nil {
				return fail(err)
			}
			pi, rows := req.Parts[i], req.RowsAt(i)
			val := tensor.NewDense(v.pullRows(pi, rows), v.width)
			if err := v.pullInto(pi, req.Version, rows, val); err != nil {
				return fail(err)
			}
			rep.Dense = append(rep.Dense, val)
		}
	case transport.PSPushDenseMany:
		if len(req.Dense) != len(req.Names) {
			return fail(fmt.Errorf("psrt: dense push has %d tensors for %d names", len(req.Dense), len(req.Names)))
		}
		reqs := make([]DensePush, len(req.Names))
		for i := range req.Names {
			reqs[i] = DensePush{Name: req.Names[i], Part: req.Parts[i], Rank: client, Grad: req.Dense[i]}
		}
		if err := s.PushDenseMany(reqs); err != nil {
			return fail(err)
		}
	case transport.PSPushSparseMany:
		if len(req.Sparse) != len(req.Names) {
			return fail(fmt.Errorf("psrt: sparse push has %d tensors for %d names", len(req.Sparse), len(req.Names)))
		}
		reqs := make([]SparsePush, len(req.Names))
		for i := range req.Names {
			reqs[i] = SparsePush{Name: req.Names[i], Part: req.Parts[i], Rank: client, Grad: req.Sparse[i]}
		}
		if err := s.PushSparseMany(reqs); err != nil {
			return fail(err)
		}
	case transport.PSNormSquared:
		if len(req.Names) != 1 {
			return fail(fmt.Errorf("psrt: norm request has %d items", len(req.Names)))
		}
		n2, err := s.WaitAggregatedNormSquared(req.Names[0], req.Parts[0], req.Version)
		if err != nil {
			return fail(err)
		}
		rep.Scalar = n2
	case transport.PSApplyUpdate:
		if len(req.Names) != 1 {
			return fail(fmt.Errorf("psrt: apply request has %d items", len(req.Names)))
		}
		if err := s.ApplyUpdate(req.Names[0], req.Parts[0], req.Scale); err != nil {
			return fail(err)
		}
	case transport.PSSnapshot:
		if len(req.Names) != 1 {
			return fail(fmt.Errorf("psrt: snapshot request has %d items", len(req.Names)))
		}
		val, slots, err := s.SnapshotPart(req.Names[0], req.Parts[0], req.Version)
		if err != nil {
			return fail(err)
		}
		rep.Dense = append(append(rep.Dense, val), slots...)
	default:
		return fail(fmt.Errorf("psrt: unknown wire op %d", req.Op))
	}
	return rep
}
