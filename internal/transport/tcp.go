package transport

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parallax/internal/errs"
	"parallax/internal/tensor"
)

// TCPConfig configures a TCP fabric for one agent process.
type TCPConfig struct {
	// Topo is the cluster's endpoint layout; MachineOfWorker must be set
	// when it spans more than one machine.
	Topo Topology
	// Process is the index of the machine this process hosts.
	Process int
	// Addrs[i] is process i's listen address ("host:port").
	Addrs []string
	// Listener optionally supplies a pre-bound listener for
	// Addrs[Process] (tests bind ":0" and pass the resolved address to
	// peers). The fabric takes ownership.
	Listener net.Listener
	// DialTimeout bounds the whole rendezvous — dialing lower-indexed
	// peers, retries included, and accepting higher-indexed ones. Default
	// 10s. DialTCP derives one context from its own with this timeout, so
	// a deadline on the caller's context tightens it further and
	// cancelling that context aborts the rendezvous immediately.
	DialTimeout time.Duration
	// Epoch is the fabric generation this process rendezvouses at. The
	// handshake carries it, and peers at different generations refuse to
	// connect (ErrEpochMismatch): after a failure, survivors re-form the
	// fabric at epoch+1 and a stale restarted agent must catch up before
	// joining. Default 0.
	Epoch int
	// HeartbeatInterval is the keep-alive cadence per connection; every
	// interval each side writes an empty control frame so the peer's
	// read deadline keeps sliding while the data plane is idle. Default
	// 1s; < 0 disables heartbeats AND read deadlines (then a dead peer
	// is only detected when the kernel reports the broken connection).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the read deadline armed before every frame
	// read: a connection silent for this long marks its peer failed.
	// Default 10 x HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// Policy is the wire compression policy this process runs under. The
	// rendezvous handshake carries its fingerprint, and peers whose
	// fingerprints differ refuse to connect (ErrCompressionMismatch):
	// a policy split would desync the replicas' quantization grids.
	Policy Policy
}

// handshakeMagic opens every peer connection, followed by the dialer's
// process index as u16, the length of its compression-policy fingerprint
// as u16, its fabric epoch as u32, and the fingerprint bytes; the
// acceptor answers with one ack byte (ackOK = accepted, ackPolicy =
// compression fingerprints differ, ackEpoch = fabric generations
// differ). The digit is the wire protocol's generation: it was bumped
// when PS pulls became row-addressed, for frameBye, and when the dense
// AllReduce became machine-level (same frames, a different exchange
// schedule), so an agent built from an older tree is turned away at
// rendezvous (junk magic, no ack) instead of mis-parsing a frame or
// receiving a chunk it does not expect mid-step.
var handshakeMagic = [4]byte{'P', 'X', 'A', '5'}

const (
	ackPolicy = 0 // compression policy fingerprint mismatch
	ackOK     = 1
	ackEpoch  = 2 // fabric epoch mismatch
)

// TCP is the fabric: one buffered FIFO channel (pipe) per directed pair
// into an endpoint this process hosts, which every receive reads, and
// one persistent length-prefixed framed connection per peer process,
// reused across steps, for sends to the rest. DialTCP builds the fabric
// of one agent process; NewInproc builds the zero-peer instance, where
// every endpoint is local and nothing below applies.
//
// Rendezvous is static: process p dials every peer q < p and then
// accepts from every peer q > p, so each unordered process pair shares
// exactly one connection. It runs on DialTCP's caller's goroutine; once
// it is done, a dedicated reader goroutine per connection drains frames
// into the pipes of their (source, destination) pairs, so a peer's send
// does not wait for this side's receives until a pipe is full — the
// property that keeps concurrent large sends from deadlocking on kernel
// socket buffers.
//
// Failure model is fail-stop per epoch, with attribution: a broken or
// silent connection (heartbeat timeout) marks its peer failed, the
// first observer broadcasts the failed rank to the other survivors,
// and the whole fabric shuts down — sends drop, RecvPS returns nil,
// collective receives panic with the typed ClosedPanic value. Err()
// then reports the rank-attributed *errs.PeerFailure, and the layers
// above may re-form a fresh fabric at epoch+1 (DESIGN.md §12) instead
// of dying.
//
// An orderly Close is not a failure: it says goodbye (frameBye), and a
// peer that reads it marks just that process departed — nobody waits for
// anybody in order to close.
type TCP struct {
	topo  Topology
	proc  int
	epoch int
	pool  *bufPool
	local []bool // per endpoint: hosted by this process

	hbInterval time.Duration // <= 0: heartbeats and read deadlines off
	hbTimeout  time.Duration

	failMu  sync.Mutex
	failure error // first *errs.PeerFailure observed, nil while healthy

	pipes [][]chan message // pipes[src][dst] for every local dst, nil elsewhere
	conns []*wireConn      // per peer process, nil for self

	sent     atomic.Int64
	recv     atomic.Int64
	sentRaw  atomic.Int64 // f32-equivalent bytes of compressed frames
	sentComp atomic.Int64 // actual wire bytes of the same frames

	closeOnce sync.Once
	closed    chan struct{}
	readers   sync.WaitGroup
}

// wireConn is one peer connection: writes are serialized under mu and
// framed into a reusable scratch buffer, so steady-state sends allocate
// nothing.
type wireConn struct {
	conn net.Conn
	mu   sync.Mutex
	buf  []byte
	gone chan struct{} // closed by the reader at the peer's goodbye; all it sent is queued by then
	// broken is closed by the first send that finds the socket broken; the
	// reader then drops data frames and reads on only to attribute.
	broken    chan struct{}
	breakOnce sync.Once
	// dl orders the reader's sliding deadline against sayBye's last one.
	dl      sync.Mutex
	leaving bool
}

// slide moves the read deadline to within from now, unless the connection
// is saying goodbye: then the deadline sayBye set stands.
func (wc *wireConn) slide(within time.Duration) {
	wc.dl.Lock()
	if !wc.leaving {
		wc.conn.SetReadDeadline(time.Now().Add(within)) //parallax:allow(detsource,lockheld) -- heartbeat read deadline: liveness detection, outside the data path; setting it does not block
	}
	wc.dl.Unlock()
}

// pipeDepth bounds what a directed pair may have outstanding. Past it the
// sender waits — a local endpoint, or a connection's reader and with it
// every frame behind. A collective puts at most one message per tag on a
// pair and a PS client has one request in flight per server, so a sender
// a few collectives ahead of its receiver still does not block.
const pipeDepth = 8

// newFabric builds the part every fabric has: the local table, one pipe
// per directed pair into a local endpoint, whatever the source, and the
// chunk pool. DialTCP adds connections for the endpoints that are not
// local.
func newFabric(topo Topology, proc int, local func(rank int) bool) *TCP {
	n := topo.Endpoints()
	f := &TCP{
		topo:   topo,
		proc:   proc,
		pool:   newBufPool(),
		local:  make([]bool, n),
		pipes:  make([][]chan message, n),
		closed: make(chan struct{}),
	}
	for r := range f.local {
		f.local[r] = local(r)
	}
	for s := range f.pipes {
		f.pipes[s] = make([]chan message, n)
		for d := range f.pipes[s] {
			if f.local[d] {
				f.pipes[s][d] = make(chan message, pipeDepth)
			}
		}
	}
	return f
}

// NewInproc creates the in-process fabric: every endpoint of the topology
// is local, so every pair exchanges over a pipe — no serialization, no
// copies beyond the one pooled-buffer copy of a float chunk — and there
// is no listener, connection, reader or heartbeat. It is the
// single-process fast path and what every test harness defaults to.
func NewInproc(topo Topology) *TCP {
	if err := topo.Validate(); err != nil {
		panic(err.Error())
	}
	return newFabric(topo, 0, func(int) bool { return true })
}

// DialTCP establishes the fabric: it dials every lower-indexed peer
// (retrying, so agents may start in any order), then accepts every
// higher-indexed one, and returns once every peer connection is up. The
// rendezvous runs on the caller's goroutine under one context: ctx
// tightened by DialTimeout. Every wait — connect, backoff, handshake,
// accept — ends with it, and cancelling ctx aborts the rendezvous (the
// returned error then wraps ctx's error, so callers can match it with
// errors.Is). On failure everything opened so far is torn down and an
// error returned.
func DialTCP(ctx context.Context, cfg TCPConfig) (*TCP, error) {
	topo := cfg.Topo
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	procs := topo.Processes()
	if procs > 1 && topo.MachineOfWorker == nil {
		return nil, fmt.Errorf("transport: TCP fabric over %d machines needs MachineOfWorker", procs)
	}
	if cfg.Process < 0 || cfg.Process >= procs {
		return nil, fmt.Errorf("transport: process %d out of range [0,%d)", cfg.Process, procs)
	}
	if len(cfg.Addrs) != procs {
		return nil, fmt.Errorf("transport: %d addresses for %d processes", len(cfg.Addrs), procs)
	}
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	hbInterval := cfg.HeartbeatInterval
	if hbInterval == 0 {
		hbInterval = time.Second
	}
	hbTimeout := cfg.HeartbeatTimeout
	if hbTimeout <= 0 {
		hbTimeout = 10 * hbInterval
	}
	rctx, cancel := context.WithTimeout(ctx, timeout) //parallax:allow(detsource) -- rendezvous deadline is wall-clock by design; the data plane starts only after the epoch-fenced handshake
	defer cancel()

	f := newFabric(topo, cfg.Process, func(rank int) bool { return topo.ProcessOf(rank) == cfg.Process })
	f.epoch = cfg.Epoch
	f.hbInterval = hbInterval
	f.hbTimeout = hbTimeout
	f.conns = make([]*wireConn, procs)

	// The listener lives for the rendezvous only: a process with no
	// higher-indexed peer has nobody to accept and listens not at all.
	// It is bound before the dials, so a higher peer's connect lands in
	// the backlog and waits there for this process's accepts.
	nAccept := procs - 1 - cfg.Process
	var ln net.Listener
	if nAccept > 0 {
		if ln = cfg.Listener; ln == nil {
			var err error
			if ln, err = net.Listen("tcp", cfg.Addrs[cfg.Process]); err != nil {
				return nil, err
			}
		}
		stop := context.AfterFunc(rctx, func() { ln.Close() }) // unblocks Accept
		defer func() { stop(); ln.Close() }()
	} else if cfg.Listener != nil {
		cfg.Listener.Close()
	}
	conns := make([]net.Conn, procs)
	fail := func(err error) (*TCP, error) {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, err
	}

	// Dial down. A refused connect and a handshake dropped mid-way — the
	// peer's fabric tearing down between accepting and answering, an
	// epoch transition in flight (elastic grow, recovery rebind) — are
	// the same retryable attempt; only an explicit rejection (wrong
	// epoch, wrong policy) is final. One connect waits at most a second,
	// so a peer that binds late is found soon.
	fingerprint := cfg.Policy.Fingerprint()
	hs := binary.LittleEndian.AppendUint16(append([]byte(nil), handshakeMagic[:]...), uint16(cfg.Process))
	hs = binary.LittleEndian.AppendUint16(hs, uint16(len(fingerprint)))
	hs = binary.LittleEndian.AppendUint32(hs, uint32(cfg.Epoch))
	hs = append(hs, fingerprint...)
	dialer := net.Dialer{Timeout: time.Second}
	try := func(q int) (net.Conn, error) {
		c, err := dialer.DialContext(rctx, "tcp", cfg.Addrs[q])
		if err != nil {
			return nil, err
		}
		// The ack comes once q reaches its accepts; the wait ends with
		// the rendezvous.
		stop := context.AfterFunc(rctx, func() { c.Close() })
		var ack [1]byte
		if _, err = c.Write(hs); err == nil {
			_, err = io.ReadFull(c, ack[:])
		}
		switch {
		case !stop():
			err = rctx.Err()
		case err != nil:
			err = fmt.Errorf("transport: handshake with peer %d: %w", q, err)
		case ack[0] == ackEpoch:
			err = fmt.Errorf("transport: process %d at epoch %d rejected by peer %d: %w",
				cfg.Process, cfg.Epoch, q, errs.ErrEpochMismatch)
		case ack[0] != ackOK:
			err = fmt.Errorf("transport: process %d compression policy %q rejected by peer %d: %w",
				cfg.Process, fingerprint, q, errs.ErrCompressionMismatch)
		default:
			return c, nil
		}
		c.Close()
		return nil, err
	}
	for q := 0; q < cfg.Process; q++ {
		// Seeded per (process, peer): a restarting fleet's redials spread
		// out, and a run's pacing is reproducible.
		rng := rand.New(rand.NewSource(int64(cfg.Process)*104729 + int64(q)*7919 + 1))
		for attempt := 0; conns[q] == nil; attempt++ {
			c, err := try(q)
			switch {
			case err == nil:
				conns[q] = c
			case errors.Is(err, errs.ErrEpochMismatch) || errors.Is(err, errs.ErrCompressionMismatch):
				return fail(err)
			case Backoff(rctx, attempt, rng) != nil:
				return fail(fmt.Errorf("transport: process %d dialing peer %d (%s): %w",
					cfg.Process, q, cfg.Addrs[q],
					&errs.PeerFailure{Rank: q, Epoch: cfg.Epoch, Cause: cmp.Or(ctx.Err(), err)}))
			}
		}
	}

	// Accept up. Every lower peer has reached its own accepts by the time
	// this process reaches its own, so the dial-down, accept-up order
	// cannot deadlock. Accept until every higher peer has a connection,
	// not until nAccept good handshakes: a duplicate connection from a
	// restarted peer must not eat a genuine peer's slot.
	for got := 0; got < nAccept; {
		c, err := ln.Accept()
		if err != nil {
			if ctx.Err() == context.Canceled {
				return fail(fmt.Errorf("transport: process %d rendezvous aborted: %w", cfg.Process, ctx.Err()))
			}
			// A rendezvous timeout is a peer failure too — some expected
			// agent never showed up — so it carries the first missing rank
			// and matches errs.ErrPeerFailed, letting recovery policies
			// treat "died before connecting" and "died mid-step" uniformly.
			missing := cfg.Process + 1 + slices.IndexFunc(conns[cfg.Process+1:], func(c net.Conn) bool { return c == nil })
			return fail(fmt.Errorf("transport: process %d timed out waiting for %d peer(s): %w",
				cfg.Process, nAccept-got,
				&errs.PeerFailure{Rank: missing, Epoch: cfg.Epoch, Cause: errs.ErrPeerFailed}))
		}
		peer, err := admit(rctx, c, cfg, fingerprint)
		switch {
		case err != nil:
			return fail(err)
		case peer < 0:
		case conns[peer] != nil:
			c.Close() // duplicate from a retrying peer
		default:
			conns[peer] = c
			got++
		}
	}
	// Every connection is published before any reader starts: a reader
	// that fails at once shuts the fabric down over all of f.conns.
	for peer, c := range conns {
		if c != nil {
			f.conns[peer] = &wireConn{conn: c, gone: make(chan struct{}), broken: make(chan struct{})}
		}
	}
	for peer, wc := range f.conns {
		if wc == nil {
			continue
		}
		f.readers.Add(1)
		go f.reader(peer, wc)
		if f.hbInterval > 0 {
			f.readers.Add(1)
			go f.heartbeatLoop(wc)
		}
	}
	return f, nil
}

// admit runs the acceptor's side of one handshake on c: it reads the
// dialer's magic and header and answers with one ack byte. It returns the
// dialer's process index once c is admitted (ackOK sent); -1 when c is
// dropped — junk, misrouted, or a peer behind this epoch (answered
// ackEpoch, it will catch up and redial); and an error when the
// rendezvous must fail — a peer ahead of this epoch (this process is the
// stale one and must re-read the cluster epoch) or one under another
// compression policy (a deployment error). Only an admitted c stays open.
// A silent dialer holds the accept loop for at most 5 s, and not past the
// end of ctx.
func admit(ctx context.Context, c net.Conn, cfg TCPConfig, fingerprint string) (int, error) {
	stop := context.AfterFunc(ctx, func() { c.Close() })
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //parallax:allow(detsource) -- handshake read deadline; connection management, not step control flow
	peer, peerFP, peerEpoch, err := readHandshake(c)
	var fatal error
	switch {
	case err != nil || peer <= cfg.Process || peer >= len(cfg.Addrs):
		// junk or misrouted connection
	case peerEpoch != cfg.Epoch:
		c.Write([]byte{ackEpoch})
		if peerEpoch > cfg.Epoch {
			fatal = fmt.Errorf("transport: process %d at epoch %d, peer %d already at %d: %w",
				cfg.Process, cfg.Epoch, peer, peerEpoch, errs.ErrEpochMismatch)
		}
	case peerFP != fingerprint:
		c.Write([]byte{ackPolicy})
		fatal = fmt.Errorf("transport: process %d compression policy %q, peer %d has %q: %w",
			cfg.Process, fingerprint, peer, peerFP, errs.ErrCompressionMismatch)
	default:
		c.SetReadDeadline(time.Time{})
		if _, err := c.Write([]byte{ackOK}); stop() && err == nil {
			return peer, nil
		}
	}
	stop()
	c.Close()
	return -1, fatal
}

// readHandshake reads a dialer's rendezvous header: the magic, then the
// process index, fingerprint length and epoch, then the fingerprint. A
// foreign magic is an error, read before anything else is waited for.
func readHandshake(conn net.Conn) (peer int, fp string, epoch int, err error) {
	var hs [12]byte
	if _, err := io.ReadFull(conn, hs[:4]); err != nil {
		return 0, "", 0, err
	}
	if [4]byte(hs[:4]) != handshakeMagic {
		return 0, "", 0, fmt.Errorf("transport: handshake magic %q", hs[:4])
	}
	if _, err := io.ReadFull(conn, hs[4:]); err != nil {
		return 0, "", 0, err
	}
	peer = int(binary.LittleEndian.Uint16(hs[4:6]))
	epoch = int(binary.LittleEndian.Uint32(hs[8:12]))
	raw := make([]byte, binary.LittleEndian.Uint16(hs[6:8]))
	if _, err := io.ReadFull(conn, raw); err != nil {
		return 0, "", 0, err
	}
	return peer, string(raw), epoch, nil
}

// Topology returns the fabric's endpoint layout.
func (f *TCP) Topology() Topology { return f.topo }

// Local reports whether an endpoint is hosted by this process.
func (f *TCP) Local(rank int) bool { return rank >= 0 && rank < len(f.local) && f.local[rank] }

// Distributed reports whether any endpoint lives in another process.
func (f *TCP) Distributed() bool { return slices.Contains(f.local, false) }

// Stats returns the framed socket bytes moved so far (zeros on an
// in-process fabric: pipes are not wires).
func (f *TCP) Stats() Stats {
	return Stats{
		SentBytes:           f.sent.Load(),
		RecvBytes:           f.recv.Load(),
		SentBytesRaw:        f.sentRaw.Load(),
		SentBytesCompressed: f.sentComp.Load(),
	}
}

// Conduit returns the handle for a local endpoint.
func (f *TCP) Conduit(rank int) Conduit {
	if !f.Local(rank) {
		panic(fmt.Sprintf("transport: endpoint %d is not hosted by process %d", rank, f.proc))
	}
	return conduit{f: f, rank: rank}
}

// Close says goodbye to every peer (unless a failure already tore the
// fabric down), tears it down and waits for its reader goroutines, which
// read to their peers' ends of stream (sayBye) — but for no peer to
// close. Idempotent; safe to call concurrently.
func (f *TCP) Close() error {
	f.shutdown(true)
	f.readers.Wait()
	return nil
}

// shutdown is Close minus the reader wait, so a reader detecting a
// broken connection can trigger teardown without deadlocking on itself;
// only Close passes bye.
func (f *TCP) shutdown(bye bool) {
	f.closeOnce.Do(func() {
		close(f.closed)
		for _, wc := range f.conns {
			switch {
			case wc == nil:
			case bye:
				wc.sayBye() // the connection's reader closes it
			default:
				wc.conn.Close()
			}
		}
	})
}

// reader drains one peer connection into the pipes of its frames' pairs.
// Every frame read is armed with the heartbeat read deadline
// (refreshed per chunk for large payloads, so a slow-but-alive bulk
// transfer never trips it); a timeout, read error, or decode error
// marks the peer failed and shuts the whole fabric down so blocked
// receivers fail fast — with attribution — instead of hanging. The
// reader closes the connection when it ends: a leaver's end of stream.
func (f *TCP) reader(peer int, wc *wireConn) {
	defer f.readers.Done()
	defer wc.conn.Close()
	br := bufio.NewReaderSize(wc.conn, 1<<16)
	var lenBuf [4]byte
	var payload []byte
	tags := tagInterner{}
	for {
		if f.hbInterval > 0 {
			wc.slide(f.hbTimeout)
		}
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			f.readerFailed(peer, err)
			return
		}
		word := binary.LittleEndian.Uint32(lenBuf[:])
		switch word {
		case frameHeartbeat:
			continue
		case framePeerDown:
			// Another survivor observed a failure first; adopt its
			// attribution instead of blaming the messenger when its own
			// teardown reaches us.
			var rank [4]byte
			if _, err := io.ReadFull(br, rank[:]); err != nil {
				f.readerFailed(peer, err)
				return
			}
			failed := int(binary.LittleEndian.Uint32(rank[:]))
			f.recordFailure(failed, fmt.Errorf("reported down by process %d", peer))
			f.shutdown(false)
			return
		case frameBye:
			close(wc.gone)
			return
		}
		n := int(word)
		if n > maxFrame {
			f.readerFailed(peer, fmt.Errorf("frame of %d bytes exceeds cap %d", n, maxFrame))
			return
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		if err := f.readPayload(br, wc, payload[:n]); err != nil {
			f.readerFailed(peer, err)
			return
		}
		src, dst, m, err := decodeMessage(payload[:n], f.pool, tags)
		if err != nil || !f.Local(dst) || f.topo.ProcessOf(src) != peer {
			if err == nil {
				err = fmt.Errorf("misrouted frame src=%d dst=%d", src, dst)
			}
			f.readerFailed(peer, err)
			return
		}
		f.recv.Add(int64(4 + n))
		select {
		case f.pipes[src][dst] <- m:
		case <-f.closed:
			// Nobody will take it; an orderly Close reads on to the peer's
			// end of stream, a failure has closed the connection.
		case <-wc.broken:
			// The fabric is failing; what is left to read is who failed.
		}
	}
}

// readPayload fills p, sliding the read deadline forward per chunk so a
// large frame is judged on progress, not total duration.
func (f *TCP) readPayload(br *bufio.Reader, wc *wireConn, p []byte) error {
	const chunk = 1 << 20
	for off := 0; off < len(p); {
		end := off + chunk
		if end > len(p) {
			end = len(p)
		}
		if f.hbInterval > 0 {
			wc.slide(f.hbTimeout)
		}
		m, err := io.ReadFull(br, p[off:end])
		off += m
		if err != nil {
			return err
		}
	}
	return nil
}

// sendWire frames and writes one datagram to dst's process. The frame is
// built in the connection's reusable scratch buffer and written with one
// syscall; tensor data is copied exactly once, from the caller's view
// into the frame.
func (f *TCP) sendWire(src, dst int, m message) {
	wc := f.conns[f.topo.ProcessOf(dst)]
	wc.mu.Lock()
	wc.buf = append(wc.buf[:0], 0, 0, 0, 0)
	wc.buf = appendMessage(wc.buf, src, dst, m)
	binary.LittleEndian.PutUint32(wc.buf[:4], uint32(len(wc.buf)-4))
	n := len(wc.buf)
	_, err := wc.conn.Write(wc.buf) //parallax:allow(lockheld) -- wc.mu serializes socket writes by design; heartbeat deadlines bound a wedged peer
	wc.mu.Unlock()
	if err != nil {
		select {
		case <-f.closed:
			return // orderly shutdown: drop
		case <-wc.gone:
			return // the peer said goodbye: drop
		default:
		}
		// A failed write names no culprit: the peer may have torn down over
		// a third process, its peer-down frame unread here. The reader reads
		// on to that frame or to the socket's error and fails the fabric.
		wc.breakOnce.Do(func() { close(wc.broken) })
		select {
		case <-f.closed:
		case <-wc.gone:
			return // the peer said goodbye: drop
		}
		panic(ClosedPanic{Err: fmt.Errorf("transport: endpoint %d send tag %q to %d: %w",
			src, m.tag, dst, cmp.Or(f.Err(), errs.ErrClosed))})
	}
	f.sent.Add(int64(n))
	if compressedFrame(m) {
		f.sentRaw.Add(int64(4 + rawFrameBytes(m, n-4)))
		f.sentComp.Add(int64(n))
	}
}

// conduit is one endpoint's handle on the fabric; it is a value (two
// words) so handing conduits around allocates nothing.
type conduit struct {
	f    *TCP
	rank int
}

func (c conduit) Rank() int { return c.rank }

// send delivers m to dst: through the pair's pipe when dst is local,
// framed onto its process's connection otherwise. A send on a closed
// fabric drops the message — the peer is gone.
func (c conduit) send(dst int, m message) {
	if !c.f.local[dst] {
		c.f.sendWire(c.rank, dst, m)
		return
	}
	select {
	case c.f.pipes[c.rank][dst] <- m:
	case <-c.f.closed:
	}
}

// recv blocks for the next message on the pair's pipe and asserts its
// tag and kind: a mismatch means two endpoints' protocols diverged, which
// is a bug, so it panics rather than silently reordering. ok is false
// once the fabric is closed — even with messages still queued — or src's
// process has said goodbye and the pipe holds nothing more from it.
func (c conduit) recv(src int, tag string, k kind) (m message, ok bool) {
	q := c.f.pipes[src][c.rank]
	var gone chan struct{} // stays nil for a local source: it cannot depart
	if !c.f.local[src] {
		gone = c.f.conns[c.f.topo.ProcessOf(src)].gone
	}
	// Its own select: one that also had a message ready would pick at random.
	select {
	case <-c.f.closed:
		return message{}, false
	default:
	}
	select {
	case m = <-q: // fast path: message already queued
	default:
		select {
		case m = <-q:
		case <-c.f.closed:
			return message{}, false
		case <-gone:
			select {
			case m = <-q: // sent before the goodbye
			default:
				return message{}, false
			}
		}
	}
	if m.tag != tag {
		panic(fmt.Sprintf("transport: endpoint %d expected tag %q from %d, got %q",
			c.rank, tag, src, m.tag))
	}
	if m.kind != k {
		panic(fmt.Sprintf("transport: endpoint %d tag %q from %d: kind %d, want %d",
			c.rank, tag, src, m.kind, k))
	}
	return m, true
}

// mustRecv is recv for the protocol paths that cannot proceed without
// the message (collective phases); a closed fabric or a departed source
// mid-collective raises the typed ClosedPanic the trainer's wrappers
// recover into an error.
func (c conduit) mustRecv(src int, tag string, k kind) message {
	m, ok := c.recv(src, tag, k)
	if !ok {
		c.f.leftOwing(src)
		panic(ClosedPanic{Err: c.f.closedErr(c.rank, tag, src)})
	}
	return m
}

func (c conduit) SendF32(dst int, tag string, data []float32) {
	c.SendF32C(dst, tag, data, CodecF32)
}

// SendF32C copies the chunk into a pooled buffer for a local destination
// and serializes it under codec straight from the caller's view for a
// remote one; the values are already on the codec's grid, so both
// deliver the same bits.
func (c conduit) SendF32C(dst int, tag string, data []float32, codec Codec) {
	if c.f.local[dst] {
		buf := c.f.pool.get(len(data))
		copy(buf, data)
		data = buf
	}
	c.send(dst, message{tag: tag, kind: kindF32, codec: codec, f32: data})
}

func (c conduit) RecvF32(src int, tag string) []float32 {
	return c.mustRecv(src, tag, kindF32).f32
}

func (c conduit) GetBuf(n int) []float32 { return c.f.pool.get(n) }
func (c conduit) PutBuf(b []float32)     { c.f.pool.put(b) }

// SendF32Sparse detaches the chunk from the sender's reusable selection
// scratch for a local destination (the send borrows, the receiver owns);
// the wire path serializes it before returning.
func (c conduit) SendF32Sparse(dst int, tag string, ch SparseChunk) {
	if c.f.local[dst] {
		ch.Idx = append([]int32(nil), ch.Idx...)
		ch.Vals = append([]float32(nil), ch.Vals...)
	}
	c.send(dst, message{tag: tag, kind: kindF32Sparse, codec: ch.Codec, topk: &ch})
}

func (c conduit) RecvF32Sparse(src int, tag string) SparseChunk {
	return *c.mustRecv(src, tag, kindF32Sparse).topk
}

func (c conduit) SendSparse(dst int, tag string, s *tensor.Sparse) {
	c.send(dst, message{tag: tag, kind: kindSparse, sparse: s})
}

func (c conduit) RecvSparse(src int, tag string) *tensor.Sparse {
	return c.mustRecv(src, tag, kindSparse).sparse
}

func (c conduit) SendScalar(dst int, tag string, v float64) {
	c.send(dst, message{tag: tag, kind: kindScalar, scalar: v})
}

func (c conduit) RecvScalar(src int, tag string) float64 {
	return c.mustRecv(src, tag, kindScalar).scalar
}

func (c conduit) SendPS(dst int, tag string, m *PSMsg) {
	c.send(dst, message{tag: tag, kind: kindPS, codec: m.Codec, ps: m})
}

// RecvPS may come back empty: a serving loop waiting on a worker's next
// request is owed nothing and just ends; a client is owed its reply.
func (c conduit) RecvPS(src int, tag string) *PSMsg {
	m, ok := c.recv(src, tag, kindPS)
	if !ok {
		if src >= c.f.topo.Workers {
			c.f.leftOwing(src)
		}
		return nil
	}
	return m.ps
}
