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
	// peers and accepting higher-indexed ones. Default 10s. A deadline
	// on DialTCP's context tightens this further; context cancellation
	// aborts the rendezvous immediately.
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
// of endpoints this process hosts, and one persistent length-prefixed
// framed connection per peer process, reused across steps, for the rest.
// The local table says which is which. DialTCP builds the fabric of one
// agent process; NewInproc builds the zero-peer instance, where every
// endpoint is local and nothing below applies.
//
// Rendezvous is static: process p dials every peer q < p and accepts
// from every peer q > p, so each unordered process pair shares exactly
// one connection. A dedicated reader goroutine per connection drains
// frames into per-(source, destination, tag) queues, so a peer's send
// never blocks on this side's consumption order — the property that
// keeps concurrent large sends from deadlocking on kernel socket
// buffers.
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

	pipes [][]chan message // pipes[src][dst] for local pairs, nil elsewhere
	conns []*wireConn      // per peer process, nil for self

	inboxMu sync.Mutex
	inbox   map[inboxKey]chan message

	sent     atomic.Int64
	recv     atomic.Int64
	sentRaw  atomic.Int64 // f32-equivalent bytes of compressed frames
	sentComp atomic.Int64 // actual wire bytes of the same frames

	closeOnce sync.Once
	closed    chan struct{}
	readers   sync.WaitGroup
}

type inboxKey struct {
	src, dst int
	tag      string
}

// wireConn is one peer connection: writes are serialized under mu and
// framed into a reusable scratch buffer, so steady-state sends allocate
// nothing.
type wireConn struct {
	conn net.Conn
	mu   sync.Mutex
	buf  []byte
	gone chan struct{} // closed by the reader at the peer's goodbye; all it sent is queued by then
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

// pipeDepth sizes the per-pair channel buffers so the collectives'
// send-then-receive pattern cannot deadlock: a collective puts at most
// one message per tag on a directed pair, so a sender a few collectives
// ahead of its receiver still does not block.
const pipeDepth = 8

// newFabric builds the part every fabric has: the local table, one pipe
// per directed local pair, the chunk pool and the inbox of the wire
// queues. DialTCP adds connections for the endpoints that are not local.
func newFabric(topo Topology, proc int, local func(rank int) bool) *TCP {
	n := topo.Endpoints()
	f := &TCP{
		topo:   topo,
		proc:   proc,
		pool:   newBufPool(),
		local:  make([]bool, n),
		pipes:  make([][]chan message, n),
		inbox:  make(map[inboxKey]chan message),
		closed: make(chan struct{}),
	}
	for r := range f.local {
		f.local[r] = local(r)
	}
	for s := range f.pipes {
		if !f.local[s] {
			continue
		}
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

// DialTCP establishes the fabric: it listens for higher-indexed peers,
// dials lower-indexed ones (retrying, so agents may start in any
// order), and returns once every peer connection is up. The rendezvous
// deadline is the earlier of ctx's deadline and now+DialTimeout, and
// cancelling ctx aborts the rendezvous immediately (the returned error
// then wraps ctx's error, so callers can match it with errors.Is). On
// failure everything opened so far is torn down and an error returned.
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
	deadline := time.Now().Add(timeout) //parallax:allow(detsource) -- rendezvous deadline is wall-clock by design; the data plane starts only after the epoch-fenced handshake
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	f := newFabric(topo, cfg.Process, func(rank int) bool { return topo.ProcessOf(rank) == cfg.Process })
	f.epoch = cfg.Epoch
	f.hbInterval = hbInterval
	f.hbTimeout = hbTimeout
	f.conns = make([]*wireConn, procs)

	// The listener lives for the rendezvous only: a process with no
	// higher-indexed peer has nobody to accept and listens not at all.
	nAccept := procs - 1 - cfg.Process
	var ln net.Listener
	if nAccept > 0 {
		ln = cfg.Listener
		if ln == nil {
			var err error
			if ln, err = net.Listen("tcp", cfg.Addrs[cfg.Process]); err != nil {
				return nil, err
			}
		}
	} else if cfg.Listener != nil {
		cfg.Listener.Close()
	}
	fingerprint := cfg.Policy.Fingerprint()
	type acceptRes struct {
		peer int
		conn net.Conn
		err  error
	}
	accCh := make(chan acceptRes, nAccept+4)
	fail := func(err error) (*TCP, error) {
		if ln != nil {
			ln.Close() // ends the accept goroutine
		}
		for _, wc := range f.conns {
			if wc != nil {
				wc.conn.Close()
			}
		}
		for { // close accepted-but-unclaimed connections
			select {
			case r := <-accCh:
				if r.conn != nil {
					r.conn.Close()
				}
			default:
				return nil, err
			}
		}
	}

	if ln != nil {
		// Accept until the listener closes, not until nAccept good
		// handshakes: a duplicate connection from a restarted peer must
		// not eat a genuine peer's slot. The success path closes the
		// listener once all peers are connected, the fail path on error;
		// the goroutine is tracked, so Close reaps it either way.
		f.readers.Add(1)
		go func() {
			defer f.readers.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return // listener closed; a premature break surfaces as a timeout below
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //parallax:allow(detsource) -- handshake read deadline; connection management, not step control flow
				var magic [4]byte
				if _, err := io.ReadFull(conn, magic[:]); err != nil {
					conn.Close()
					continue
				}
				if magic != handshakeMagic {
					conn.Close() // junk
					continue
				}
				peer, peerFP, peerEpoch, err := readHandshake(conn)
				if err != nil || peer <= cfg.Process || peer >= procs {
					conn.Close() // junk or misrouted connection
					continue
				}
				if peerEpoch != cfg.Epoch {
					// A peer from another fabric generation: tell it
					// (ackEpoch). When the peer is AHEAD, this process is
					// the stale one — fail the rendezvous so the caller
					// re-reads the cluster epoch and retries; when the peer
					// is behind, keep accepting (the stale peer will catch
					// up and redial).
					conn.Write([]byte{ackEpoch})
					conn.Close()
					if peerEpoch > cfg.Epoch {
						select {
						case accCh <- acceptRes{err: fmt.Errorf(
							"transport: process %d at epoch %d, peer %d already at %d: %w",
							cfg.Process, cfg.Epoch, peer, peerEpoch, errs.ErrEpochMismatch)}:
						default:
						}
					}
					continue
				}
				if peerFP != fingerprint {
					// A real peer with the wrong policy: tell it
					// (ackPolicy), then fail the rendezvous — this is a
					// deployment error, not junk to ignore.
					conn.Write([]byte{ackPolicy})
					conn.Close()
					select {
					case accCh <- acceptRes{err: fmt.Errorf(
						"transport: process %d compression policy %q, peer %d has %q: %w",
						cfg.Process, fingerprint, peer, peerFP, errs.ErrCompressionMismatch)}:
					default:
					}
					continue
				}
				if _, err := conn.Write([]byte{ackOK}); err != nil {
					conn.Close()
					continue
				}
				select {
				case accCh <- acceptRes{peer: peer, conn: conn}:
				default:
					conn.Close() // rendezvous already over
				}
			}
		}()
	}

	// One dial loop per lower-indexed peer. A refused connect and a
	// handshake dropped mid-way — the peer's fabric tearing down between
	// accepting and answering, an epoch transition in flight (elastic
	// grow, recovery rebind) — are the same retryable attempt; only an
	// explicit rejection (wrong epoch, wrong policy) is final. One connect
	// waits at most a second, so a peer that binds late is found soon.
	dialer := net.Dialer{Deadline: deadline, Timeout: time.Second}
	for q := 0; q < cfg.Process; q++ {
		hs := append(append([]byte(nil), handshakeMagic[:]...), 0, 0, 0, 0, 0, 0, 0, 0)
		binary.LittleEndian.PutUint16(hs[4:], uint16(cfg.Process))
		binary.LittleEndian.PutUint16(hs[6:], uint16(len(fingerprint)))
		binary.LittleEndian.PutUint32(hs[8:], uint32(cfg.Epoch))
		hs = append(hs, fingerprint...)
		try := func() (net.Conn, error) {
			c, err := dialer.DialContext(ctx, "tcp", cfg.Addrs[q])
			if err != nil {
				return nil, err
			}
			c.SetDeadline(deadline)
			var ack [1]byte
			if _, err = c.Write(hs); err == nil {
				_, err = io.ReadFull(c, ack[:])
			}
			switch {
			case err != nil:
				err = fmt.Errorf("transport: handshake with peer %d: %w", q, err)
			case ack[0] == ackEpoch:
				err = fmt.Errorf("transport: process %d at epoch %d rejected by peer %d: %w",
					cfg.Process, cfg.Epoch, q, errs.ErrEpochMismatch)
			case ack[0] != ackOK:
				err = fmt.Errorf("transport: process %d compression policy %q rejected by peer %d: %w",
					cfg.Process, fingerprint, q, errs.ErrCompressionMismatch)
			default:
				c.SetDeadline(time.Time{})
				return c, nil
			}
			c.Close()
			return nil, err
		}
		// Seeded per (process, peer): a restarting fleet's redials spread
		// out, and a run's pacing is reproducible.
		rng := rand.New(rand.NewSource(int64(cfg.Process)*104729 + int64(q)*7919 + 1))
		for attempt := 0; f.conns[q] == nil; attempt++ {
			conn, err := try()
			if err == nil {
				f.conns[q] = &wireConn{conn: conn, gone: make(chan struct{})}
				continue
			}
			if errors.Is(err, errs.ErrEpochMismatch) || errors.Is(err, errs.ErrCompressionMismatch) {
				return fail(err)
			}
			if ctx.Err() == nil && time.Now().Before(deadline) { //parallax:allow(detsource) -- rendezvous retry budget; wall-clock by design
				if err = (Backoff{}).Wait(ctx, attempt, rng); err == nil {
					continue
				}
			}
			return fail(fmt.Errorf("transport: process %d dialing peer %d (%s): %w",
				cfg.Process, q, cfg.Addrs[q],
				&errs.PeerFailure{Rank: q, Epoch: cfg.Epoch, Cause: cmp.Or(ctx.Err(), err)}))
		}
	}
	// A rendezvous timeout is a peer failure too — some expected agent
	// never showed up — so it carries the first missing rank and matches
	// errs.ErrPeerFailed, letting recovery policies treat "died before
	// connecting" and "died mid-step" uniformly.
	timeoutErr := func(got int) error {
		missing := -1
		for p := cfg.Process + 1; p < procs; p++ {
			if f.conns[p] == nil {
				missing = p
				break
			}
		}
		return fmt.Errorf("transport: process %d timed out waiting for %d peer(s): %w",
			cfg.Process, nAccept-got,
			&errs.PeerFailure{Rank: missing, Epoch: cfg.Epoch, Cause: errs.ErrPeerFailed})
	}
	for got := 0; got < nAccept; {
		wait := time.Until(deadline) //parallax:allow(detsource) -- accept-side rendezvous budget; wall-clock by design
		if wait <= 0 {
			return fail(timeoutErr(got))
		}
		select {
		case r := <-accCh:
			if r.err != nil {
				return fail(r.err)
			}
			if f.conns[r.peer] != nil {
				r.conn.Close() // duplicate from a retrying peer
				continue
			}
			f.conns[r.peer] = &wireConn{conn: r.conn, gone: make(chan struct{})}
			got++
		case <-ctx.Done():
			return fail(fmt.Errorf("transport: process %d rendezvous aborted: %w",
				cfg.Process, ctx.Err()))
		case <-time.After(wait): //parallax:allow(detsource) -- accept-side rendezvous budget; wall-clock by design
			return fail(timeoutErr(got))
		}
	}
	if ln != nil {
		ln.Close() // all peers connected
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

// readHandshake reads the rendezvous header after the accept loop has
// consumed (and matched) the 4 magic bytes; the loop armed the read
// deadline, readHandshake clears it.
func readHandshake(conn net.Conn) (peer int, fp string, epoch int, err error) {
	defer conn.SetReadDeadline(time.Time{})
	var hs [8]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return 0, "", 0, err
	}
	peer = int(binary.LittleEndian.Uint16(hs[0:2]))
	epoch = int(binary.LittleEndian.Uint32(hs[4:8]))
	raw := make([]byte, binary.LittleEndian.Uint16(hs[2:4]))
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

// reader drains one peer connection into the per-(src, dst, tag) inbox
// queues. Every frame read is armed with the heartbeat read deadline
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
		src, dst, m, err := decodeMessage(payload[:n], f.pool)
		if err != nil || !f.Local(dst) || f.topo.ProcessOf(src) != peer {
			if err == nil {
				err = fmt.Errorf("misrouted frame src=%d dst=%d", src, dst)
			}
			f.readerFailed(peer, err)
			return
		}
		f.recv.Add(int64(4 + n))
		select {
		case f.queue(src, dst, m.tag) <- m:
		case <-f.closed:
			// Nobody will take it; an orderly Close reads on to the peer's
			// end of stream, a failure has closed the connection.
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

// queue returns the inbox channel for a (src, dst, tag) stream, creating
// it on first use (either side — reader or receiver — may get there
// first).
func (f *TCP) queue(src, dst int, tag string) chan message {
	key := inboxKey{src: src, dst: dst, tag: tag}
	f.inboxMu.Lock()
	q := f.inbox[key]
	if q == nil {
		q = make(chan message, 64)
		f.inbox[key] = q
	}
	f.inboxMu.Unlock()
	return q
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
			f.failPeer(f.topo.ProcessOf(dst), err)
			panic(ClosedPanic{Err: fmt.Errorf("transport: endpoint %d send tag %q to %d: %w",
				src, m.tag, dst, f.Err())})
		}
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

// recv blocks for the next message from src under tag and asserts its
// tag and kind: a mismatch means two endpoints' protocols diverged, which
// is a bug, so it panics rather than silently reordering. ok is false
// once the fabric is closed, or src's process has said goodbye and the
// queue holds nothing more from it.
func (c conduit) recv(src int, tag string, k kind) (m message, ok bool) {
	var q chan message
	var gone chan struct{} // stays nil for a local source: a pipe's sender cannot depart
	if c.f.local[src] {
		q = c.f.pipes[src][c.rank]
	} else {
		q = c.f.queue(src, c.rank, tag)
		gone = c.f.conns[c.f.topo.ProcessOf(src)].gone
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
