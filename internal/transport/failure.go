package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"parallax/internal/errs"
)

// ClosedPanic is the typed panic value every collective receive path
// raises when the fabric closes underneath it (peer death, Close racing
// an in-flight step). The data plane's hot loops stay panic-based — a
// closed fabric mid-collective has no local recovery — but the trainer's
// goroutine wrappers recover this one value into a step error, so a
// dead peer surfaces to the caller as ErrPeerFailed instead of a crash.
// Any other panic value is a genuine bug and propagates.
type ClosedPanic struct {
	// Err describes why the fabric is down; it wraps ErrPeerFailed when
	// a failure was attributed, ErrClosed otherwise.
	Err error
}

// Control frames ride the same length-prefixed stream as data frames,
// flagged by reserved values of the length word (real payloads are
// capped far below by maxFrame):
//
//   - frameHeartbeat: empty keep-alive; the reader refreshes its read
//     deadline and moves on. Sent every HeartbeatInterval per
//     connection.
//   - framePeerDown: followed by the failed process index as u32. Sent
//     best-effort by the first process that observes a peer failure, so
//     every survivor attributes the SAME rank instead of blaming
//     whichever neighbor tears down first.
//   - frameBye: empty; the last frame an orderly Close writes on each
//     connection (Fail and SeverPeer never do). The reader marks the
//     sending process departed — not failed; what it sent before is
//     already queued — and ends, closing its side (the end of stream the
//     leaver reads to, sayBye). From then on the departed process's
//     endpoints read as closed: sends to it drop, a serving loop's RecvPS
//     returns nil, an endpoint still owed a message fails it (leftOwing).
const (
	frameHeartbeat = 0xFFFFFFFF
	framePeerDown  = 0xFFFFFFFE
	frameBye       = 0xFFFFFFFD
	frameCtrlMin   = frameBye // lowest reserved length value
)

// writeCtrl writes one control frame — its reserved length word, then any
// u32 arguments — under a write deadline, so a wedged peer bounds the
// hold of the connection's write mutex.
func (wc *wireConn) writeCtrl(within time.Duration, words ...uint32) error {
	var frame []byte
	for _, w := range words {
		frame = binary.LittleEndian.AppendUint32(frame, w)
	}
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.conn.SetWriteDeadline(time.Now().Add(within)) //parallax:allow(detsource,lockheld) -- wc.mu serializes socket writes by design; the write deadline bounds the hold
	_, err := wc.conn.Write(frame)                   //parallax:allow(lockheld) -- deadline-bounded write under the per-connection write mutex
	wc.conn.SetWriteDeadline(time.Time{})            //parallax:allow(lockheld) -- deadline reset under the same bounded hold
	return err
}

// Epoch returns the fabric generation this process rendezvoused at.
func (f *TCP) Epoch() int { return f.epoch }

// Done is closed when the fabric shuts down, by Close or by a failure.
func (f *TCP) Done() <-chan struct{} { return f.closed }

// Err returns the rank-attributed failure that tore the fabric down, or
// nil while the fabric is healthy (or after an orderly Close). The
// returned error wraps errs.ErrPeerFailed via *errs.PeerFailure.
func (f *TCP) Err() error {
	f.failMu.Lock()
	defer f.failMu.Unlock()
	return f.failure
}

// recordFailure stores the first failure observed; later symptoms of
// the same teardown are ignored so every caller sees one attribution.
func (f *TCP) recordFailure(rank int, cause error) {
	f.failMu.Lock()
	if f.failure == nil {
		f.failure = &errs.PeerFailure{Rank: rank, Epoch: f.epoch, Cause: cause}
	}
	f.failMu.Unlock()
}

// sayBye writes the goodbye and ends this side's stream, best-effort: a
// peer it cannot reach sees the close instead. The connection's reader
// then reads on until the peer, having read the goodbye, closes its end,
// and only then closes the socket: closing one with bytes unread resets
// the connection, and a reset may discard what the peer has yet to read.
// One deadline, which the reader does not slide, bounds all of it: a peer
// that reacts to nothing costs a second, and the reader's close then ends
// every write parked on that peer, this one included.
func (wc *wireConn) sayBye() {
	wc.dl.Lock()
	wc.leaving = true
	wc.conn.SetDeadline(time.Now().Add(time.Second)) //parallax:allow(detsource,lockheld) -- teardown bound, connection management; setting it does not block
	wc.dl.Unlock()
	wc.writeCtrl(time.Second, frameBye)
	if tc, ok := wc.conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// failPeer is the failure path: record the attribution, tell the other
// survivors who died (best-effort), then tear the fabric down so every
// blocked receive fails fast. On a fabric already closing it does
// nothing: orderly teardown reads as connection errors too.
func (f *TCP) failPeer(rank int, cause error) {
	select {
	case <-f.closed:
		return
	default:
	}
	f.recordFailure(rank, cause)
	f.announcePeerDown(rank)
	f.shutdown(false)
}

// announcePeerDown broadcasts a framePeerDown control frame to every
// live peer except the failed one. Best-effort with a short write
// deadline: a peer that cannot be told will detect the cascade through
// its own read deadline.
func (f *TCP) announcePeerDown(rank int) {
	for p, wc := range f.conns {
		if wc != nil && p != rank {
			wc.writeCtrl(time.Second, framePeerDown, uint32(rank))
		}
	}
}

// readerFailed converts a reader's symptom into an attributed failure.
func (f *TCP) readerFailed(peer int, cause error) {
	if ne, ok := cause.(net.Error); ok && ne.Timeout() {
		cause = fmt.Errorf("no frames or heartbeats for %v: %w", f.hbTimeout, cause)
	}
	f.failPeer(peer, cause)
}

// Fail records an attributed failure and tears the fabric down abruptly
// — no peer-down announcement, no drain. This is the fault-injection
// hook (internal/chaos) simulating a crashed process: peers observe the
// closed connections exactly as they would a real crash and attribute
// the failure to this process themselves.
func (f *TCP) Fail(rank int, cause error) {
	f.recordFailure(rank, cause)
	f.shutdown(false)
}

// SeverPeer abruptly closes the connection to one peer without any
// announcement — the fault-injection hook for a single broken link.
// The local reader then attributes the peer as failed; the remote side
// observes a reset and attributes this process.
func (f *TCP) SeverPeer(peer int) error {
	if peer < 0 || peer >= len(f.conns) || f.conns[peer] == nil {
		return fmt.Errorf("transport: process %d has no connection to sever for peer %d", f.proc, peer)
	}
	return f.conns[peer].conn.Close()
}

// leftOwing is called by an endpoint that was owed a message by src — a
// collective receive, a client awaiting its reply — and found src closed.
// If this fabric is still up, src's process said goodbye mid-protocol: a
// failure of that process like any other, attributed, announced, fail-stop.
func (f *TCP) leftOwing(src int) {
	f.failPeer(f.topo.ProcessOf(src), errors.New("closed its fabric mid-protocol"))
}

// closedErr is the error a receive path reports when the fabric is
// down: the attributed peer failure when one exists, plain ErrClosed
// otherwise (orderly shutdown).
func (f *TCP) closedErr(rank int, tag string, src int) error {
	if err := f.Err(); err != nil {
		return fmt.Errorf("transport: endpoint %d recv %q from %d: %w", rank, tag, src, err)
	}
	return fmt.Errorf("transport: endpoint %d recv %q from %d on closed fabric: %w",
		rank, tag, src, errs.ErrClosed)
}

// heartbeatLoop writes one empty control frame per interval on one
// connection, so the peer's read deadline keeps sliding while the data
// plane is idle (startup, checkpoint writes, long compute phases).
func (f *TCP) heartbeatLoop(wc *wireConn) {
	defer f.readers.Done()
	t := time.NewTicker(f.hbInterval) //parallax:allow(detsource) -- heartbeat pacing is wall-clock liveness, outside the data path
	defer t.Stop()
	for {
		select {
		case <-f.closed:
			return
		case <-t.C:
			if wc.writeCtrl(f.hbTimeout, frameHeartbeat) != nil {
				// The reader on this connection observes the same broken
				// socket and attributes it — or the peer said goodbye; the
				// sender just stops.
				return
			}
		}
	}
}
