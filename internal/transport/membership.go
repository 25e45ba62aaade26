package transport

// Elastic membership frames (DESIGN.md §14). A cluster that runs with
// TCPConfig.Elastic keeps its rendezvous listener open after the fabric
// is up; a prospective member dials any running agent and performs the
// join handshake:
//
//	joiner                          member (listener)
//	  "PXJN" | u32 len | JoinRequest  ->
//	                                <-  1 ack byte (joinAckWait | joinAckBusy | ackPolicy)
//	  ... cluster agrees on admission at a step boundary ...
//	                                <-  u32 len | Membership
//
// The parked connection carries no training traffic — it exists only to
// deliver the admission offer (the new member list, the epoch to dial
// at, and the checkpoint step to restore). Everything after the offer
// rides the ordinary epoch-fenced rendezvous: the joiner dials the new
// epoch like any restarted agent.
//
// Both frame payloads follow the §8 codec discipline: length-prefixed,
// bounds-checked decode, error-not-panic, canonical (trailing bytes are
// an error). FuzzMembershipDecode pins that.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"parallax/internal/errs"
)

// joinMagic opens a join handshake on the rendezvous listener, where
// handshakeMagic ("PXA5") opens a peer rendezvous.
var joinMagic = [4]byte{'P', 'X', 'J', 'N'}

const (
	// Join acks share the rendezvous ack byte space (ackPolicy/ackOK/
	// ackEpoch in tcp.go).
	joinAckWait = 3 // parked: an admission offer (or a teardown) follows
	joinAckBusy = 4 // another joiner is already parked; retry

	membershipVersion = 1
	// maxMembers bounds a decoded member list; a frame declaring more is
	// corrupt (or hostile), not a bigger cluster.
	maxMembers = 1024
	// maxJoinFrame bounds both handshake payloads. A full member list is
	// at most maxMembers * (1 addr byte + 255 addr + 2 gpus) plus the
	// fixed header, comfortably under this.
	maxJoinFrame = 1 << 20
	noJoiner     = 0xFFFF
)

// Member is one machine of an elastic cluster: the address its agent
// rendezvouses at and how many workers it hosts.
type Member struct {
	Addr string
	GPUs int
}

// Membership is the agreed cluster composition at an epoch: the full
// member list in machine order, the checkpoint step/cursor the epoch
// restores from, and — for an admission — which entry is the joiner.
// It is both the admission offer sent over a parked join connection and
// the durable MEMBERS record in the auto-checkpoint root.
type Membership struct {
	Epoch   int
	Step    int64
	Cursor  int64
	Parts   int
	Joiner  int // index into Members of the newly admitted machine; -1 = none
	Members []Member
}

// Addrs returns the member addresses in machine order.
func (m *Membership) Addrs() []string {
	a := make([]string, len(m.Members))
	for i, mem := range m.Members {
		a[i] = mem.Addr
	}
	return a
}

// IndexOf returns the machine index of the member with the given
// address, or -1 if it is not a member.
func (m *Membership) IndexOf(addr string) int {
	for i, mem := range m.Members {
		if mem.Addr == addr {
			return i
		}
	}
	return -1
}

// validate applies the structural invariants shared by encode and
// decode: a membership names at least one machine, every member has a
// non-empty unique address and at least one GPU, and the joiner index
// (when present) is in range. Duplicate addresses are the wire form of
// a duplicate rank — two machines claiming the same slot — and are
// rejected here rather than at rendezvous, where they would deadlock.
func (m *Membership) validate() error {
	if m.Epoch < 0 {
		return fmt.Errorf("transport: membership epoch %d negative", m.Epoch)
	}
	if m.Step < 0 || m.Cursor < 0 {
		return fmt.Errorf("transport: membership step %d / cursor %d negative", m.Step, m.Cursor)
	}
	if m.Parts < 1 {
		return fmt.Errorf("transport: membership with %d partitions", m.Parts)
	}
	if len(m.Members) < 1 || len(m.Members) > maxMembers {
		return fmt.Errorf("transport: membership with %d members (want 1..%d)", len(m.Members), maxMembers)
	}
	if m.Joiner != -1 && (m.Joiner < 0 || m.Joiner >= len(m.Members)) {
		return fmt.Errorf("transport: membership joiner %d out of range for %d members", m.Joiner, len(m.Members))
	}
	seen := make(map[string]bool, len(m.Members))
	for i, mem := range m.Members {
		if mem.Addr == "" || len(mem.Addr) > 255 {
			return fmt.Errorf("transport: member %d address length %d (want 1..255)", i, len(mem.Addr))
		}
		if mem.GPUs < 1 || mem.GPUs > 0xFFFF {
			return fmt.Errorf("transport: member %d with %d GPUs", i, mem.GPUs)
		}
		if seen[mem.Addr] {
			return fmt.Errorf("transport: duplicate member address %q (duplicate rank)", mem.Addr)
		}
		seen[mem.Addr] = true
	}
	return nil
}

// AppendMembership appends the canonical encoding of m to b. The
// membership must be valid (it panics otherwise — encoding an invalid
// membership is a programming error, unlike decoding one off the wire).
func AppendMembership(b []byte, m *Membership) []byte {
	if err := m.validate(); err != nil {
		panic(err)
	}
	b = append(b, membershipVersion)
	b = appendU32(b, uint32(m.Epoch))
	b = appendU64(b, uint64(m.Step))
	b = appendU64(b, uint64(m.Cursor))
	b = appendU32(b, uint32(m.Parts))
	joiner := uint16(noJoiner)
	if m.Joiner >= 0 {
		joiner = uint16(m.Joiner)
	}
	b = appendU16(b, joiner)
	b = appendU16(b, uint16(len(m.Members)))
	for _, mem := range m.Members {
		b = append(b, byte(len(mem.Addr)))
		b = append(b, mem.Addr...)
		b = appendU16(b, uint16(mem.GPUs))
	}
	return b
}

// DecodeMembership parses a membership frame. Any malformed input —
// truncation, oversized declarations, a stale/negative epoch encoding,
// duplicate member addresses, trailing bytes — returns an error; it
// never panics.
func DecodeMembership(b []byte) (*Membership, error) {
	d := NewDecoder(b)
	ver, err := d.U8()
	if err != nil {
		return nil, err
	}
	if ver != membershipVersion {
		return nil, fmt.Errorf("transport: membership frame version %d (want %d)", ver, membershipVersion)
	}
	epoch, err := d.U32()
	if err != nil {
		return nil, err
	}
	step, err := d.U64()
	if err != nil {
		return nil, err
	}
	cursor, err := d.U64()
	if err != nil {
		return nil, err
	}
	if step > 1<<62 || cursor > 1<<62 {
		return nil, fmt.Errorf("transport: membership step/cursor out of range")
	}
	parts, err := d.U32()
	if err != nil {
		return nil, err
	}
	joiner16, err := d.U16()
	if err != nil {
		return nil, err
	}
	n16, err := d.U16()
	if err != nil {
		return nil, err
	}
	n := int(n16)
	if n < 1 || n > maxMembers {
		return nil, fmt.Errorf("transport: membership frame declares %d members (want 1..%d)", n, maxMembers)
	}
	m := &Membership{
		Epoch:   int(epoch),
		Step:    int64(step),
		Cursor:  int64(cursor),
		Parts:   int(parts),
		Joiner:  -1,
		Members: make([]Member, n),
	}
	if joiner16 != noJoiner {
		m.Joiner = int(joiner16)
	}
	for i := range m.Members {
		alen, err := d.U8()
		if err != nil {
			return nil, err
		}
		addr, err := d.Bytes(int(alen))
		if err != nil {
			return nil, err
		}
		gpus, err := d.U16()
		if err != nil {
			return nil, err
		}
		m.Members[i] = Member{Addr: string(addr), GPUs: int(gpus)}
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("transport: membership frame has %d trailing bytes", d.Remaining())
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// JoinRequest is what a prospective member presents on a running
// agent's listener: the address it will rendezvous at once admitted,
// its worker count, and its compression-policy fingerprint (the same
// job-identity check the peer rendezvous enforces).
type JoinRequest struct {
	Addr        string
	GPUs        int
	Fingerprint string
}

func (r *JoinRequest) validate() error {
	if r.Addr == "" || len(r.Addr) > 255 {
		return fmt.Errorf("transport: join request address length %d (want 1..255)", len(r.Addr))
	}
	if r.GPUs < 1 || r.GPUs > 0xFFFF {
		return fmt.Errorf("transport: join request with %d GPUs", r.GPUs)
	}
	if len(r.Fingerprint) > 255 {
		return fmt.Errorf("transport: join request fingerprint length %d (max 255)", len(r.Fingerprint))
	}
	return nil
}

// AppendJoinRequest appends the canonical encoding of r to b; r must be
// valid (panic otherwise, matching AppendMembership).
func AppendJoinRequest(b []byte, r *JoinRequest) []byte {
	if err := r.validate(); err != nil {
		panic(err)
	}
	b = append(b, membershipVersion)
	b = appendU16(b, uint16(r.GPUs))
	b = append(b, byte(len(r.Addr)))
	b = append(b, r.Addr...)
	b = appendU16(b, uint16(len(r.Fingerprint)))
	b = append(b, r.Fingerprint...)
	return b
}

// DecodeJoinRequest parses a join-request frame with the same
// error-not-panic discipline as DecodeMembership.
func DecodeJoinRequest(b []byte) (*JoinRequest, error) {
	d := NewDecoder(b)
	ver, err := d.U8()
	if err != nil {
		return nil, err
	}
	if ver != membershipVersion {
		return nil, fmt.Errorf("transport: join request version %d (want %d)", ver, membershipVersion)
	}
	gpus, err := d.U16()
	if err != nil {
		return nil, err
	}
	alen, err := d.U8()
	if err != nil {
		return nil, err
	}
	addr, err := d.Bytes(int(alen))
	if err != nil {
		return nil, err
	}
	flen, err := d.U16()
	if err != nil {
		return nil, err
	}
	fp, err := d.Bytes(int(flen))
	if err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("transport: join request has %d trailing bytes", d.Remaining())
	}
	r := &JoinRequest{Addr: string(addr), GPUs: int(gpus), Fingerprint: string(fp)}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// RequestJoin performs the joiner's half of the handshake: dial target,
// present the request, and wait — as long as the timeout allows — for
// the cluster to agree on admission and deliver the membership offer.
// Transient outcomes (connection refused while the cluster is between
// epochs, joinAckBusy while another joiner is parked, a parked
// connection torn down because a competing proposal won the round) are
// retried until the deadline. A fingerprint rejection is fatal: the
// joiner is running a different job.
func RequestJoin(ctx context.Context, target string, req JoinRequest, timeout time.Duration) (*Membership, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	deadline := time.Now().Add(timeout) //parallax:allow(detsource) -- join rendezvous deadline is wall-clock by design; the admitted roster is epoch-fenced
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	rng := rand.New(rand.NewSource(int64(len(target))*7919 + 1))
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !time.Now().Before(deadline) { //parallax:allow(detsource) -- join retry budget is wall-clock by design; the admitted roster is epoch-fenced
			if lastErr == nil {
				lastErr = fmt.Errorf("no response")
			}
			return nil, fmt.Errorf("transport: join via %s timed out: %w", target, lastErr)
		}
		m, fatal, err := tryJoin(target, req, deadline)
		if err == nil {
			return m, nil
		}
		if fatal {
			return nil, err
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(Backoff{}.delay(attempt, rng)): //parallax:allow(detsource) -- join retry backoff pacing; never in step control flow
		}
	}
}

// tryJoin is one join attempt; fatal marks errors no retry can fix.
func tryJoin(target string, req JoinRequest, deadline time.Time) (m *Membership, fatal bool, err error) {
	dialTO := time.Until(deadline) //parallax:allow(detsource) -- dial timeout derived from the wall-clock join budget
	if dialTO > 2*time.Second {
		dialTO = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", target, dialTO)
	if err != nil {
		return nil, false, err
	}
	defer conn.Close()
	payload := AppendJoinRequest(nil, &req)
	buf := append([]byte(nil), joinMagic[:]...)
	buf = appendU32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, false, err
	}
	if _, err := conn.Write(buf); err != nil {
		return nil, false, err
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return nil, false, err
	}
	switch ack[0] {
	case joinAckWait:
	case joinAckBusy:
		return nil, false, fmt.Errorf("transport: %s has another joiner parked", target)
	case ackPolicy:
		return nil, true, fmt.Errorf("transport: %w: cluster at %s rejected compression fingerprint %q",
			errs.ErrCompressionMismatch, target, req.Fingerprint)
	default:
		return nil, false, fmt.Errorf("transport: unexpected join ack %d from %s", ack[0], target)
	}
	// Parked: the offer arrives when the cluster reaches a step boundary
	// and agrees on the admission. A close without an offer means the
	// holder's fabric tore down (a competing membership change won) —
	// retry against the new epoch's listener.
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, false, fmt.Errorf("transport: parked join connection closed before an offer: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n <= 0 || n > maxJoinFrame {
		return nil, true, fmt.Errorf("transport: join offer declares %d bytes (max %d)", n, maxJoinFrame)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, false, err
	}
	m, err = DecodeMembership(payload)
	if err != nil {
		return nil, true, err
	}
	return m, false, nil
}
