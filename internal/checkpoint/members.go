package checkpoint

// Durable membership records for elastic clusters (DESIGN.md §14),
// living next to EPOCH in the auto-checkpoint root — the one medium
// every membership fact moves through:
//
//	root/
//	  EPOCH                        current fabric generation
//	  MEMBERS                      agreed membership of that generation
//	  membership/
//	    epoch-00000002-from-001    machine 1's proposal for epoch 2
//	  join/
//	    3132372e...                a prospective member's join request
//	    3132372e....refused        a member's answer to a refused one
//
// MEMBERS is the authoritative member list: a restarted agent reads it
// before rendezvous and reindexes itself by its own address (or learns
// it was shrunk away), and a joiner reads it to learn it was admitted.
// Proposal records are written by a proposer BEFORE its membership
// agreement round, so once the cluster max-folds a winner, every
// survivor can read the winner's full member list off the shared root —
// the scalar agreement only has to carry the winner's identity. All
// writes use the same atomic temp+rename as WriteEpoch; concurrent
// writers of MEMBERS write identical bytes (everyone adopts the same
// agreed record), so any interleaving is safe.
//
// Both record payloads follow the §8 codec discipline: length-checked,
// bounds-checked decode, error-not-panic, canonical (trailing bytes are
// an error). FuzzMembershipDecode pins that.

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"parallax/internal/transport"
)

const (
	membersFile   = "MEMBERS"
	membershipDir = "membership"
	joinDir       = "join"
	refusedSuffix = ".refused"

	membershipVersion = 1
	// maxMembers bounds a decoded member list; a record declaring more is
	// corrupt (or hostile), not a bigger cluster.
	maxMembers = 1024
	noJoiner   = 0xFFFF
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
// It is both a proposal record and the durable MEMBERS record.
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

// Admits reports whether m admits the joiner serving on addr at an
// epoch after the given one.
func (m *Membership) Admits(addr string, after int) bool {
	return m.Epoch > after && m.Joiner >= 0 && m.Members[m.Joiner].Addr == addr
}

// validate applies the structural invariants shared by encode and
// decode: a membership names at least one machine, every member has a
// non-empty unique address and at least one GPU, and the joiner index
// (when present) is in range. Duplicate addresses are the record form of
// a duplicate rank — two machines claiming the same slot — and are
// rejected here rather than at rendezvous, where they would deadlock.
func (m *Membership) validate() error {
	if m.Epoch < 0 {
		return fmt.Errorf("checkpoint: membership epoch %d negative", m.Epoch)
	}
	if m.Step < 0 || m.Cursor < 0 {
		return fmt.Errorf("checkpoint: membership step %d / cursor %d negative", m.Step, m.Cursor)
	}
	if m.Parts < 1 {
		return fmt.Errorf("checkpoint: membership with %d partitions", m.Parts)
	}
	if len(m.Members) < 1 || len(m.Members) > maxMembers {
		return fmt.Errorf("checkpoint: membership with %d members (want 1..%d)", len(m.Members), maxMembers)
	}
	if m.Joiner != -1 && (m.Joiner < 0 || m.Joiner >= len(m.Members)) {
		return fmt.Errorf("checkpoint: membership joiner %d out of range for %d members", m.Joiner, len(m.Members))
	}
	seen := make(map[string]bool, len(m.Members))
	for i, mem := range m.Members {
		if mem.Addr == "" || len(mem.Addr) > 255 {
			return fmt.Errorf("checkpoint: member %d address length %d (want 1..255)", i, len(mem.Addr))
		}
		if mem.GPUs < 1 || mem.GPUs > 0xFFFF {
			return fmt.Errorf("checkpoint: member %d with %d GPUs", i, mem.GPUs)
		}
		if seen[mem.Addr] {
			return fmt.Errorf("checkpoint: duplicate member address %q (duplicate rank)", mem.Addr)
		}
		seen[mem.Addr] = true
	}
	return nil
}

// AppendMembership appends the canonical encoding of m to b. The
// membership must be valid (it panics otherwise — encoding an invalid
// membership is a programming error, unlike decoding one off disk).
func AppendMembership(b []byte, m *Membership) []byte {
	if err := m.validate(); err != nil {
		panic(err)
	}
	b = append(b, membershipVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Epoch))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Step))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Cursor))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Parts))
	joiner := uint16(noJoiner)
	if m.Joiner >= 0 {
		joiner = uint16(m.Joiner)
	}
	b = binary.LittleEndian.AppendUint16(b, joiner)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Members)))
	for _, mem := range m.Members {
		b = append(b, byte(len(mem.Addr)))
		b = append(b, mem.Addr...)
		b = binary.LittleEndian.AppendUint16(b, uint16(mem.GPUs))
	}
	return b
}

// DecodeMembership parses a membership record. Any malformed input —
// truncation, oversized declarations, a stale/negative epoch encoding,
// duplicate member addresses, trailing bytes — returns an error; it
// never panics.
func DecodeMembership(b []byte) (*Membership, error) {
	d := transport.NewDecoder(b)
	ver, err := d.U8()
	if err != nil {
		return nil, err
	}
	if ver != membershipVersion {
		return nil, fmt.Errorf("checkpoint: membership record version %d (want %d)", ver, membershipVersion)
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
		return nil, fmt.Errorf("checkpoint: membership step/cursor out of range")
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
		return nil, fmt.Errorf("checkpoint: membership record declares %d members (want 1..%d)", n, maxMembers)
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
		return nil, fmt.Errorf("checkpoint: membership record has %d trailing bytes", d.Remaining())
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// JoinRequest is what a prospective member files in the root: the
// address it will rendezvous at once admitted, its worker count, and its
// compression-policy fingerprint (the same job-identity check the peer
// rendezvous enforces).
type JoinRequest struct {
	Addr        string
	GPUs        int
	Fingerprint string
}

func (r *JoinRequest) validate() error {
	if r.Addr == "" || len(r.Addr) > 255 {
		return fmt.Errorf("checkpoint: join request address length %d (want 1..255)", len(r.Addr))
	}
	if r.GPUs < 1 || r.GPUs > 0xFFFF {
		return fmt.Errorf("checkpoint: join request with %d GPUs", r.GPUs)
	}
	if len(r.Fingerprint) > 255 {
		return fmt.Errorf("checkpoint: join request fingerprint length %d (max 255)", len(r.Fingerprint))
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
	b = binary.LittleEndian.AppendUint16(b, uint16(r.GPUs))
	b = append(b, byte(len(r.Addr)))
	b = append(b, r.Addr...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Fingerprint)))
	b = append(b, r.Fingerprint...)
	return b
}

// DecodeJoinRequest parses a join-request record with the same
// error-not-panic discipline as DecodeMembership.
func DecodeJoinRequest(b []byte) (*JoinRequest, error) {
	d := transport.NewDecoder(b)
	ver, err := d.U8()
	if err != nil {
		return nil, err
	}
	if ver != membershipVersion {
		return nil, fmt.Errorf("checkpoint: join request version %d (want %d)", ver, membershipVersion)
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
		return nil, fmt.Errorf("checkpoint: join request has %d trailing bytes", d.Remaining())
	}
	r := &JoinRequest{Addr: string(addr), GPUs: int(gpus), Fingerprint: string(fp)}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// ReadMembers returns the membership recorded in root, nil (no error)
// when none has been recorded yet — a cluster still running on its
// launch flags.
func ReadMembers(root string) (*Membership, error) {
	b, err := os.ReadFile(filepath.Join(root, membersFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	m, err := DecodeMembership(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: malformed MEMBERS record in %s: %w", root, err)
	}
	return m, nil
}

// WriteMembers atomically records the agreed membership in root.
func WriteMembers(root string, m *Membership) error {
	return writeAtomic(root, membersFile, AppendMembership(nil, m))
}

// recordName returns the proposal-record filename for one (epoch,
// proposer) pair; including the proposer keeps concurrent proposals for
// the same epoch from clobbering each other.
func recordName(epoch, proposer int) string {
	return fmt.Sprintf("epoch-%08d-from-%03d", epoch, proposer)
}

// WriteMembershipRecord durably publishes a machine's membership
// proposal for an epoch, before the agreement round that may elect it.
func WriteMembershipRecord(root string, proposer int, m *Membership) error {
	dir := filepath.Join(root, membershipDir)
	return writeAtomic(dir, recordName(m.Epoch, proposer), AppendMembership(nil, m))
}

// ReadMembershipRecord reads the proposal a machine published for an
// epoch — the step survivors take after the agreement elects a winner.
func ReadMembershipRecord(root string, epoch, proposer int) (*Membership, error) {
	path := filepath.Join(root, membershipDir, recordName(epoch, proposer))
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeMembership(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: malformed membership record %s: %w", path, err)
	}
	return m, nil
}

// PruneMembershipRecords removes proposal records for epochs before the
// given one — transition debris no survivor can need again.
func PruneMembershipRecords(root string, beforeEpoch int) error {
	dir := filepath.Join(root, membershipDir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var firstErr error
	for _, e := range ents {
		var epoch, proposer int
		if _, err := fmt.Sscanf(e.Name(), "epoch-%d-from-%d", &epoch, &proposer); err != nil {
			continue
		}
		if epoch < beforeEpoch {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// joinPath names the request record of the joiner serving on addr: the
// address in hex, so any "host:port" is a plain file name.
func joinPath(root, addr string) string {
	return filepath.Join(root, joinDir, hex.EncodeToString([]byte(addr)))
}

// WriteJoinRequest files r in root for the members to find at their next
// step boundary, clearing any refusal an earlier request from the same
// address left behind.
func WriteJoinRequest(root string, r *JoinRequest) error {
	b := AppendJoinRequest(nil, r)
	path := joinPath(root, r.Addr)
	if err := os.Remove(path + refusedSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return writeAtomic(filepath.Dir(path), filepath.Base(path), b)
}

// JoinRequests lists the pending join requests in root in file-name
// order (the same order on every member). A record that does not decode
// is not a request and is skipped.
func JoinRequests(root string) ([]*JoinRequest, error) {
	dir := filepath.Join(root, joinDir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var reqs []*JoinRequest
	for _, e := range ents {
		if strings.Contains(e.Name(), ".") { // a refusal or a write in progress
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // withdrawn or claimed since the listing
			}
			return nil, err
		}
		if r, err := DecodeJoinRequest(b); err == nil {
			reqs = append(reqs, r)
		}
	}
	return reqs, nil
}

// RemoveJoinRequest deletes the request of the joiner serving on addr.
// It is the one decision point for a request: the winner of an
// admission claims it by removing it, a joiner giving up withdraws it by
// removing it, and whichever removal comes second gets an error matching
// fs.ErrNotExist.
func RemoveJoinRequest(root, addr string) error {
	return os.Remove(joinPath(root, addr))
}

// RefuseJoinRequest answers a request the cluster will not admit: it
// records r — the request as the cluster sees it, carrying the cluster's
// own fingerprint — beside the request, then removes the request.
func RefuseJoinRequest(root string, r *JoinRequest) error {
	path := joinPath(root, r.Addr)
	if err := writeAtomic(filepath.Dir(path), filepath.Base(path)+refusedSuffix, AppendJoinRequest(nil, r)); err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// TakeJoinRefusal returns and removes the refusal recorded for the
// joiner serving on addr, nil (no error) when there is none.
func TakeJoinRefusal(root, addr string) (*JoinRequest, error) {
	path := joinPath(root, addr) + refusedSuffix
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	r, err := DecodeJoinRequest(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: malformed join refusal %s: %w", path, err)
	}
	return r, os.Remove(path)
}

// writeAtomic is the temp+rename write behind every control file in the
// root: a reader sees the old bytes or the new, never a torn file.
func writeAtomic(dir, base string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, filepath.Join(dir, base))
}
