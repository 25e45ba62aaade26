package checkpoint

// Tests for the elastic-membership records (members.go): canonical
// encode/decode under the §8 codec discipline, the MEMBERS and proposal
// files, and the join-request directory. The unit cases here seed
// FuzzMembershipDecode's corpus.

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleMemberships() []*Membership {
	return []*Membership{
		{Epoch: 0, Step: 0, Cursor: 0, Parts: 1, Joiner: -1,
			Members: []Member{{Addr: "127.0.0.1:7001", GPUs: 1}}},
		{Epoch: 3, Step: 20, Cursor: 80, Parts: 8, Joiner: 2, Members: []Member{
			{Addr: "10.0.0.1:7001", GPUs: 2},
			{Addr: "10.0.0.2:7001", GPUs: 2},
			{Addr: "10.0.0.3:7001", GPUs: 4},
		}},
		{Epoch: 1, Step: 1 << 40, Cursor: 1 << 41, Parts: 64, Joiner: -1, Members: []Member{
			{Addr: strings.Repeat("h", 255), GPUs: 0xFFFF},
			{Addr: "b:1", GPUs: 1},
		}},
	}
}

func sampleJoinRequests() []*JoinRequest {
	return []*JoinRequest{
		{Addr: "127.0.0.1:7003", GPUs: 2, Fingerprint: "none"},
		{Addr: "j:1", GPUs: 1, Fingerprint: ""},
		{Addr: strings.Repeat("a", 255), GPUs: 0xFFFF, Fingerprint: strings.Repeat("f", 255)},
	}
}

func TestMembershipRoundTrip(t *testing.T) {
	for i, m := range sampleMemberships() {
		b := AppendMembership(nil, m)
		got, err := DecodeMembership(b)
		if err != nil {
			t.Fatalf("membership %d: %v", i, err)
		}
		if got.Epoch != m.Epoch || got.Step != m.Step || got.Cursor != m.Cursor ||
			got.Parts != m.Parts || got.Joiner != m.Joiner || len(got.Members) != len(m.Members) {
			t.Fatalf("membership %d: decoded %+v, want %+v", i, got, m)
		}
		for j := range m.Members {
			if got.Members[j] != m.Members[j] {
				t.Fatalf("membership %d member %d: %+v != %+v", i, j, got.Members[j], m.Members[j])
			}
		}
		// Canonical: re-encoding the decoded value is byte-stable.
		if !bytes.Equal(AppendMembership(nil, got), b) {
			t.Fatalf("membership %d: re-encode not byte-stable", i)
		}
		if got.IndexOf(m.Members[0].Addr) != 0 || got.IndexOf("nobody") != -1 {
			t.Fatalf("membership %d: IndexOf wrong", i)
		}
	}
	for i, r := range sampleJoinRequests() {
		b := AppendJoinRequest(nil, r)
		got, err := DecodeJoinRequest(b)
		if err != nil {
			t.Fatalf("join request %d: %v", i, err)
		}
		if *got != *r {
			t.Fatalf("join request %d: decoded %+v, want %+v", i, got, r)
		}
		if !bytes.Equal(AppendJoinRequest(nil, got), b) {
			t.Fatalf("join request %d: re-encode not byte-stable", i)
		}
	}
}

// TestMembershipDecodeRejectsMalformed: invalid memberships panic at
// encode and are errors at decode. Truncations and trailing bytes are
// TestEveryPrefixRefused's.
func TestMembershipDecodeRejectsMalformed(t *testing.T) {
	good := AppendMembership(nil, sampleMemberships()[1])
	mutate := func(name string, f func(m *Membership)) {
		m := sampleMemberships()[1]
		c := *m
		c.Members = append([]Member(nil), m.Members...)
		f(&c)
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: encoding an invalid membership did not panic", name)
			}
		}()
		AppendMembership(nil, &c)
	}
	mutate("no members", func(m *Membership) { m.Members = nil })
	mutate("duplicate rank", func(m *Membership) { m.Members[1].Addr = m.Members[0].Addr })
	mutate("empty addr", func(m *Membership) { m.Members[0].Addr = "" })
	mutate("zero gpus", func(m *Membership) { m.Members[0].GPUs = 0 })
	mutate("joiner out of range", func(m *Membership) { m.Joiner = 3 })
	mutate("zero parts", func(m *Membership) { m.Parts = 0 })
	mutate("negative epoch", func(m *Membership) { m.Epoch = -1 })

	// The same invariants rejected at decode time: hand-craft records the
	// encoder refuses to produce.
	over := append([]byte(nil), good...)
	// member count lives at offset 1+4+8+8+4+2 = 27..28 (LE u16)
	over[27], over[28] = 0xFF, 0xFF
	if _, err := DecodeMembership(over); err == nil {
		t.Fatal("oversized member count accepted")
	}
	dup := AppendMembership(nil, &Membership{
		Epoch: 0, Step: 0, Cursor: 0, Parts: 1, Joiner: -1,
		Members: []Member{{Addr: "a:1", GPUs: 1}, {Addr: "b:1", GPUs: 1}},
	})
	// Rewrite member 1's addr bytes to member 0's ("a:1" == "b:1" length).
	copy(dup[len(dup)-6:len(dup)-3], "a:1")
	if _, err := DecodeMembership(dup); err == nil {
		t.Fatal("duplicate-rank record accepted")
	}
	if _, err := DecodeMembership(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

// FuzzMembershipDecode pins the §8 discipline on both membership
// records: any input either errors or decodes to a value whose canonical
// re-encoding round-trips — and nothing panics. The corpus is seeded
// from the unit-test samples plus targeted malformations.
func FuzzMembershipDecode(f *testing.F) {
	for _, m := range sampleMemberships() {
		f.Add(AppendMembership(nil, m))
	}
	for _, r := range sampleJoinRequests() {
		f.Add(AppendJoinRequest(nil, r))
	}
	good := AppendMembership(nil, sampleMemberships()[1])
	f.Add(good[:len(good)/2])                      // truncation
	f.Add(append(append([]byte(nil), good...), 0)) // trailing byte
	over := append([]byte(nil), good...)
	over[27], over[28] = 0xFF, 0xFF
	f.Add(over) // oversized member count
	f.Add([]byte{membershipVersion})
	f.Add([]byte{99, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := DecodeMembership(b); err == nil {
			enc := AppendMembership(nil, m)
			m2, err := DecodeMembership(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical encoding failed: %v", err)
			}
			if !bytes.Equal(AppendMembership(nil, m2), enc) {
				t.Fatal("canonical encoding not byte-stable")
			}
		}
		if r, err := DecodeJoinRequest(b); err == nil {
			enc := AppendJoinRequest(nil, r)
			if r2, err := DecodeJoinRequest(enc); err != nil || *r2 != *r {
				t.Fatalf("join request canonical round-trip failed: %v", err)
			}
		}
	})
}

func TestMembersRoundTrip(t *testing.T) {
	root := t.TempDir()
	if m, err := ReadMembers(root); err != nil || m != nil {
		t.Fatalf("fresh root: members %v err %v, want nil/nil", m, err)
	}
	want := &Membership{
		Epoch: 2, Step: 30, Cursor: 120, Parts: 8, Joiner: 1,
		Members: []Member{
			{Addr: "127.0.0.1:7001", GPUs: 2},
			{Addr: "127.0.0.1:7003", GPUs: 2},
		},
	}
	if err := WriteMembers(root, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMembers(root)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch || got.Joiner != want.Joiner || len(got.Members) != 2 ||
		got.Members[1].Addr != "127.0.0.1:7003" {
		t.Fatalf("ReadMembers = %+v", got)
	}
	if !got.Admits("127.0.0.1:7003", 1) || got.Admits("127.0.0.1:7003", 2) || got.Admits("127.0.0.1:7001", 1) {
		t.Fatal("Admits: want the joiner slot at a newer epoch only")
	}
	// A corrupt record is an error, not a nil (the caller must not
	// silently fall back to launch flags on a torn root).
	if err := os.WriteFile(filepath.Join(root, membersFile), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMembers(root); err == nil {
		t.Fatal("corrupt MEMBERS accepted")
	}
}

// TestMembersReadsRecordedRoot reads a root whose EPOCH, MEMBERS and
// proposal record were written by the build that still kept the
// membership codec in internal/transport: the records' bytes did not
// change when the codec moved, and re-encoding reproduces them.
func TestMembersReadsRecordedRoot(t *testing.T) {
	root := filepath.Join("testdata", "parent-root")
	m, err := ReadMembers(root)
	if err != nil || m == nil {
		t.Fatalf("MEMBERS: %+v, %v", m, err)
	}
	rec, err := ReadMembershipRecord(root, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e, err := ReadEpoch(root); err != nil || e != 1 {
		t.Fatalf("EPOCH = %d (%v), want 1", e, err)
	}
	if m.Epoch != 1 || m.Step != 8 || m.Cursor != 32 || m.Parts != 8 || !m.Admits("127.0.0.1:7753", 0) ||
		len(m.Members) != 3 || m.Members[0] != (Member{Addr: "127.0.0.1:7751", GPUs: 2}) {
		t.Fatalf("MEMBERS decoded as %+v", m)
	}
	for name, got := range map[string]*Membership{membersFile: m, "membership/epoch-00000001-from-001": rec} {
		raw, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(AppendMembership(nil, got), raw) {
			t.Fatalf("%s: re-encoding differs from the recorded bytes", name)
		}
	}
}

func TestMembershipRecords(t *testing.T) {
	root := t.TempDir()
	rec := func(epoch, proposer, n int) *Membership {
		members := make([]Member, n)
		for i := range members {
			members[i] = Member{Addr: filepath.Join("m", string(rune('a'+i))), GPUs: 1}
		}
		return &Membership{Epoch: epoch, Parts: 1, Joiner: -1, Members: members}
	}
	// Two proposers publish for the same epoch without clobbering.
	if err := WriteMembershipRecord(root, 0, rec(1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := WriteMembershipRecord(root, 1, rec(1, 1, 3)); err != nil {
		t.Fatal(err)
	}
	m0, err := ReadMembershipRecord(root, 1, 0)
	if err != nil || len(m0.Members) != 2 {
		t.Fatalf("proposer 0 record: %+v err %v", m0, err)
	}
	m1, err := ReadMembershipRecord(root, 1, 1)
	if err != nil || len(m1.Members) != 3 {
		t.Fatalf("proposer 1 record: %+v err %v", m1, err)
	}
	// Re-publishing overwrites (a retried proposal at the same epoch).
	if err := WriteMembershipRecord(root, 0, rec(1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if m0, err = ReadMembershipRecord(root, 1, 0); err != nil || len(m0.Members) != 3 {
		t.Fatalf("overwritten record: %+v err %v", m0, err)
	}
	if _, err := ReadMembershipRecord(root, 2, 0); err == nil {
		t.Fatal("missing record read succeeded")
	}
	// Pruning removes only strictly-older epochs.
	if err := WriteMembershipRecord(root, 0, rec(3, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := PruneMembershipRecords(root, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMembershipRecord(root, 1, 0); err == nil {
		t.Fatal("pruned record still readable")
	}
	if _, err := ReadMembershipRecord(root, 3, 0); err != nil {
		t.Fatalf("current-epoch record pruned: %v", err)
	}
}

// TestJoinRequestRecords walks a request's three ends: listed until
// removed, removed exactly once (the second remover — a withdrawing
// joiner after a claim, or a claim after a withdrawal — sees
// fs.ErrNotExist), and refused with an answer the joiner takes once.
// A new request from the same address clears a stale refusal.
func TestJoinRequestRecords(t *testing.T) {
	root := t.TempDir()
	if reqs, err := JoinRequests(root); err != nil || reqs != nil {
		t.Fatalf("fresh root: %v %v", reqs, err)
	}
	a := &JoinRequest{Addr: "127.0.0.1:7003", GPUs: 2, Fingerprint: "none"}
	b := &JoinRequest{Addr: "[::1]:7004", GPUs: 1, Fingerprint: "f16"}
	for _, r := range []*JoinRequest{b, a} {
		if err := WriteJoinRequest(root, r); err != nil {
			t.Fatal(err)
		}
	}
	// Junk in the directory is not a request.
	if err := os.WriteFile(filepath.Join(root, joinDir, "junk"), []byte{1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	reqs, err := JoinRequests(root)
	if err != nil || len(reqs) != 2 || *reqs[0] != *a || *reqs[1] != *b {
		t.Fatalf("JoinRequests = %v (%v), want [a b] in file-name order", reqs, err)
	}
	if err := RemoveJoinRequest(root, a.Addr); err != nil {
		t.Fatal(err)
	}
	if err := RemoveJoinRequest(root, a.Addr); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("second removal: %v, want fs.ErrNotExist", err)
	}

	answer := *b
	answer.Fingerprint = "none"
	if err := RefuseJoinRequest(root, &answer); err != nil {
		t.Fatal(err)
	}
	if reqs, _ := JoinRequests(root); len(reqs) != 0 {
		t.Fatalf("a refused request is still pending: %v", reqs)
	}
	if got, err := TakeJoinRefusal(root, b.Addr); err != nil || got == nil || *got != answer {
		t.Fatalf("TakeJoinRefusal = %+v (%v), want %+v", got, err, answer)
	}
	if got, err := TakeJoinRefusal(root, b.Addr); err != nil || got != nil {
		t.Fatalf("second TakeJoinRefusal = %+v (%v), want none", got, err)
	}
	if err := RefuseJoinRequest(root, &answer); err != nil {
		t.Fatal(err)
	}
	if err := WriteJoinRequest(root, b); err != nil {
		t.Fatal(err)
	}
	if got, err := TakeJoinRefusal(root, b.Addr); err != nil || got != nil {
		t.Fatalf("a new request kept the stale refusal %+v (%v)", got, err)
	}
}
