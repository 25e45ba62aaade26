package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/tensor"
)

func sampleShard() (Meta, []Record) {
	meta := Meta{
		Machine: 1, Machines: 2, Step: 7, Cursor: 28, Parts: 3,
		DecisionSource: "online",
		TopoFP:         "machines=2 gpus=2,2",
		PlanFP:         "fnv64a:0123456789abcdef",
		Compression:    "none",
	}
	val := tensor.NewDense(4, 3)
	slot := tensor.NewDense(4, 3)
	for i := range val.Data() {
		val.Data()[i] = float32(i) * 0.5
		slot.Data()[i] = -float32(i)
	}
	bias := tensor.NewDense(5)
	for i := range bias.Data() {
		bias.Data()[i] = float32(math.Pi) * float32(i)
	}
	return meta, []Record{
		{Kind: KindServerPart, Name: "embedding", Part: 2, Value: val,
			SlotNames: []string{"velocity"}, Slots: []*tensor.Dense{slot}},
		{Kind: KindReplica, Name: "softmax/bias", Value: bias},
	}
}

// TestEncodeDecodeRoundTrip: a shard survives the codec bit-for-bit —
// metadata, shapes, values, and slot state.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	meta, recs := sampleShard()
	b, err := Encode(meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	gotMeta, gotRecs, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("%d records, want %d", len(gotRecs), len(recs))
	}
	for i, want := range recs {
		got := gotRecs[i]
		if got.Kind != want.Kind || got.Name != want.Name || got.Part != want.Part {
			t.Fatalf("record %d header %+v, want %+v", i, got, want)
		}
		for j, v := range want.Value.Data() {
			if math.Float32bits(got.Value.Data()[j]) != math.Float32bits(v) {
				t.Fatalf("record %d value[%d] = %x, want %x", i, j,
					math.Float32bits(got.Value.Data()[j]), math.Float32bits(v))
			}
		}
		if len(got.Slots) != len(want.Slots) {
			t.Fatalf("record %d has %d slots, want %d", i, len(got.Slots), len(want.Slots))
		}
		for k := range want.Slots {
			if got.SlotNames[k] != want.SlotNames[k] {
				t.Fatalf("record %d slot %d named %q, want %q", i, k, got.SlotNames[k], want.SlotNames[k])
			}
			for j, v := range want.Slots[k].Data() {
				if math.Float32bits(got.Slots[k].Data()[j]) != math.Float32bits(v) {
					t.Fatalf("record %d slot %d[%d] mismatch", i, k, j)
				}
			}
		}
	}
}

// TestDecodeRejectsCorruption: the classic corruptions (a file shorter
// than its header, bad magic, future version, trailing garbage) are
// errors, not panics; version problems match errs.ErrCheckpointVersion.
// Truncations are TestEveryPrefixRefused's.
func TestDecodeRejectsCorruption(t *testing.T) {
	meta, recs := sampleShard()
	b, err := Encode(meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(b[:len(magic)]); !errors.Is(err, errs.ErrCheckpointVersion) {
		t.Fatalf("short header error = %v, want ErrCheckpointVersion", err)
	}
	bad := append([]byte(nil), b...)
	bad[0] = 'X'
	if _, _, err := Decode(bad); !errors.Is(err, errs.ErrCheckpointVersion) {
		t.Fatalf("bad magic error = %v, want ErrCheckpointVersion", err)
	}
	bad = append([]byte(nil), b...)
	bad[7] = VersionCompressed + 1
	if _, _, err := Decode(bad); !errors.Is(err, errs.ErrCheckpointVersion) {
		t.Fatalf("future version error = %v, want ErrCheckpointVersion", err)
	}
	if _, _, err := Decode(append(append([]byte(nil), b...), 0xEE)); err == nil {
		t.Fatal("trailing byte decoded successfully")
	}
}

// TestEveryPrefixRefused feeds every strict prefix of every encoding this
// package decodes — a version-2 shard with and without residual records,
// a version-1 shard, each sample membership and join request — to its
// decoder, and the whole encoding plus one byte: each must be an error,
// never a panic or a success, and the encoding itself must decode.
func TestEveryPrefixRefused(t *testing.T) {
	shard := func(b []byte) error { _, _, err := Decode(b); return err }
	member := func(b []byte) error { _, err := DecodeMembership(b); return err }
	join := func(b []byte) error { _, err := DecodeJoinRequest(b); return err }
	meta, recs := sampleShard()
	v2, err := Encode(meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	cmeta, crecs := meta, append(recs, Record{Kind: KindResidual, Name: "0", Part: 1, Value: tensor.NewDense(3)})
	cmeta.Compression = "dense=f16,topk=0.1,psdense=f16,pssparse=f16,delta=true"
	compressed, err := Encode(cmeta, crecs)
	if err != nil {
		t.Fatal(err)
	}
	type encoding struct {
		name   string
		b      []byte
		decode func([]byte) error
	}
	cases := []encoding{
		{"v2 shard", v2, shard},
		{"v2 shard with a residual", compressed, shard},
		{"v1 shard", encodeV1(t, meta, recs), shard},
	}
	for i, m := range sampleMemberships() {
		cases = append(cases, encoding{fmt.Sprintf("membership %d", i), AppendMembership(nil, m), member})
	}
	for i, r := range sampleJoinRequests() {
		cases = append(cases, encoding{fmt.Sprintf("join request %d", i), AppendJoinRequest(nil, r), join})
	}
	for _, c := range cases {
		if err := c.decode(c.b); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for n := range len(c.b) {
			if c.decode(c.b[:n]) == nil {
				t.Fatalf("%s: the first %d of %d bytes decoded", c.name, n, len(c.b))
			}
		}
		if c.decode(append(c.b[:len(c.b):len(c.b)], 0)) == nil {
			t.Fatalf("%s: a trailing byte decoded", c.name)
		}
	}
}

// TestDecodeBoundsRecordCount: a shard that declares more records than
// its bytes could hold costs at most 8× its length in allocations before
// Decode refuses it. The count is bounded by the 20 bytes of the
// smallest record, not by one byte per record, which let a 1 MiB shard
// declaring 2^20 records allocate 88 bytes of Record per declared one.
func TestDecodeBoundsRecordCount(t *testing.T) {
	meta, _ := sampleShard()
	head, err := Encode(meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	const body = 1 << 20
	for _, nrecs := range []uint32{body, body / minRecordBytes} {
		b := append(head[:len(head)-4:len(head)-4], make([]byte, 4+body)...)
		binary.LittleEndian.PutUint32(b[len(head)-4:], nrecs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Decode(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d zero-byte records decoded", nrecs)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(b)) {
			t.Errorf("a %d-byte shard declaring %d records allocated %d B, over 8× its length", len(b), nrecs, alloc)
		}
	}
}

// TestWriteReadShard covers the file layer: atomic write, path scheme,
// machine cross-check.
func TestWriteReadShard(t *testing.T) {
	dir := t.TempDir()
	meta, recs := sampleShard()
	if err := WriteShard(dir, meta, recs); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotRecs, err := ReadShard(dir, meta.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta || len(gotRecs) != len(recs) {
		t.Fatalf("read back %+v / %d records", gotMeta, len(gotRecs))
	}
	if _, _, err := ReadShard(dir, 0); !os.IsNotExist(errUnwrapAll(err)) {
		t.Fatalf("missing shard error = %v", err)
	}
	// A shard renamed to the wrong machine slot is rejected.
	if err := os.Rename(ShardPath(dir, meta.Machine), ShardPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadShard(dir, 0); err == nil {
		t.Fatal("mis-slotted shard read successfully")
	}
}

func errUnwrapAll(err error) error {
	for {
		u := errors.Unwrap(err)
		if u == nil {
			return err
		}
		err = u
	}
}

// TestFingerprintsDiscriminate: the fingerprints change exactly when the
// topology or the plan changes.
func TestFingerprintsDiscriminate(t *testing.T) {
	if TopoFingerprint(cluster.Uniform(2, 2)) == TopoFingerprint(cluster.Uniform(2, 3)) {
		t.Fatal("topology fingerprint ignores GPU count")
	}
	if TopoFingerprint(cluster.Uniform(2, 2)) != TopoFingerprint(cluster.Uniform(2, 2)) {
		t.Fatal("topology fingerprint unstable")
	}
	mk := func(parts int) *core.Plan {
		return &core.Plan{Arch: core.ArchHybrid, Assignments: []core.Assignment{
			{VarInfo: core.VarInfo{Name: "emb", Sparse: true},
				Method: core.MethodPS, Partitions: parts, Servers: make([]int, parts)},
		}}
	}
	if PlanFingerprint(mk(2)) == PlanFingerprint(mk(3)) {
		t.Fatal("plan fingerprint ignores partition count")
	}
	if PlanFingerprint(mk(2)) != PlanFingerprint(mk(2)) {
		t.Fatal("plan fingerprint unstable")
	}
}

// encodeV1 hand-builds the version-1 form of an uncompressed shard, the
// format builds before wire compression wrote: Encode's bytes with the
// version byte set to 1 and the compression fingerprint cut out of the
// metadata, where it follows the fixed header and three strings.
func encodeV1(t testing.TB, meta Meta, recs []Record) []byte {
	t.Helper()
	b, err := Encode(meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	at := len(magic) + 1 + 4 + 4 + 8 + 8 + 4 + 1
	for _, s := range []string{meta.DecisionSource, meta.TopoFP, meta.PlanFP} {
		at += 2 + len(s)
	}
	fp := 2 + int(binary.LittleEndian.Uint16(b[at:]))
	v1 := append(append([]byte(nil), b[:at]...), b[at+fp:]...)
	v1[len(magic)] = Version
	return v1
}

// TestVersionGating: every shard is written at version 2 — an uncompressed
// one with the fingerprint "none", a compressed one with its policy's
// fingerprint and its residual records — and a version-1 shard from an
// older build still decodes to the same state, as uncompressed ("none"),
// which is what lets a session restore it under CompressionNone.
func TestVersionGating(t *testing.T) {
	meta, recs := sampleShard()
	meta.Compression = ""
	b, err := Encode(meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	if b[7] != VersionCompressed {
		t.Fatalf("uncompressed shard wrote version %d, want %d", b[7], VersionCompressed)
	}
	if got, _, err := Decode(b); err != nil || got.Compression != "none" {
		t.Fatalf("uncompressed shard decoded with fingerprint %q (err %v), want \"none\"", got.Compression, err)
	}

	v1 := encodeV1(t, meta, recs)
	meta1, recs1, err := Decode(v1)
	if err != nil {
		t.Fatalf("version-1 shard: %v", err)
	}
	want := meta
	want.Compression = "none"
	if meta1 != want {
		t.Fatalf("version-1 meta = %+v, want %+v", meta1, want)
	}
	// Re-encoding what a version-1 shard decoded to gives the version-2
	// shard of the same state: nothing but the format moved.
	if b1, err := Encode(meta1, recs1); err != nil || string(b1) != string(b) {
		t.Fatalf("version-1 shard does not re-encode to the version-2 bytes (err %v)", err)
	}

	meta.Compression = "dense=f16,topk=0.1,psdense=f32,pssparse=f32,delta=false"
	resid := tensor.NewDense(6)
	for i := range resid.Data() {
		resid.Data()[i] = float32(i) * 0.125
	}
	recs = append(recs, Record{Kind: KindResidual, Name: "0", Part: 1, Value: resid})
	b2, err := Encode(meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	if b2[7] != VersionCompressed {
		t.Fatalf("compressed shard wrote version %d, want %d", b2[7], VersionCompressed)
	}
	meta2, recs2, err := Decode(b2)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Compression != meta.Compression {
		t.Fatalf("compression fingerprint = %q, want %q", meta2.Compression, meta.Compression)
	}
	last := recs2[len(recs2)-1]
	if last.Kind != KindResidual || last.Name != "0" || last.Part != 1 {
		t.Fatalf("residual record decoded as %+v", last)
	}
	for i, v := range resid.Data() {
		if math.Float32bits(last.Value.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("residual element %d mismatch", i)
		}
	}
	// A version-1 file may not carry residual records.
	if _, _, err := Decode(encodeV1(t, meta, recs)); err == nil {
		t.Fatal("version-1 file with residual records decoded successfully")
	}
}

// TestRead covers the whole-checkpoint reader: shards in machine order
// under shard 0's meta, and a refusal for every shard that is missing
// or disagrees with shard 0 on the job's metadata.
func TestRead(t *testing.T) {
	meta, recs := sampleShard()
	meta.Machines = 3
	write := func(t *testing.T, dir string, m int, edits ...func(*Meta)) {
		t.Helper()
		mm := meta
		mm.Machine = m
		for _, edit := range edits {
			if edit != nil {
				edit(&mm)
			}
		}
		if err := WriteShard(dir, mm, recs); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		machines int         // shards 0..machines-1 are written
		skip     int         // a shard index left unwritten, or -1
		all      func(*Meta) // applied to every shard
		edit     func(*Meta) // applied to shard 1 after all
		want     string      // "" reads cleanly
	}{
		{name: "whole", machines: 3, skip: -1},
		{name: "single shard", machines: 1, skip: -1, all: func(m *Meta) { m.Machines = 1 }},
		{name: "stray shard past the count", machines: 4, skip: -1},
		{name: "step", machines: 3, skip: -1, edit: func(m *Meta) { m.Step++ }, want: "torn save"},
		{name: "cursor", machines: 3, skip: -1, edit: func(m *Meta) { m.Cursor++ }, want: "torn save"},
		{name: "parts", machines: 3, skip: -1, edit: func(m *Meta) { m.Parts++ }, want: "torn save"},
		{name: "plan", machines: 3, skip: -1, edit: func(m *Meta) { m.PlanFP = "fnv64a:0" }, want: "torn save"},
		{name: "topology", machines: 3, skip: -1, edit: func(m *Meta) { m.TopoFP = "machines=3 gpus=1,1,1" }, want: "torn save"},
		{name: "machine count", machines: 3, skip: -1, edit: func(m *Meta) { m.Machines = 4 }, want: "torn save"},
		{name: "compression", machines: 3, skip: -1, edit: func(m *Meta) { m.Compression = "f16" }, want: "torn save"},
		{name: "decision", machines: 3, skip: -1, edit: func(m *Meta) { m.DecisionPending = true }, want: "torn save"},
		{name: "missing middle shard", machines: 3, skip: 1, want: "shard 1 of 3"},
		{name: "missing last shard", machines: 3, skip: 2, want: "shard 2 of 3"},
		{name: "missing shard 0", machines: 3, skip: 0, want: "machine-0.ckpt"},
		{name: "corrupt count", machines: 3, skip: -1, all: func(m *Meta) { m.Machines = math.MaxInt32 },
			want: fmt.Sprintf("shard 3 of %d", math.MaxInt32)},
		{name: "no machines", machines: 1, skip: -1, all: func(m *Meta) { m.Machines = 0 }, want: "declares 0 machines"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for m := 0; m < c.machines; m++ {
				switch m {
				case c.skip:
				case 1:
					write(t, dir, m, c.all, c.edit)
				default:
					write(t, dir, m, c.all)
				}
			}
			got, gotRecs, err := Read(dir)
			if c.want != "" {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("Read = %v, want an error naming %q", err, c.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := meta
			want.Machine = 0
			if c.all != nil {
				c.all(&want)
			}
			if got != want {
				t.Fatalf("meta %+v, want shard 0's %+v", got, want)
			}
			if n := want.Machines * len(recs); len(gotRecs) != n {
				t.Fatalf("%d records, want %d (every shard's, none past the count)", len(gotRecs), n)
			}
		})
	}
	t.Run("missing shard wraps not-exist", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, 0)
		write(t, dir, 2)
		if _, _, err := Read(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Read = %v, want os.ErrNotExist", err)
		}
	})
}
