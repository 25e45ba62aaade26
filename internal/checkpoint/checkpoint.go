// Package checkpoint is the versioned on-disk format behind the public
// Session.Save / OpenFromCheckpoint API: a binary serialization of one
// training job's full state — variable values, optimizer slot state,
// the step counter, and the dataset cursor — sharded one file per
// cluster machine, so every agent of a distributed run writes exactly
// its own machine's state and a restore reassembles the job losslessly
// (bit-identical resume, DESIGN.md §10).
//
// # On-disk layout
//
// A checkpoint is a directory holding one shard per machine,
// machine-<m>.ckpt. Shard m carries the parameter-server partitions
// machine m's server hosts; shard 0 additionally carries the
// replica-managed (AllReduce / AllGatherv) variables, which are
// bit-identical on every replica and therefore stored once. Every shard
// repeats the job metadata (step, cursor, partition count, decision,
// fingerprints), so each shard is self-validating.
//
// A shard file is little-endian binary, reusing the wire codec's
// primitives (transport.AppendF32s / transport.Decoder — float payloads
// are the same IEEE-754 bit patterns the TCP fabric frames, which is
// what makes the save path serialize straight from snapshot tensors):
//
//	magic "PLXCKPT" | u8 version (=2; 1 is read, never written)
//	u32 machine | u32 machines | u64 step | u64 cursor | u32 parts
//	u8 decision flags (bit0: search still pending) | str source
//	str topoFP | str planFP
//	str compressionFP          (absent in version 1)
//	u32 nrecords, each:
//	  u8 kind (1 replica variable, 2 server partition, 3 residual [v2])
//	  str name | u32 part (kind 2/3; 0 otherwise)
//	  u8 rank | rank × u32 dims
//	  u32 n | n × f32            (value)
//	  u32 nslots, each: str slot | u32 n | n × f32
//
// where str is u16 length + bytes. Every shard is written at version 2:
// the metadata ends with the compression policy fingerprint ("none" for an
// uncompressed job), and a compressed job's shard may carry KindResidual
// records (one per worker × fusion bucket of top-k error-feedback state).
// Version 1 — the format before wire compression, without the fingerprint
// or residuals — still decodes, as fingerprint "none". Decoding validates every declared length
// against the remaining bytes before allocating (a record count against
// the 20 bytes of the smallest record), so truncated or corrupt files
// yield errors, never panics (FuzzCheckpointDecode pins this); the
// Decoder keeps the first error, so Decode reads field after field and
// returns what End reports. An
// unrecognized magic or version fails with errs.ErrCheckpointVersion;
// topology/plan fingerprint mismatches are the caller's to check
// (errs.ErrTopologyMismatch), compression fingerprint mismatches
// likewise (errs.ErrCompressionMismatch).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"

	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// VersionCompressed is the format Encode writes: Version plus the
// compression fingerprint and residual records. Version shards, written
// before wire compression existed, are read only.
const (
	Version           = 1
	VersionCompressed = 2
)

// magic opens every shard file.
var magic = [7]byte{'P', 'L', 'X', 'C', 'K', 'P', 'T'}

// maxRank bounds a serialized tensor's rank (graphs here are rank ≤ 2;
// the slack is format headroom, the bound is the decode-side guard).
const maxRank = 8

// RecordKind discriminates checkpoint records.
type RecordKind uint8

const (
	// KindReplica is a replica-managed (AllReduce / AllGatherv) variable:
	// the full value plus the replica optimizer's slot state, stored once
	// in shard 0 because every replica holds identical bits.
	KindReplica RecordKind = 1
	// KindServerPart is one parameter-server partition hosted by this
	// shard's machine: the partition value plus the server optimizer's
	// slot state, both in partition-local row coordinates.
	KindServerPart RecordKind = 2
	// KindResidual is one worker's top-k error-feedback residual for one
	// fusion bucket (Name is the worker's global rank in decimal, Part
	// the bucket index; no slots). Never in a version-1 file; each worker's
	// residuals live in its machine's shard.
	KindResidual RecordKind = 3
)

// Meta is the job-level state every shard repeats.
type Meta struct {
	// Machine is this shard's machine index; Machines the cluster size.
	Machine, Machines int
	// Step is the number of completed training steps.
	Step int64
	// Cursor is the number of dataset batches the step driver has drawn
	// (workers × steps for the built-in loop); restore fast-forwards an
	// identically seeded dataset to it.
	Cursor int64
	// Parts is the sparse partition count in effect at save time —
	// restore rebuilds the plan with exactly this count, even if the
	// original run searched for it.
	Parts int
	// DecisionSource / DecisionPending record how Parts was chosen
	// ("fixed", "simulated", "online") and whether an online search had
	// not yet run at save time.
	DecisionSource  string
	DecisionPending bool
	// TopoFP and PlanFP fingerprint the cluster layout and the
	// synchronization plan; restore recomputes both and refuses a
	// mismatch (errs.ErrTopologyMismatch).
	TopoFP, PlanFP string
	// Compression is the wire compression policy fingerprint
	// (transport.Policy.Fingerprint) the job trained under; "none" means
	// uncompressed, and Encode writes "" as "none". Restore refuses a session configured with a
	// different policy (errs.ErrCompressionMismatch): the error-feedback
	// residuals and quantization grids are policy state, so silently
	// switching policies mid-run would corrupt the trajectory.
	Compression string
}

// Record is one variable's (or partition's) checkpoint payload.
type Record struct {
	Kind RecordKind
	Name string
	// Part is the partition index for KindServerPart records.
	Part int
	// Value is the stored tensor: the full variable for KindReplica, the
	// partition rows for KindServerPart.
	Value *tensor.Dense
	// SlotNames/Slots carry the optimizer slot state in the optimizer's
	// SlotState.Slots order; each slot tensor has Value's shape.
	SlotNames []string
	Slots     []*tensor.Dense
}

// TopoFingerprint renders the cluster layout (GPUs per machine, in
// machine order) as a stable string.
func TopoFingerprint(ri cluster.ResourceInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "machines=%d gpus=", ri.NumMachines())
	for m := 0; m < ri.NumMachines(); m++ {
		if m > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", ri.GPUsPerMachine(m))
	}
	return b.String()
}

// PlanFingerprint hashes the synchronization plan — every variable's
// name, method, kind, partition count, and partition→machine assignment
// — so a restore into a session whose (deterministically rebuilt) plan
// differs is rejected instead of silently mis-assembling state.
func PlanFingerprint(p *core.Plan) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "arch=%v;", p.Arch)
	for _, a := range p.Assignments {
		fmt.Fprintf(h, "%s|%v|sparse=%t|dense=%t|parts=%d|servers=%v;",
			a.Name, a.Method, a.Sparse, a.TreatAsDense, a.Partitions, a.Servers)
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

func appendStr(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendTensor(b []byte, t *tensor.Dense) []byte {
	shape := t.Shape()
	b = append(b, byte(len(shape)))
	for _, d := range shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(t.NumElements()))
	return transport.AppendF32s(b, t.Data())
}

// Encode serializes one shard at VersionCompressed; an empty
// meta.Compression is written as "none".
func Encode(meta Meta, recs []Record) ([]byte, error) {
	b := append([]byte(nil), magic[:]...)
	b = append(b, VersionCompressed)
	b = binary.LittleEndian.AppendUint32(b, uint32(meta.Machine))
	b = binary.LittleEndian.AppendUint32(b, uint32(meta.Machines))
	b = binary.LittleEndian.AppendUint64(b, uint64(meta.Step))
	b = binary.LittleEndian.AppendUint64(b, uint64(meta.Cursor))
	b = binary.LittleEndian.AppendUint32(b, uint32(meta.Parts))
	var flags byte
	if meta.DecisionPending {
		flags |= 1
	}
	b = append(b, flags)
	b = appendStr(b, meta.DecisionSource)
	b = appendStr(b, meta.TopoFP)
	b = appendStr(b, meta.PlanFP)
	if meta.Compression == "" {
		meta.Compression = "none"
	}
	b = appendStr(b, meta.Compression)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(recs)))
	for _, r := range recs {
		if r.Kind != KindReplica && r.Kind != KindServerPart && r.Kind != KindResidual {
			return nil, fmt.Errorf("checkpoint: record %q has unknown kind %d", r.Name, r.Kind)
		}
		if r.Kind == KindResidual && len(r.Slots) != 0 {
			return nil, fmt.Errorf("checkpoint: residual record %q carries %d slots", r.Name, len(r.Slots))
		}
		if len(r.Value.Shape()) > maxRank {
			return nil, fmt.Errorf("checkpoint: record %q has rank %d, format caps at %d",
				r.Name, len(r.Value.Shape()), maxRank)
		}
		if len(r.Slots) != len(r.SlotNames) {
			return nil, fmt.Errorf("checkpoint: record %q has %d slots for %d slot names",
				r.Name, len(r.Slots), len(r.SlotNames))
		}
		b = append(b, byte(r.Kind))
		b = appendStr(b, r.Name)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Part))
		b = appendTensor(b, r.Value)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Slots)))
		for k, s := range r.Slots {
			if s.NumElements() != r.Value.NumElements() {
				return nil, fmt.Errorf("checkpoint: record %q slot %q has %d elements, value has %d",
					r.Name, r.SlotNames[k], s.NumElements(), r.Value.NumElements())
			}
			b = appendStr(b, r.SlotNames[k])
			b = binary.LittleEndian.AppendUint32(b, uint32(s.NumElements()))
			b = transport.AppendF32s(b, s.Data())
		}
	}
	return b, nil
}

func decodeStr(d *transport.Decoder) string { return string(d.Bytes(int(d.U16()))) }

func decodeTensor(d *transport.Decoder) *tensor.Dense {
	rank := d.U8()
	if rank == 0 || rank > maxRank {
		d.Fail(fmt.Errorf("checkpoint: tensor rank %d outside [1,%d]", rank, maxRank))
		return nil
	}
	shape := make([]int, rank)
	elems := uint64(1)
	for i := range shape {
		dim := d.U32()
		// Overflow-guard the product: a crafted shape like [2³²−1, 2³²−1, k]
		// must not wrap to a small element count and slip past the
		// cross-check below.
		if dim != 0 && elems > math.MaxUint64/uint64(dim) {
			d.Fail(fmt.Errorf("checkpoint: tensor shape %v overflows element count", shape[:i+1]))
			return nil
		}
		shape[i] = int(dim)
		elems *= uint64(dim)
	}
	n := d.Count(4) // rejects counts that cannot fit the remaining bytes
	if uint64(n) != elems {
		d.Fail(fmt.Errorf("checkpoint: tensor declares %d elements, shape %v has %d", n, shape, elems))
		return nil
	}
	t := tensor.NewDense(shape...)
	d.F32s(n, t.Data())
	return t
}

// minRecordBytes is the encoding of the smallest record: kind, an empty
// name, part, rank 1 with its one dim, the element count and the slot
// count. A shard's declared record count is bounded by it, so a record
// count the remaining bytes cannot hold never sizes an allocation.
const minRecordBytes = 1 + 2 + 4 + 1 + 4 + 4 + 4

// Decode parses one shard. Malformed input returns an error — wrapping
// errs.ErrCheckpointVersion when the magic or format version is not
// ours — and never panics.
func Decode(b []byte) (Meta, []Record, error) {
	d := transport.NewDecoder(b)
	if d.Remaining() < len(magic)+1 {
		d.Fail(fmt.Errorf("checkpoint: %w: file too short for header", errs.ErrCheckpointVersion))
	}
	if string(d.Bytes(len(magic))) != string(magic[:]) {
		d.Fail(fmt.Errorf("checkpoint: %w: bad magic", errs.ErrCheckpointVersion))
	}
	version := d.U8()
	if version != Version && version != VersionCompressed {
		d.Fail(fmt.Errorf("checkpoint: %w: file version %d, this build reads %d and %d",
			errs.ErrCheckpointVersion, version, Version, VersionCompressed))
	}
	meta := Meta{
		Machine:         int(d.U32()),
		Machines:        int(d.U32()),
		Step:            int64(d.U64()),
		Cursor:          int64(d.U64()),
		Parts:           int(d.U32()),
		DecisionPending: d.U8()&1 != 0,
		DecisionSource:  decodeStr(d),
		TopoFP:          decodeStr(d),
		PlanFP:          decodeStr(d),
		Compression:     "none", // all a version-1 shard can be
	}
	if version >= VersionCompressed {
		meta.Compression = decodeStr(d)
	}
	nrecs := d.Count(minRecordBytes)
	recs := make([]Record, 0, nrecs)
	for i := 0; i < nrecs && d.Err() == nil; i++ {
		r := Record{Kind: RecordKind(d.U8())}
		switch r.Kind {
		case KindReplica, KindServerPart:
		case KindResidual:
			if version < VersionCompressed {
				d.Fail(fmt.Errorf("checkpoint: record %d is a residual in a version-%d file", i, version))
			}
		default:
			d.Fail(fmt.Errorf("checkpoint: record %d has unknown kind %d", i, r.Kind))
		}
		r.Name = decodeStr(d)
		r.Part = int(d.U32())
		r.Value = decodeTensor(d)
		nslots := d.Count(1)
		for k := 0; k < nslots && d.Err() == nil; k++ {
			name := decodeStr(d)
			if n := d.Count(4); n != r.Value.NumElements() {
				d.Fail(fmt.Errorf("checkpoint: record %q slot %q has %d elements, value has %d",
					r.Name, name, n, r.Value.NumElements()))
				break
			}
			s := tensor.NewDense(r.Value.Shape()...)
			d.F32s(s.NumElements(), s.Data())
			r.SlotNames = append(r.SlotNames, name)
			r.Slots = append(r.Slots, s)
		}
		recs = append(recs, r)
	}
	if err := d.End(); err != nil {
		return meta, nil, err
	}
	return meta, recs, nil
}

// ShardPath returns machine m's shard file inside a checkpoint
// directory.
func ShardPath(dir string, machine int) string {
	return filepath.Join(dir, fmt.Sprintf("machine-%d.ckpt", machine))
}

// WriteShard atomically writes meta.Machine's shard under dir (created
// if missing), so a crash mid-save never leaves a truncated shard
// behind.
func WriteShard(dir string, meta Meta, recs []Record) error {
	b, err := Encode(meta, recs)
	if err != nil {
		return err
	}
	return writeAtomic(dir, filepath.Base(ShardPath(dir, meta.Machine)), b)
}

// writeAtomic is the one durable write behind every file in a checkpoint
// root — shards, MEMBERS, proposals, join requests and refusals:
// the bytes land in a temp file in dir (created if missing) and are
// renamed into place, so a reader sees the old bytes or the new, never a
// torn file. The file is synced before the rename — without it the
// rename can become durable before the data blocks, and a crash would
// leave an empty or truncated file under the final name — and the
// directory after it, so the rename itself survives a crash.
func writeAtomic(dir, base string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, filepath.Join(dir, base)); err != nil {
		os.Remove(name)
		return err
	}
	// Some filesystems refuse to sync a directory; the rename stands
	// either way.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadShard reads and decodes machine m's shard from dir.
func ReadShard(dir string, machine int) (Meta, []Record, error) {
	b, err := os.ReadFile(ShardPath(dir, machine))
	if err != nil {
		return Meta{}, nil, err
	}
	meta, recs, err := Decode(b)
	if err != nil {
		return meta, recs, fmt.Errorf("%s: %w", ShardPath(dir, machine), err)
	}
	if meta.Machine != machine {
		return meta, recs, fmt.Errorf("checkpoint: %s claims machine %d", ShardPath(dir, machine), meta.Machine)
	}
	return meta, recs, nil
}

// Read reads the whole checkpoint in dir: shard 0, then shards 1 up to
// the machine count shard 0 declares, every record in machine order. A
// missing shard is refused by index, and so is a shard whose job
// metadata differs from shard 0's — a torn save, mixing shards of two
// saves. The returned Meta is shard 0's.
func Read(dir string) (Meta, []Record, error) {
	meta, recs, err := ReadShard(dir, 0)
	if err != nil {
		return Meta{}, nil, err
	}
	if meta.Machines < 1 {
		return Meta{}, nil, fmt.Errorf("checkpoint: %s declares %d machines", ShardPath(dir, 0), meta.Machines)
	}
	// The loop is bounded by shard 0's count, and a corrupt count stops
	// at the first shard that is not on disk.
	for m := 1; m < meta.Machines; m++ {
		mm, mrecs, err := ReadShard(dir, m)
		if err != nil {
			return Meta{}, nil, fmt.Errorf("checkpoint: shard %d of %d: %w", m, meta.Machines, err)
		}
		if mm.Machine = meta.Machine; mm != meta {
			return Meta{}, nil, fmt.Errorf("checkpoint: %s: shard %d (step %d) disagrees with shard 0 (step %d): torn save?",
				dir, m, mm.Step, meta.Step)
		}
		recs = append(recs, mrecs...)
	}
	return meta, recs, nil
}
