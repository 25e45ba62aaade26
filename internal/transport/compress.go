package transport

import (
	"encoding/binary"
	"fmt"
	"slices"

	"parallax/internal/tensor"
)

// Wire compression: the payload codec of the frame grammar (codec.go)
// and the policy that picks it. The discipline that keeps compressed runs
// bit-identical across fabrics is split in two:
//
//   - The DATA PLANE (internal/collective, internal/transform) applies
//     every lossy transform — f16/bf16 rounding, top-k sparsification
//     with error feedback — deterministically at points that are
//     symmetric across fabrics, including paths that never touch a
//     socket. After that, all values in flight lie on the codec's grid.
//   - The WIRE layer here encodes those on-grid values compactly (2-byte
//     halves), which is lossless, so a pipe (no serialization) and a
//     socket (half-precision frames) deliver bit-identical floats.
//
// CompressionNone (the zero Policy) is the CodecF32 instance of the same
// path: Quantize is a no-op and values travel as 4-byte bit patterns.

// Codec selects the wire encoding of a float payload. The values of a
// compressed payload must already lie on the codec's grid — the encoder
// truncates, it does not round — which the data-plane quantizers
// (tensor.QuantizeF16/QuantizeBF16) guarantee.
type Codec uint8

// Payload codecs.
const (
	// CodecF32 is the exact 4-byte encoding (the default).
	CodecF32 Codec = iota
	// CodecF16 encodes IEEE-754 binary16 payloads (2 bytes/value).
	CodecF16
	// CodecBF16 encodes bfloat16 payloads (2 bytes/value).
	CodecBF16
)

// String names the codec for fingerprints and diagnostics.
func (c Codec) String() string {
	switch c {
	case CodecF32:
		return "f32"
	case CodecF16:
		return "f16"
	case CodecBF16:
		return "bf16"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

func (c Codec) valid() bool { return c <= CodecBF16 }

// Quantize rounds a slice onto the codec's grid in place
// (round-to-nearest-even); CodecF32 is a no-op. This is the data-plane
// half of the compression contract.
func (c Codec) Quantize(x []float32) {
	switch c {
	case CodecF16:
		tensor.QuantizeF16(x)
	case CodecBF16:
		tensor.QuantizeBF16(x)
	}
}

// Policy is the wire compression policy: one codec for every gradient
// route and, optionally, top-k sparsification of the dense buckets. The
// zero value is CompressionNone: every payload travels as exact f32.
type Policy struct {
	// Codec is the payload codec of the gradient routes: dense-AllReduce
	// fusion buckets, parameter-server dense pushes and the values of
	// parameter-server sparse pushes. Pull replies always travel exact.
	Codec Codec
	// TopK, in (0, 1], turns dense buckets into top-k sparsified
	// exchanges with per-worker error-feedback residuals; the surviving
	// values travel under Codec. 0 disables sparsification.
	TopK float64
}

// Enabled reports whether any route compresses.
func (p Policy) Enabled() bool { return p.Codec != CodecF32 || p.TopK > 0 }

// Validate rejects malformed policies.
func (p Policy) Validate() error {
	if !p.Codec.valid() {
		return fmt.Errorf("transport: unknown codec in policy %+v", p)
	}
	if p.TopK < 0 || p.TopK > 1 {
		return fmt.Errorf("transport: TopK %g outside [0,1]", p.TopK)
	}
	return nil
}

// Fingerprint renders the policy canonically. Peers exchange it during
// the TCP rendezvous and refuse to connect on mismatch, and checkpoints
// record it so a compressed run cannot silently resume under a
// different policy. The rendering names the routes one by one because
// handshakes and checkpoints written when each had its own codec must
// keep matching.
func (p Policy) Fingerprint() string {
	if !p.Enabled() {
		return "none"
	}
	return fmt.Sprintf("dense=%s,topk=%g,psdense=%s,pssparse=%s,delta=true",
		p.Codec, p.TopK, p.Codec, p.Codec)
}

// Describe renders the policy per route class for operators, one route
// per line.
func (p Policy) Describe() string {
	if !p.Enabled() {
		return "compression: none (exact f32 on every route)\n"
	}
	dense := p.Codec.String()
	if p.TopK > 0 {
		dense = fmt.Sprintf("top-%g%% + %s values + error feedback", p.TopK*100, p.Codec)
	}
	return fmt.Sprintf("compression: %s\n  dense collective  %s\n  ps dense push     %s\n  ps sparse push    %s values\n  ps pull replies   f32 (always exact)\n",
		p.Fingerprint(), dense, p.Codec, p.Codec)
}

// SparseChunk is a top-k sparsified dense chunk: the nnz surviving
// (index, value) pairs of a length-Len float buffer, the payload of a
// kindF32Sparse frame.
type SparseChunk struct {
	// Len is the dense length of the chunk this selection came from.
	Len int
	// Idx holds the surviving positions, strictly ascending.
	Idx []int32
	// Vals holds the surviving values, on Codec's grid.
	Vals []float32
	// Codec is the wire codec for Vals.
	Codec Codec
}

// AppendF16s bulk-encodes an on-grid float chunk as IEEE-754 binary16
// bit patterns, 2 bytes per value — the compressed sibling of
// AppendF32s. Same grow-once discipline: this is the fusion-bucket path.
func AppendF16s(b []byte, data []float32) []byte {
	off := len(b)
	b = slices.Grow(b, 2*len(data))[:off+2*len(data)]
	tensor.EncodeF16(b[off:], data)
	return b
}

// AppendBF16s bulk-encodes an on-grid float chunk as bfloat16 bit
// patterns, 2 bytes per value.
func AppendBF16s(b []byte, data []float32) []byte {
	off := len(b)
	b = slices.Grow(b, 2*len(data))[:off+2*len(data)]
	for i, v := range data {
		binary.LittleEndian.PutUint16(b[off+2*i:], tensor.F32ToBF16Bits(v))
	}
	return b
}

// appendCodec encodes a float payload under the given codec.
func appendCodec(b []byte, data []float32, c Codec) []byte {
	switch c {
	case CodecF16:
		return AppendF16s(b, data)
	case CodecBF16:
		return AppendBF16s(b, data)
	}
	return AppendF32s(b, data)
}

// payloadElemSize is the wire bytes per float under a codec.
func payloadElemSize(c Codec) int {
	if c == CodecF32 {
		return 4
	}
	return 2
}

// F16s consumes n binary16 values, expanding them into dst — the
// decoder for AppendF16s — and returns the decoder's error. A
// signalling NaN is an error: the encoder never writes one, so a frame
// holding one is not canonical.
func (d *Decoder) F16s(n int, dst []float32) error {
	if s := d.Bytes(n * 2); s != nil && !tensor.DecodeF16(dst[:n], s) {
		d.Fail(fmt.Errorf("transport: signalling NaN in a binary16 payload"))
	}
	return d.err
}

// BF16s consumes n bfloat16 values, expanding them into dst, and
// returns the decoder's error.
func (d *Decoder) BF16s(n int, dst []float32) error {
	s := d.Bytes(n * 2)
	for i := 0; i < len(s)/2; i++ {
		dst[i] = tensor.BF16BitsToF32(binary.LittleEndian.Uint16(s[i*2:]))
	}
	return d.err
}

// floats consumes n values under a codec.
func (d *Decoder) floats(n int, dst []float32, c Codec) {
	switch c {
	case CodecF16:
		d.F16s(n, dst)
	case CodecBF16:
		d.BF16s(n, dst)
	default:
		d.F32s(n, dst)
	}
}

// uvarint consumes one minimal-length LEB128 varint and rejects
// non-minimal encodings (a shorter encoding exists) and values past 32
// bits — both would break the canonical re-encode property the frame
// fuzzer pins. A failed decoder reads a zero byte, which ends the loop.
func (d *Decoder) uvarint() uint64 {
	var v uint64
	for i := 0; ; i++ {
		c := d.U8()
		if i == 4 && c > 0x0F { // the fifth byte holds bits 28..31 and no continuation
			d.Fail(fmt.Errorf("transport: varint exceeds 32 bits"))
			return 0
		}
		v |= uint64(c&0x7F) << (7 * i)
		if c&0x80 == 0 {
			if c == 0 && i > 0 {
				d.Fail(fmt.Errorf("transport: non-minimal varint"))
				return 0
			}
			return v
		}
	}
}

// appendDeltas encodes a strictly ascending index sequence as varints:
// the first index, then the gap to each next one.
func appendDeltas[T int | int32](b []byte, xs []T) []byte {
	prev := T(0)
	for _, x := range xs {
		b = binary.AppendUvarint(b, uint64(x-prev))
		prev = x
	}
	return b
}

// decodeDeltas fills dst from appendDeltas' encoding, rejecting a zero
// gap (the sequence must be strictly ascending) and indices at or past
// limit.
func decodeDeltas[T int | int32](d *Decoder, dst []T, limit uint32) {
	prev := uint64(0)
	for i := range dst {
		v := d.uvarint()
		if i > 0 {
			if v == 0 {
				d.Fail(fmt.Errorf("transport: non-monotone delta index (zero delta)"))
			}
			v += prev
		}
		if v >= uint64(limit) {
			d.Fail(fmt.Errorf("transport: index %d out of range [0,%d)", v, limit))
		}
		dst[i] = T(v)
		prev = v
	}
}

// Index modes of the sparse body; see codec.go for the canonical rule.
const (
	rawIndexMode   = 0
	deltaIndexMode = 1
)

// rowsAscending reports whether a row sequence is strictly ascending
// (coalesced sparse gradients are; raw per-batch gathers are not).
func rowsAscending(rows []int) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			return false
		}
	}
	return true
}

// decodeF32Sparse decodes a kindF32Sparse body. Indices must be
// strictly ascending and inside [0, len); values expand onto f32.
func decodeF32Sparse(d *Decoder, codec Codec) *SparseChunk {
	length, nnz := d.U32(), d.Count(1)
	if nnz > int(length) {
		d.Fail(fmt.Errorf("transport: sparsified chunk with %d of %d survivors", nnz, length))
		return nil
	}
	idx := make([]int32, nnz)
	decodeDeltas(d, idx, length)
	if uint64(nnz)*uint64(payloadElemSize(codec)) > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("transport: sparsified values exceed remaining %d bytes", d.Remaining()))
	}
	if d.Err() != nil {
		return nil
	}
	vals := make([]float32, nnz)
	d.floats(nnz, vals, codec)
	return &SparseChunk{Len: int(length), Idx: idx, Vals: vals, Codec: codec}
}

// compressedFrame reports whether a message travels under a
// half-precision codec or as a top-k selection (for the raw-vs-compressed
// wire accounting).
func compressedFrame(m message) bool {
	return m.codec != CodecF32 || m.kind == kindF32Sparse
}

// rawFrameBytes is the payload size a compressed message of wire bytes
// would occupy under CompressionNone: a kindF32Sparse frame counts as the
// dense chunk it replaces, every other frame as itself with 4-byte
// values. The fabric accumulates this next to the actual size, which is
// what StepStats' compression ratio reports.
func rawFrameBytes(m message, wire int) int {
	floats := 0
	switch m.kind {
	case kindF32Sparse:
		return 2 + 2 + 1 + 1 + len(m.tag) + 4 + 4*m.topk.Len // src, dst, kind, tagLen, tag, n, values
	case kindF32:
		floats = len(m.f32)
	case kindPS:
		for _, t := range m.ps.Dense {
			floats += t.NumElements()
		}
		for _, s := range m.ps.Sparse {
			floats += s.Values.NumElements()
		}
	}
	return wire + (4-payloadElemSize(m.codec))*floats
}
