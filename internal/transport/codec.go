package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"parallax/internal/tensor"
)

// Binary codec for the fabric's wire frames. A frame on the wire is
//
//	u32 length | payload
//
// where length counts the payload bytes and the payload is
//
//	u16 src | u16 dst | u8 kind+codec | u8 tagLen | tag | body
//
// All integers are little-endian. The low six bits of the kind byte are
// the frame kind, the top two the Codec of every float value in the body:
// CodecF32 (zero, the exact encoding) travels as 4-byte IEEE-754 bit
// patterns, CodecF16/CodecBF16 as 2-byte halves. There is one grammar;
// an exact frame is its CodecF32 instance. Bodies:
//
//	kindF32:       u32 n | n values
//	kindScalar:    u64 float64 bits (codec bits must be zero)
//	kindSparse:    sparse body
//	kindPS:        u8 op | u64 version | u32 scale bits | u64 scalar bits
//	               | u16 errLen | err
//	               | u16 nItems | nItems × (u8 nameLen | name | u32 part [| row list])
//	               | u16 nDense | nDense × (u32 n | n values)
//	               | u16 nSparse | nSparse × sparse body
//	kindF32Sparse: u32 len | u32 nnz | nnz ascending indices | nnz values
//
//	sparse body:   u32 dim0 | u32 width | u8 idxMode | u32 nrows | rows
//	               | nrows*width values
//
// A PS item's part field holds the partition index in its low 31 bits;
// the top bit (psRowsFlag) says a row list follows — u32 nrows | nrows
// strictly ascending partition-local rows — which makes a pull
// row-addressed. An item without one costs no byte for the possibility,
// so pushes, replies and whole-partition pulls keep their size.
//
// Ascending index sequences are delta-varints (the first index, then
// gaps >= 1, minimal-length LEB128). A sparse body's rows use that form
// (deltaIndexMode) exactly when they are strictly ascending — coalesced
// PS pushes are — and raw u32 (rawIndexMode) otherwise; the decoder
// enforces the choice, so every message has one encoding.
//
// Encoders append to a caller-owned scratch buffer (the fabric reuses one
// per connection, so steady-state framing allocates nothing) and copy
// tensor data straight from the caller's views — fusion-bucket storage
// and SliceRows views serialize without intermediate tensors. Decoders
// validate every declared length against the remaining bytes and return
// errors (never panic) on truncated or oversized input.

// maxFrame caps one frame's payload at 1 GiB, far below the length-word
// values reserved for control frames (frameCtrlMin).
const maxFrame = 1 << 30

// encoding limits imposed by the field widths above.
const (
	maxTagLen  = 255
	maxNameLen = 255
	maxItems   = math.MaxUint16
)

// psRowsFlag marks a PS item whose row list follows its part field.
const psRowsFlag = 1 << 31

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendF32s bulk-encodes a float chunk as IEEE-754 little-endian bit
// patterns: grow once, then write with direct indexing — this is the
// multi-MB fusion-bucket path, so no per-element append bookkeeping.
// Exported for internal/checkpoint, which shares the wire encoding.
func AppendF32s(b []byte, data []float32) []byte {
	off := len(b)
	b = slices.Grow(b, 4*len(data))[:off+4*len(data)]
	for i, v := range data {
		binary.LittleEndian.PutUint32(b[off+4*i:], math.Float32bits(v))
	}
	return b
}

// codecShift places the codec in the kind byte's top two bits.
const codecShift = 6

// appendMessage encodes one datagram payload (without the frame-length
// prefix). It panics on values that exceed the codec's field widths —
// tags and variable names longer than 255 bytes — which are build-time
// programming errors, not runtime conditions.
func appendMessage(b []byte, src, dst int, m message) []byte {
	if len(m.tag) > maxTagLen {
		panic(fmt.Sprintf("transport: tag %q exceeds %d bytes", m.tag, maxTagLen))
	}
	b = appendU16(b, uint16(src))
	b = appendU16(b, uint16(dst))
	b = append(b, byte(m.kind)|byte(m.codec)<<codecShift, byte(len(m.tag)))
	b = append(b, m.tag...)
	switch m.kind {
	case kindF32:
		b = appendU32(b, uint32(len(m.f32)))
		b = appendCodec(b, m.f32, m.codec)
	case kindScalar:
		b = appendU64(b, math.Float64bits(m.scalar))
	case kindSparse:
		b = appendSparse(b, m.sparse, m.codec)
	case kindPS:
		b = appendPS(b, m.ps, m.codec)
	case kindF32Sparse:
		b = appendU32(b, uint32(m.topk.Len))
		b = appendU32(b, uint32(len(m.topk.Idx)))
		b = appendDeltas(b, m.topk.Idx)
		b = appendCodec(b, m.topk.Vals, m.codec)
	default:
		panic(fmt.Sprintf("transport: encode unknown kind %d", m.kind))
	}
	return b
}

// appendSparse encodes the sparse body.
func appendSparse(b []byte, s *tensor.Sparse, codec Codec) []byte {
	b = appendU32(b, uint32(s.Dim0))
	b = appendU32(b, uint32(s.RowWidth()))
	if rowsAscending(s.Rows) {
		b = append(b, deltaIndexMode)
		b = appendU32(b, uint32(len(s.Rows)))
		b = appendDeltas(b, s.Rows)
	} else {
		b = append(b, rawIndexMode)
		b = appendU32(b, uint32(len(s.Rows)))
		for _, r := range s.Rows {
			b = appendU32(b, uint32(r))
		}
	}
	return appendCodec(b, s.Values.Data(), codec)
}

func appendPS(b []byte, m *PSMsg, codec Codec) []byte {
	if len(m.Names) > maxItems || len(m.Dense) > maxItems || len(m.Sparse) > maxItems {
		panic(fmt.Sprintf("transport: PS batch of %d/%d/%d items exceeds %d",
			len(m.Names), len(m.Dense), len(m.Sparse), maxItems))
	}
	b = append(b, byte(m.Op))
	b = appendU64(b, uint64(m.Version))
	b = appendU32(b, math.Float32bits(m.Scale))
	b = appendU64(b, math.Float64bits(m.Scalar))
	if len(m.Err) > math.MaxUint16 {
		m.Err = m.Err[:math.MaxUint16]
	}
	b = appendU16(b, uint16(len(m.Err)))
	b = append(b, m.Err...)
	b = appendU16(b, uint16(len(m.Names)))
	for i, name := range m.Names {
		if len(name) > maxNameLen {
			panic(fmt.Sprintf("transport: variable name %q exceeds %d bytes", name, maxNameLen))
		}
		b = append(b, byte(len(name)))
		b = append(b, name...)
		rows := m.RowsAt(i)
		if rows == nil {
			b = appendU32(b, uint32(m.Parts[i]))
			continue
		}
		if !rowsAscending(rows) {
			panic(fmt.Sprintf("transport: row list of %s/%d is not strictly ascending", name, m.Parts[i]))
		}
		b = appendU32(b, uint32(m.Parts[i])|psRowsFlag)
		b = appendU32(b, uint32(len(rows)))
		b = appendDeltas(b, rows)
	}
	b = appendU16(b, uint16(len(m.Dense)))
	for _, d := range m.Dense {
		b = appendU32(b, uint32(d.NumElements()))
		b = appendCodec(b, d.Data(), codec)
	}
	b = appendU16(b, uint16(len(m.Sparse)))
	for _, s := range m.Sparse {
		b = appendSparse(b, s, codec)
	}
	return b
}

// Decoder walks a binary payload slice with bounds checking: every
// declared length is validated against the remaining bytes before any
// allocation, so truncated or hostile input yields an error, never a
// panic or an unbounded allocation. It decodes the wire frames here and
// is reused by internal/checkpoint for the checkpoint shards and the
// membership records.
//
// A Decoder keeps its first error, as bufio.Scanner does. A read past
// the end, or a malformed field its caller reports through Fail, stops
// the decode: every later read consumes nothing and returns zero, and
// End returns that first error. A decoder of a record therefore reads
// field after field and asks for the error in two places only: before
// it allocates or indexes by a decoded value, and at End. The bulk float
// reads also return the decoder's error, for a caller that reads one
// payload and nothing else; a record decoder drops it and calls End.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a Decoder positioned at the start of b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Remaining returns how many undecoded bytes are left.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Err returns the decoder's first error, nil while it has none.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's error unless an earlier one is
// recorded; Fail(nil) records nothing.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// End returns the decoder's first error or, when there is none, refuses
// bytes left after the last field: every encoding decoded here is
// canonical.
func (d *Decoder) End() error {
	if d.err == nil && d.Remaining() != 0 {
		d.err = fmt.Errorf("transport: %d trailing bytes after the last field", d.Remaining())
	}
	return d.err
}

// Bytes consumes and returns the next n bytes (a view, not a copy), or
// nil once the decoder has failed.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.err = fmt.Errorf("transport: frame truncated: want %d bytes, have %d", n, d.Remaining())
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// U8 consumes one byte.
func (d *Decoder) U8() byte {
	if s := d.Bytes(1); s != nil {
		return s[0]
	}
	return 0
}

// U16 consumes a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if s := d.Bytes(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

// U32 consumes a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if s := d.Bytes(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

// U64 consumes a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if s := d.Bytes(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// Count reads a u32 element count and rejects values that could not fit
// in the remaining bytes at elemSize bytes each — the oversized-frame
// guard that keeps a hostile length field from driving a huge
// allocation.
func (d *Decoder) Count(elemSize int) int {
	n := d.U32()
	if uint64(n)*uint64(elemSize) > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("transport: frame declares %d elements, only %d bytes remain", n, d.Remaining()))
		return 0
	}
	return int(n)
}

// F32s consumes n little-endian float32 values into dst and returns the
// decoder's error.
func (d *Decoder) F32s(n int, dst []float32) error {
	s := d.Bytes(n * 4)
	for i := 0; i < len(s)/4; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(s[i*4:]))
	}
	return d.err
}

// maxInternedTags caps a tagInterner: a step uses a few dozen tags, so
// the cap is only reached by a peer inventing tags, which then costs an
// allocation per frame, never memory.
const maxInternedTags = 1024

// tagInterner hands out one string per distinct frame tag, so a
// connection's reader allocates each tag once instead of once per frame.
// It belongs to one reader goroutine; a nil tagInterner interns nothing.
type tagInterner map[string]string

func (ti tagInterner) intern(b []byte) string {
	if s, ok := ti[string(b)]; ok {
		return s
	}
	s := string(b)
	if ti != nil && len(ti) < maxInternedTags {
		ti[s] = s
	}
	return s
}

// decodeMessage decodes one payload. Float chunk buffers come from pool
// (the receiver recycles them) and the tag from tags; sparse tensors and
// PS messages are freshly allocated and owned by the receiver. The
// frame's codec is recorded on the message (and on its PSMsg or
// SparseChunk), so re-encoding reproduces the bytes. Trailing bytes
// after the body are an error: frames are canonical.
func decodeMessage(b []byte, pool *bufPool, tags tagInterner) (src, dst int, m message, err error) {
	d := NewDecoder(b)
	src, dst = int(d.U16()), int(d.U16())
	k := d.U8()
	m.tag = tags.intern(d.Bytes(int(d.U8())))
	m.kind = kind(k & (1<<codecShift - 1))
	m.codec = Codec(k >> codecShift)
	if !m.codec.valid() {
		d.Fail(fmt.Errorf("transport: unknown payload codec %d", m.codec))
	}
	switch m.kind {
	case kindF32:
		n := d.Count(payloadElemSize(m.codec))
		m.f32 = pool.get(n)
		d.floats(n, m.f32, m.codec)
	case kindScalar:
		if m.codec != CodecF32 {
			d.Fail(fmt.Errorf("transport: scalar frame under codec %s", m.codec))
		}
		m.scalar = math.Float64frombits(d.U64())
	case kindSparse:
		m.sparse = decodeSparse(d, m.codec)
	case kindPS:
		m.ps = decodePS(d, m.codec)
	case kindF32Sparse:
		m.topk = decodeF32Sparse(d, m.codec)
	default:
		d.Fail(fmt.Errorf("transport: unknown frame kind %d", m.kind))
	}
	if err = d.End(); err != nil {
		pool.put(m.f32)
		return 0, 0, message{}, err
	}
	return src, dst, m, nil
}

// decodeSparse decodes the sparse body. Delta-mode rows are strictly
// ascending by construction (each gap >= 1); raw-mode rows must NOT be —
// the canonical-choice rule that makes decode(encode(x)) byte-stable.
func decodeSparse(d *Decoder, codec Codec) *tensor.Sparse {
	dim0, width, mode := d.U32(), d.U32(), d.U8()
	if mode > deltaIndexMode {
		d.Fail(fmt.Errorf("transport: unknown sparse index mode %d", mode))
	}
	rows := make([]int, d.Count(1)) // >= 1 byte per row in either mode
	if mode == deltaIndexMode {
		decodeDeltas(d, rows, dim0)
	} else {
		for i := range rows {
			r := d.U32()
			if r >= dim0 {
				d.Fail(fmt.Errorf("transport: sparse row %d out of range [0,%d)", r, dim0))
			}
			rows[i] = int(r)
		}
		if rowsAscending(rows) {
			d.Fail(fmt.Errorf("transport: ascending rows must use delta index mode"))
		}
	}
	nrows := len(rows)
	if uint64(nrows)*uint64(width)*uint64(payloadElemSize(codec)) > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("transport: sparse values %dx%d exceed remaining %d bytes",
			nrows, width, d.Remaining()))
	}
	if d.Err() != nil {
		return nil
	}
	vals := tensor.NewDense(nrows, int(width))
	d.floats(nrows*int(width), vals.Data(), codec)
	return &tensor.Sparse{Rows: rows, Values: vals, Dim0: int(dim0)}
}

func decodePS(d *Decoder, codec Codec) *PSMsg {
	op := d.U8()
	if op == 0 || PSOp(op) > PSReply {
		d.Fail(fmt.Errorf("transport: unknown PS op %d", op))
	}
	m := &PSMsg{
		Codec:   codec,
		Op:      PSOp(op),
		Version: int64(d.U64()),
		Scale:   math.Float32frombits(d.U32()),
		Scalar:  math.Float64frombits(d.U64()),
		Err:     string(d.Bytes(int(d.U16()))),
	}
	nItems := int(d.U16())
	for i := 0; i < nItems && d.Err() == nil; i++ {
		name := string(d.Bytes(int(d.U8())))
		part := d.U32()
		m.Names = append(m.Names, name)
		m.Parts = append(m.Parts, int(part&^psRowsFlag))
		if part&psRowsFlag == 0 {
			continue
		}
		if m.Rows == nil {
			m.Rows = make([][]int, nItems)
		}
		// The partition's length is the server's to check; the wire only
		// keeps a row, like a partition index, below 2^31.
		m.Rows[i] = make([]int, d.Count(1)) // >= 1 byte per row
		decodeDeltas(d, m.Rows[i], 1<<31)
	}
	nDense := int(d.U16())
	for i := 0; i < nDense && d.Err() == nil; i++ {
		t := tensor.NewDense(d.Count(payloadElemSize(codec)))
		d.floats(t.NumElements(), t.Data(), codec)
		m.Dense = append(m.Dense, t)
	}
	nSparse := int(d.U16())
	for i := 0; i < nSparse && d.Err() == nil; i++ {
		m.Sparse = append(m.Sparse, decodeSparse(d, codec))
	}
	return m
}
