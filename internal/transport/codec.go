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
// is reused by internal/checkpoint for the on-disk checkpoint format.
type Decoder struct {
	b   []byte
	off int
}

// NewDecoder returns a Decoder positioned at the start of b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Remaining returns how many undecoded bytes are left.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Bytes consumes and returns the next n bytes (a view, not a copy).
func (d *Decoder) Bytes(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n {
		return nil, fmt.Errorf("transport: frame truncated: want %d bytes, have %d", n, d.Remaining())
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s, nil
}

// U8 consumes one byte.
func (d *Decoder) U8() (byte, error) {
	s, err := d.Bytes(1)
	if err != nil {
		return 0, err
	}
	return s[0], nil
}

// U16 consumes a little-endian uint16.
func (d *Decoder) U16() (uint16, error) {
	s, err := d.Bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(s), nil
}

// U32 consumes a little-endian uint32.
func (d *Decoder) U32() (uint32, error) {
	s, err := d.Bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s), nil
}

// U64 consumes a little-endian uint64.
func (d *Decoder) U64() (uint64, error) {
	s, err := d.Bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(s), nil
}

// Count reads a u32 element count and rejects values that could not fit
// in the remaining bytes at elemSize bytes each — the oversized-frame
// guard that keeps a hostile length field from driving a huge
// allocation.
func (d *Decoder) Count(elemSize int) (int, error) {
	n, err := d.U32()
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(elemSize) > uint64(d.Remaining()) {
		return 0, fmt.Errorf("transport: frame declares %d elements, only %d bytes remain", n, d.Remaining())
	}
	return int(n), nil
}

// F32s consumes n little-endian float32 values into dst.
func (d *Decoder) F32s(n int, dst []float32) error {
	s, err := d.Bytes(n * 4)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(s[i*4:]))
	}
	return nil
}

// decodeMessage decodes one payload. Float chunk buffers come from pool
// (the receiver recycles them); sparse tensors and PS messages are
// freshly allocated and owned by the receiver. The frame's codec is
// recorded on the message (and on its PSMsg or SparseChunk), so
// re-encoding reproduces the bytes. Trailing bytes after the body are an
// error: frames are canonical.
func decodeMessage(b []byte, pool *bufPool) (src, dst int, m message, err error) {
	d := NewDecoder(b)
	s16, err := d.U16()
	if err != nil {
		return 0, 0, m, err
	}
	d16, err := d.U16()
	if err != nil {
		return 0, 0, m, err
	}
	k, err := d.U8()
	if err != nil {
		return 0, 0, m, err
	}
	tagLen, err := d.U8()
	if err != nil {
		return 0, 0, m, err
	}
	tag, err := d.Bytes(int(tagLen))
	if err != nil {
		return 0, 0, m, err
	}
	m.tag = string(tag)
	m.kind = kind(k & (1<<codecShift - 1))
	m.codec = Codec(k >> codecShift)
	if !m.codec.valid() {
		return 0, 0, m, fmt.Errorf("transport: unknown payload codec %d", m.codec)
	}
	switch m.kind {
	case kindF32:
		n, err := d.Count(payloadElemSize(m.codec))
		if err != nil {
			return 0, 0, m, err
		}
		buf := pool.get(n)
		if err := d.floats(n, buf, m.codec); err != nil {
			pool.put(buf)
			return 0, 0, m, err
		}
		m.f32 = buf
	case kindScalar:
		if m.codec != CodecF32 {
			return 0, 0, m, fmt.Errorf("transport: scalar frame under codec %s", m.codec)
		}
		bits, err := d.U64()
		if err != nil {
			return 0, 0, m, err
		}
		m.scalar = math.Float64frombits(bits)
	case kindSparse:
		m.sparse, err = decodeSparse(d, m.codec)
	case kindPS:
		m.ps, err = decodePS(d, m.codec)
	case kindF32Sparse:
		m.topk, err = decodeF32Sparse(d, m.codec)
	default:
		return 0, 0, m, fmt.Errorf("transport: unknown frame kind %d", m.kind)
	}
	if err != nil {
		return 0, 0, m, err
	}
	if d.Remaining() != 0 {
		return 0, 0, m, fmt.Errorf("transport: %d trailing bytes after frame body", d.Remaining())
	}
	return int(s16), int(d16), m, nil
}

// decodeSparse decodes the sparse body. Delta-mode rows are strictly
// ascending by construction (each gap >= 1); raw-mode rows must NOT be —
// the canonical-choice rule that makes decode(encode(x)) byte-stable.
func decodeSparse(d *Decoder, codec Codec) (*tensor.Sparse, error) {
	dim0, err := d.U32()
	if err != nil {
		return nil, err
	}
	width, err := d.U32()
	if err != nil {
		return nil, err
	}
	mode, err := d.U8()
	if err != nil {
		return nil, err
	}
	if mode > deltaIndexMode {
		return nil, fmt.Errorf("transport: unknown sparse index mode %d", mode)
	}
	nrows, err := d.Count(1) // >= 1 byte per row in either mode
	if err != nil {
		return nil, err
	}
	rows := make([]int, nrows)
	if mode == deltaIndexMode {
		if err := decodeDeltas(d, rows, dim0); err != nil {
			return nil, err
		}
	} else {
		for i := range rows {
			r, err := d.U32()
			if err != nil {
				return nil, err
			}
			if r >= dim0 {
				return nil, fmt.Errorf("transport: sparse row %d out of range [0,%d)", r, dim0)
			}
			rows[i] = int(r)
		}
		if rowsAscending(rows) {
			return nil, fmt.Errorf("transport: ascending rows must use delta index mode")
		}
	}
	if uint64(nrows)*uint64(width)*uint64(payloadElemSize(codec)) > uint64(d.Remaining()) {
		return nil, fmt.Errorf("transport: sparse values %dx%d exceed remaining %d bytes",
			nrows, width, d.Remaining())
	}
	vals := tensor.NewDense(nrows, int(width))
	if err := d.floats(nrows*int(width), vals.Data(), codec); err != nil {
		return nil, err
	}
	return &tensor.Sparse{Rows: rows, Values: vals, Dim0: int(dim0)}, nil
}

func decodePS(d *Decoder, codec Codec) (*PSMsg, error) {
	m := &PSMsg{Codec: codec}
	op, err := d.U8()
	if err != nil {
		return nil, err
	}
	m.Op = PSOp(op)
	if m.Op == 0 || m.Op > PSReply {
		return nil, fmt.Errorf("transport: unknown PS op %d", op)
	}
	ver, err := d.U64()
	if err != nil {
		return nil, err
	}
	m.Version = int64(ver)
	scale, err := d.U32()
	if err != nil {
		return nil, err
	}
	m.Scale = math.Float32frombits(scale)
	scalar, err := d.U64()
	if err != nil {
		return nil, err
	}
	m.Scalar = math.Float64frombits(scalar)
	errLen, err := d.U16()
	if err != nil {
		return nil, err
	}
	errBytes, err := d.Bytes(int(errLen))
	if err != nil {
		return nil, err
	}
	m.Err = string(errBytes)
	nItems, err := d.U16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nItems); i++ {
		nameLen, err := d.U8()
		if err != nil {
			return nil, err
		}
		name, err := d.Bytes(int(nameLen))
		if err != nil {
			return nil, err
		}
		part, err := d.U32()
		if err != nil {
			return nil, err
		}
		m.Names = append(m.Names, string(name))
		m.Parts = append(m.Parts, int(part&^psRowsFlag))
		if part&psRowsFlag == 0 {
			continue
		}
		nrows, err := d.Count(1) // >= 1 byte per row
		if err != nil {
			return nil, err
		}
		if m.Rows == nil {
			m.Rows = make([][]int, nItems)
		}
		m.Rows[i] = make([]int, nrows)
		// The partition's length is the server's to check; the wire only
		// keeps a row, like a partition index, below 2^31.
		if err := decodeDeltas(d, m.Rows[i], 1<<31); err != nil {
			return nil, err
		}
	}
	nDense, err := d.U16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nDense); i++ {
		n, err := d.Count(payloadElemSize(codec))
		if err != nil {
			return nil, err
		}
		t := tensor.NewDense(n)
		if err := d.floats(n, t.Data(), codec); err != nil {
			return nil, err
		}
		m.Dense = append(m.Dense, t)
	}
	nSparse, err := d.U16()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nSparse); i++ {
		s, err := decodeSparse(d, codec)
		if err != nil {
			return nil, err
		}
		m.Sparse = append(m.Sparse, s)
	}
	return m, nil
}
