package transport

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"parallax/internal/tensor"
)

// onGrid returns f16-grid values (also on the bf16 grid for the chosen
// constants), as the data plane would produce before a compressed send.
func onGrid() []float32 {
	return []float32{0, 1.5, -2.25, 0.5, float32(math.Inf(1)), -96}
}

func topkChunk() SparseChunk {
	return SparseChunk{
		Len:   100,
		Idx:   []int32{3, 7, 42, 99},
		Vals:  []float32{1.5, -0.25, 8, -96},
		Codec: CodecF16,
	}
}

// psMessage wraps a PS message the way SendPS does.
func psMessage(ps *PSMsg) message {
	return message{tag: "ps", kind: kindPS, codec: ps.Codec, ps: ps}
}

// seedMessages returns well-formed messages of every frame kind under
// every codec the kind admits (a scalar travels exact only): dense
// chunks, sparse IndexedSlices in both index modes, scalars, the batched
// parameter-server request/reply shapes (pulls whole and row-addressed)
// and top-k sparsified chunks.
func seedMessages() []message {
	dup := tensor.NewSparse([]int{0, 2, 2}, tensor.FromSlice([]float32{1, -2, 3, 4, 0, 6}, 3, 2), 5)
	ascending := tensor.NewSparse([]int{1, 4, 9}, tensor.FromSlice([]float32{1, -2, 3, 4, 0.5, 6}, 3, 2), 16)
	unsorted := tensor.NewSparse([]int{9, 1, 4}, tensor.FromSlice([]float32{1, -2, 3, 4, 0.5, 6}, 3, 2), 16)
	ch := topkChunk()
	msgs := []message{
		{tag: "fuse/0/rs", kind: kindF32, f32: []float32{0, 1.5, float32(math.Inf(1)), -3}},
		{tag: "loss", kind: kindScalar, scalar: -123.456},
		{tag: "agv/embedding", kind: kindSparse, sparse: dup},
		{tag: "agv/embedding", kind: kindSparse, sparse: ascending},
		psMessage(&PSMsg{
			Op: PSPullMany, Version: 7,
			Names: []string{"embedding", "embedding"}, Parts: []int{0, 3},
		}),
		// Row-addressed pulls: no row, one row, the largest delta a row
		// list can hold, beside an item that asks for its whole partition.
		psMessage(&PSMsg{
			Op: PSPullMany, Version: 7,
			Names: []string{"embedding", "embedding", "embedding", "embedding"}, Parts: []int{0, 1, 2, 3},
			Rows: [][]int{{}, {5}, nil, {0, math.MaxInt32}},
		}),
		psMessage(&PSMsg{
			Op: PSPushDenseMany, Names: []string{"w"}, Parts: []int{1},
			Dense: []*tensor.Dense{tensor.FromSlice([]float32{9, 8, 7}, 3)},
		}),
		psMessage(&PSMsg{
			Op: PSPushSparseMany, Names: []string{"emb"}, Parts: []int{2},
			Sparse: []*tensor.Sparse{dup},
		}),
		psMessage(&PSMsg{Op: PSReply, Err: "psrt: unknown variable", Scalar: 2.5}),
		{tag: "fuse/1/rs", kind: kindF32Sparse, codec: ch.Codec, topk: &ch},
		{tag: "fuse/1/rs", kind: kindF32Sparse, topk: &SparseChunk{
			Len: 10, Idx: []int32{2, 5}, Vals: []float32{1, 2}}},
	}
	bf16 := ch
	bf16.Codec = CodecBF16
	msgs = append(msgs, message{tag: "fuse/1/rs", kind: kindF32Sparse, codec: bf16.Codec, topk: &bf16})
	for _, codec := range []Codec{CodecF16, CodecBF16} {
		msgs = append(msgs,
			message{tag: "fuse/0/rs", kind: kindF32, codec: codec, f32: onGrid()},
			message{tag: "agv/embedding", kind: kindSparse, codec: codec, sparse: unsorted},
			psMessage(&PSMsg{
				Op: PSPushDenseMany, Names: []string{"w"}, Parts: []int{1},
				Dense: []*tensor.Dense{tensor.FromSlice(onGrid(), 6)}, Codec: codec}),
			psMessage(&PSMsg{
				Op: PSPushSparseMany, Names: []string{"emb", "emb"}, Parts: []int{0, 1},
				Sparse: []*tensor.Sparse{ascending, unsorted}, Codec: codec}),
		)
	}
	return msgs
}

func seedFrames() [][]byte {
	var out [][]byte
	for _, m := range seedMessages() {
		out = append(out, appendMessage(nil, 3, 5, m))
	}
	return out
}

// FuzzCodecRoundTrip feeds arbitrary bytes to the frame decoder: invalid
// input — truncations, oversized declarations, non-monotone delta
// indices — must be rejected with an error (never a panic or a huge
// allocation), and anything that decodes must re-encode to the very
// bytes it came from, whatever its kind and codec: the one-encoding
// property the fabric relies on.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, b := range seedFrames() {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0})
	// Control frames are length words, never payloads: one that reaches
	// the message decoder must not parse as a datagram.
	for _, word := range []uint32{frameHeartbeat, framePeerDown, frameBye} {
		f.Add(ctrlFrame(word))
		f.Add(ctrlFrame(word, 1)[:6])
	}
	// A kindF32Sparse body with a zero delta (non-monotone).
	bad := appendMessage(nil, 0, 1, message{tag: "t", kind: kindF32Sparse, topk: &SparseChunk{
		Len: 10, Idx: []int32{2, 5}, Vals: []float32{1, 2}}})
	bad[len(bad)-9] = 0 // second delta varint -> 0
	f.Add(bad)
	f.Fuzz(func(t *testing.T, b []byte) {
		pool := newBufPool()
		src, dst, m, err := decodeMessage(b, pool, nil)
		if err != nil {
			return // malformed input rejected; that is the contract
		}
		re := appendMessage(nil, src, dst, m)
		if !bytes.Equal(re, b) {
			t.Fatalf("encoding not canonical:\n%x\nvs\n%x", b, re)
		}
		src2, dst2, m2, err := decodeMessage(re, pool, nil)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if src2 != src || dst2 != dst {
			t.Fatalf("addressing changed: (%d,%d) -> (%d,%d)", src, dst, src2, dst2)
		}
		if !sameMessage(m, m2) {
			t.Fatalf("round trip changed frame:\n%+v\nvs\n%+v", m, m2)
		}
	})
}

// sameMessage compares frames by bit pattern (NaNs compare equal to
// themselves, as the wire preserves them).
func sameMessage(a, b message) bool {
	if a.tag != b.tag || a.kind != b.kind || a.codec != b.codec {
		return false
	}
	switch a.kind {
	case kindF32:
		return sameF32s(a.f32, b.f32)
	case kindScalar:
		return math.Float64bits(a.scalar) == math.Float64bits(b.scalar)
	case kindSparse:
		return sameSparse(a.sparse, b.sparse)
	case kindF32Sparse:
		x, y := a.topk, b.topk
		if x.Len != y.Len || x.Codec != y.Codec || len(x.Idx) != len(y.Idx) {
			return false
		}
		for i := range x.Idx {
			if x.Idx[i] != y.Idx[i] {
				return false
			}
		}
		return sameF32s(x.Vals, y.Vals)
	case kindPS:
		x, y := a.ps, b.ps
		if x.Op != y.Op || x.Version != y.Version || x.Err != y.Err || x.Codec != y.Codec ||
			math.Float32bits(x.Scale) != math.Float32bits(y.Scale) ||
			math.Float64bits(x.Scalar) != math.Float64bits(y.Scalar) ||
			len(x.Names) != len(y.Names) || len(x.Dense) != len(y.Dense) || len(x.Sparse) != len(y.Sparse) ||
			len(x.Rows) != len(y.Rows) {
			return false
		}
		for i := range x.Names {
			if x.Names[i] != y.Names[i] || x.Parts[i] != y.Parts[i] {
				return false
			}
		}
		for i := range x.Rows {
			// nil asks for the whole partition, an empty list for no row.
			if (x.Rows[i] == nil) != (y.Rows[i] == nil) || !slices.Equal(x.Rows[i], y.Rows[i]) {
				return false
			}
		}
		for i := range x.Dense {
			if !sameF32s(x.Dense[i].Data(), y.Dense[i].Data()) {
				return false
			}
		}
		for i := range x.Sparse {
			if !sameSparse(x.Sparse[i], y.Sparse[i]) {
				return false
			}
		}
		return true
	}
	return false
}

func sameF32s(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameSparse(a, b *tensor.Sparse) bool {
	if a.Dim0 != b.Dim0 || len(a.Rows) != len(b.Rows) || a.RowWidth() != b.RowWidth() {
		return false
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return false
		}
	}
	return sameF32s(a.Values.Data(), b.Values.Data())
}

// TestCodecRoundTripsSeeds pins the decode half of the round trip on
// every seed: each decodes to the message it encodes.
func TestCodecRoundTripsSeeds(t *testing.T) {
	pool := newBufPool()
	for i, m := range seedMessages() {
		src, dst, got, err := decodeMessage(appendMessage(nil, 3, 5, m), pool, nil)
		if err != nil {
			t.Fatalf("seed %d did not decode: %v", i, err)
		}
		if src != 3 || dst != 5 || !sameMessage(m, got) {
			t.Fatalf("seed %d decoded to (%d,%d) %+v, want %+v", i, src, dst, got, m)
		}
	}
}

// TestReceiveTagsInterned pins the reader's tag interning: a repeated tag
// decodes without allocating, and a peer inventing tags fills the
// interner only up to its cap while every frame still decodes to its own
// tag.
func TestReceiveTagsInterned(t *testing.T) {
	pool := newBufPool()
	tags := tagInterner{}
	frame := appendMessage(nil, 0, 1, message{tag: "fuse/0/rs", kind: kindScalar, scalar: 1})
	decode := func(b []byte) string {
		_, _, m, err := decodeMessage(b, pool, tags)
		if err != nil {
			t.Fatal(err)
		}
		return m.tag
	}
	if allocs := testing.AllocsPerRun(100, func() { decode(frame) }); allocs != 0 {
		t.Errorf("decoding a known tag allocated %v times", allocs)
	}
	for i := range maxInternedTags + 10 {
		tag := fmt.Sprintf("t%d", i)
		if got := decode(appendMessage(nil, 0, 1, message{tag: tag, kind: kindScalar})); got != tag {
			t.Fatalf("frame tagged %q decoded as %q", tag, got)
		}
	}
	if len(tags) != maxInternedTags {
		t.Errorf("interner holds %d tags, cap %d", len(tags), maxInternedTags)
	}
}

// TestCodecRejectsTruncation slices every seed frame (every kind under
// every codec) at every boundary: each strict prefix, and the whole
// frame plus one byte, must decode with an error, not a panic — whichever
// field the cut lands in, the decoder's first error must reach the
// caller.
func TestCodecRejectsTruncation(t *testing.T) {
	pool := newBufPool()
	for i, b := range seedFrames() {
		for cut := 0; cut < len(b); cut++ {
			if _, _, _, err := decodeMessage(b[:cut], pool, nil); err == nil {
				t.Fatalf("frame %d truncated to %d of %d bytes decoded", i, cut, len(b))
			}
		}
		// Trailing garbage is rejected too: frames are canonical.
		if _, _, _, err := decodeMessage(append(append([]byte(nil), b...), 0), pool, nil); err == nil {
			t.Fatalf("frame %d with a trailing byte decoded", i)
		}
	}
}

// TestCodecRejectsCorruption forges the specific malformed frames the
// grammar admits: length fields promising far more data than present,
// the corruptions of the delta encoding (zero deltas, out-of-range
// indices, more survivors than the chunk is long, non-minimal varints)
// in a top-k chunk and in a pull's row list, and the second encodings
// the canonical rules forbid.
func TestCodecRejectsCorruption(t *testing.T) {
	pool := newBufPool()
	header := func(k kind, codec Codec) []byte {
		return []byte{0, 0, 1, 0, byte(k) | byte(codec)<<codecShift, 1, 't'}
	}
	// A one-item row-addressed pull ends: u32 nrows | deltas | u16 nDense
	// | u16 nSparse.
	rowPull := func(rows ...int) []byte {
		return appendMessage(nil, 0, 1, psMessage(&PSMsg{Op: PSPullMany,
			Names: []string{"e"}, Parts: []int{0}, Rows: [][]int{rows}}))
	}
	zeroDelta := rowPull(2, 5)
	zeroDelta[len(zeroDelta)-5] = 0 // second delta
	manyRows := rowPull(2)
	manyRows[len(manyRows)-6] = 0x40 // top byte of nrows
	for name, b := range map[string][]byte{
		"duplicate row in a pull's row list": zeroDelta,
		"oversized row-list declaration":     manyRows,
		"row past 31 bits":                   rowPull(math.MaxInt32 + 1),
		"oversized f32 declaration":          append(header(kindF32, CodecF32), 0, 0, 0, 0x80),
		"oversized f16 declaration":          append(header(kindF32, CodecF16), 0, 0, 0, 0x40),
		"oversized sparse declaration": append(header(kindSparse, CodecF32),
			5, 0, 0, 0 /*dim0*/, 2, 0, 0, 0 /*width*/, rawIndexMode, 0, 0, 0, 0x40 /*nrows*/),
		"oversized survivor count": append(header(kindF32Sparse, CodecF32),
			2, 0, 0, 0 /*len*/, 3, 0, 0, 0 /*nnz*/, 0, 1, 1, 0, 0, 0, 0),
		"zero delta": append(header(kindF32Sparse, CodecF32),
			9, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"out-of-range index": append(header(kindF32Sparse, CodecF32),
			4, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 0),
		"non-minimal varint": append(header(kindF32Sparse, CodecF32),
			9, 0, 0, 0, 1, 0, 0, 0, 0x80, 0x00, 0, 0, 0, 0),
		"signalling NaN half":  append(header(kindF32, CodecF16), 1, 0, 0, 0, 0x01, 0x7C),
		"unknown codec":        append(header(kindF32, 3), 0, 0, 0, 0),
		"scalar under a codec": append(header(kindScalar, CodecF16), 0, 0, 0, 0, 0, 0, 0, 0),
		"unknown index mode": append(header(kindSparse, CodecF32),
			5, 0, 0, 0, 1, 0, 0, 0, 2 /*mode*/, 0, 0, 0, 0),
		"ascending rows in raw mode": append(header(kindSparse, CodecF32),
			5, 0, 0, 0, 0, 0, 0, 0 /*width 0*/, rawIndexMode, 2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0),
	} {
		if _, _, _, err := decodeMessage(b, pool, nil); err == nil {
			t.Errorf("%s decoded", name)
		}
	}
}
