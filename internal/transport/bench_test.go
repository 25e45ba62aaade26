package transport

import (
	"testing"

	"parallax/internal/tensor"
)

// BenchmarkCodecRoundTrip measures the wire codec on the three payload
// shapes the trainer ships every step — a fusion-bucket-sized dense
// chunk, an AllGatherv sparse block, and a batched PS push — exact and
// under a compressed encoding. Encode
// appends into a reused scratch buffer and decode draws float buffers
// from the pool, so steady state should allocate only the
// receiver-owned sparse/PS structures.
func BenchmarkCodecRoundTrip(b *testing.B) {
	b.Run("dense64k", func(b *testing.B) {
		b.ReportAllocs()
		data := make([]float32, 64<<10)
		for i := range data {
			data[i] = float32(i)
		}
		m := message{tag: "fuse/0/rs", kind: kindF32, f32: data}
		pool := newBufPool()
		var buf []byte
		b.SetBytes(int64(len(data) * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendMessage(buf[:0], 0, 1, m)
			_, _, got, err := decodeMessage(buf, pool, nil)
			if err != nil {
				b.Fatal(err)
			}
			pool.put(got.f32)
		}
	})
	b.Run("sparse1k", func(b *testing.B) {
		b.ReportAllocs()
		rows := make([]int, 1024)
		for i := range rows {
			rows[i] = i * 3
		}
		sp := tensor.NewSparse(rows, tensor.NewDense(1024, 64), 4096)
		m := message{tag: "agv/embedding", kind: kindSparse, sparse: sp}
		pool := newBufPool()
		var buf []byte
		b.SetBytes(sp.Bytes() + int64(8*len(rows)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendMessage(buf[:0], 0, 1, m)
			if _, _, _, err := decodeMessage(buf, pool, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("psPush8", func(b *testing.B) {
		b.ReportAllocs()
		ps := &PSMsg{Op: PSPushDenseMany}
		var bytes int64
		for i := 0; i < 8; i++ {
			d := tensor.NewDense(256, 32)
			bytes += d.Bytes()
			ps.Names = append(ps.Names, "embedding")
			ps.Parts = append(ps.Parts, i)
			ps.Dense = append(ps.Dense, d)
		}
		m := message{tag: "ps", kind: kindPS, ps: ps}
		pool := newBufPool()
		var buf []byte
		b.SetBytes(bytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendMessage(buf[:0], 0, 1, m)
			if _, _, _, err := decodeMessage(buf, pool, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The compressed encodings of the same payload shapes: an f16 fusion
	// bucket, a top-k sparsified bucket at 10%, and an f16 sparse PS push.
	// SetBytes reports the UNCOMPRESSED payload size, so the ns/op and
	// MB/s columns compare directly against the exact ones above —
	// throughput here is "effective f32 bytes moved per second".
	b.Run("denseF16_64k", func(b *testing.B) {
		b.ReportAllocs()
		data := make([]float32, 64<<10)
		for i := range data {
			data[i] = float32(i)
		}
		tensor.QuantizeF16(data)
		m := message{tag: "fuse/0/rs", kind: kindF32, codec: CodecF16, f32: data}
		pool := newBufPool()
		var buf []byte
		b.SetBytes(int64(len(data) * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendMessage(buf[:0], 0, 1, m)
			_, _, got, err := decodeMessage(buf, pool, nil)
			if err != nil {
				b.Fatal(err)
			}
			pool.put(got.f32)
		}
	})
	b.Run("topk10pct_64k", func(b *testing.B) {
		b.ReportAllocs()
		n := 64 << 10
		k := n / 10
		ch := SparseChunk{Len: n, Idx: make([]int32, k), Vals: make([]float32, k), Codec: CodecF16}
		for i := 0; i < k; i++ {
			ch.Idx[i] = int32(i * 10)
			ch.Vals[i] = float32(i)
		}
		tensor.QuantizeF16(ch.Vals)
		m := message{tag: "fuse/0/rs", kind: kindF32Sparse, codec: ch.Codec, topk: &ch}
		pool := newBufPool()
		var buf []byte
		b.SetBytes(int64(n * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendMessage(buf[:0], 0, 1, m)
			if _, _, _, err := decodeMessage(buf, pool, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("psSparseF16", func(b *testing.B) {
		b.ReportAllocs()
		rows := make([]int, 1024)
		for i := range rows {
			rows[i] = i * 3
		}
		vals := tensor.NewDense(1024, 64)
		tensor.QuantizeF16(vals.Data())
		sp := tensor.NewSparse(rows, vals, 4096)
		ps := &PSMsg{
			Op: PSPushSparseMany, Names: []string{"embedding"}, Parts: []int{0},
			Sparse: []*tensor.Sparse{sp}, Codec: CodecF16,
		}
		m := psMessage(ps)
		pool := newBufPool()
		var buf []byte
		b.SetBytes(sp.Bytes() + int64(8*len(rows)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendMessage(buf[:0], 0, 1, m)
			if _, _, _, err := decodeMessage(buf, pool, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
