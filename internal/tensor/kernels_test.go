package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// sameBits is equality under the kernel contract: the same float32 bit
// pattern, or both NaN (which payload survives two NaNs meeting is
// operand order, not arithmetic).
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func wantSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s elem %d: %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// refDot spells out Dot's stated order.
func refDot(a, b []float32) float32 {
	var s [4]float32
	n4 := len(a) &^ 3
	for i := 0; i < n4; i++ {
		s[i%4] += float32(a[i] * b[i])
	}
	r := (s[0] + s[1]) + (s[2] + s[3])
	for i := n4; i < len(a); i++ {
		r += float32(a[i] * b[i])
	}
	return r
}

// Dot and the three matmuls are pinned bit-for-bit to reference loops
// that spell out the per-element order of the kernel contract: a
// tolerance would pass an 8-lane or fused kernel that changes every
// loss bit.
func TestKernelsMatchNaive(t *testing.T) {
	rng := NewRNG(42)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100} {
		src, dst := rng.RandN(1, n).data, rng.RandN(1, n).data

		wantAdd := append([]float32(nil), dst...)
		for i := range wantAdd {
			wantAdd[i] += src[i]
		}
		gotAdd := append([]float32(nil), dst...)
		AddTo(src, gotAdd)
		wantSameBits(t, fmt.Sprintf("AddTo n=%d", n), gotAdd, wantAdd)

		const a = float32(0.37)
		wantAxpy := append([]float32(nil), dst...)
		for i := range wantAxpy {
			wantAxpy[i] += float32(a * src[i])
		}
		gotAxpy := append([]float32(nil), dst...)
		Axpy(a, src, gotAxpy)
		wantSameBits(t, fmt.Sprintf("Axpy n=%d", n), gotAxpy, wantAxpy)

		wantSameBits(t, fmt.Sprintf("Dot n=%d", n), []float32{Dot(src, dst)}, []float32{refDot(src, dst)})
	}

	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 7}, {32, 64, 10}, {4, 6, 37}, {5, 13, 70}, {2, 3, 64}, {0, 3, 4}, {3, 0, 40}, {3, 4, 0}} {
		m, k, n := sh[0], sh[1], sh[2]
		name := fmt.Sprintf("%dx%dx%d", m, k, n)

		// a @ b, with exact zeros of both signs in a.
		a, b := rng.RandN(1, m, k), rng.RandN(1, k, n)
		for i := 0; i < m*k; i += 3 {
			a.data[i] = 0
		}
		if m*k > 1 {
			a.data[1] = float32(math.Copysign(0, -1))
		}
		want := make([]float32, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					if a.data[i*k+p] == 0 {
						continue
					}
					s += float32(a.data[i*k+p] * b.data[p*n+j])
				}
				want[i*n+j] = s
			}
		}
		wantSameBits(t, "MatMul "+name, MatMul(a, b).data, want)

		// aᵀ @ b: no skip.
		at := rng.RandN(1, k, m)
		if k*m > 0 {
			at.data[0] = 0
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += float32(at.data[p*m+i] * b.data[p*n+j])
				}
				want[i*n+j] = s
			}
		}
		dirty := NewDense(m, n)
		dirty.Fill(7) // Into overwrites whatever out held
		wantSameBits(t, "MatMulT1 "+name, MatMulT1Into(dirty, at, b).data, want)

		// a @ bᵀ.
		bt := rng.RandN(1, n, k)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want[i*n+j] = refDot(a.data[i*k:(i+1)*k], bt.data[j*k:(j+1)*k])
			}
		}
		dirty.Fill(7)
		wantSameBits(t, "MatMulT2 "+name, MatMulT2Into(dirty, a, bt).data, want)
	}
}

// MatMul's zero-skip keeps 0·Inf out of the sum; MatMulT1 has no skip
// and lets it turn the column NaN.
func TestMatMulZeroTimesInf(t *testing.T) {
	inf := float32(math.Inf(1))
	row := make([]float32, 40)
	for i := range row {
		row[i] = inf
	}
	b := FromSlice(append(row, make([]float32, 40)...), 2, 40)
	if got := MatMul(FromSlice([]float32{0, 1}, 1, 2), b); got.L2NormSquared() != 0 {
		t.Fatalf("MatMul let a skipped 0·Inf term in: %v", got.data)
	}
	got := MatMulT1Into(NewDense(1, 40), FromSlice([]float32{0, 1}, 2, 1), b)
	for j, v := range got.data {
		if v == v {
			t.Fatalf("MatMulT1 column %d = %v, want NaN", j, v)
		}
	}
}

// Axpy into a longer destination must only touch the first len(src)
// elements (the matmul kernels rely on this when rows alias larger
// buffers).
func TestAxpyShortSource(t *testing.T) {
	dst := []float32{1, 1, 1, 1, 1, 1}
	Axpy(2, []float32{10, 10}, dst)
	want := []float32{21, 21, 1, 1, 1, 1}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

// A destination too short for the source is refused by the Go slice
// expression in front of the kernel, never by the kernel writing past
// the end.
func TestKernelsPanicOnShortDst(t *testing.T) {
	for name, f := range map[string]func(src, dst []float32){
		"Axpy":  func(src, dst []float32) { Axpy(2, src, dst) },
		"AddTo": AddTo,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with len(dst) < len(src) did not panic", name)
				}
			}()
			backing := make([]float32, 8)
			f(make([]float32, 8), backing[:5:5])
		}()
	}
}

// checkAgainstGeneric runs every arch kernel and its generic Go loop on
// operands of length n cut from vals (cycled) at start offset off into
// their backing arrays, and requires the same bits.
func checkAgainstGeneric(t *testing.T, vals []float32, a float32, n, off int) {
	t.Helper()
	next := 0
	fill := func(count int) []float32 {
		backing := make([]float32, off+count)
		for i := off; i < len(backing); i++ {
			backing[i] = vals[next%len(vals)]
			next++
		}
		return backing[off:]
	}
	what := func(k string) string { return fmt.Sprintf("%s n=%d off=%d a=%v", k, n, off, a) }

	// dst is longer than src: the 9 elements beyond must come back
	// untouched.
	src, dst := fill(n), fill(n+9)
	want := append([]float32(nil), dst...)
	axpyGeneric(a, src, want[:n])
	got := append(make([]float32, off), dst...)[off:]
	Axpy(a, src, got)
	wantSameBits(t, what("Axpy"), got, want)

	want = append([]float32(nil), dst...)
	addToGeneric(src, want[:n])
	got = append(make([]float32, off), dst...)[off:]
	AddTo(src, got)
	wantSameBits(t, what("AddTo"), got, want)

	// src aliasing dst.
	want = append([]float32(nil), src...)
	axpyGeneric(a, want, want)
	got = append(make([]float32, off), src...)[off:]
	Axpy(a, got, got)
	wantSameBits(t, what("Axpy aliased"), got, want)

	want = append([]float32(nil), src...)
	addToGeneric(want, want)
	got = append(make([]float32, off), src...)[off:]
	AddTo(got, got)
	wantSameBits(t, what("AddTo aliased"), got, want)

	checkF16AgainstGeneric(t, src, off, what)
	checkTanhAgainstPort(t, src, off, what)

	// The 4-column dot: 6 rows of b, so one group of four and two
	// columns left to Dot.
	const cols = 6
	b := fill(cols * n)
	want, got = make([]float32, cols), fill(cols)
	dotRowGeneric(want, src, b)
	dotRow(got, src, b)
	wantSameBits(t, what("dotRow"), got, want)

	// The register-held strip: n output columns, 5 terms each, the a
	// factors read at stride 1 and 3, with and without the zero-skip.
	const k = 5
	b = fill(k * n)
	for _, stride := range []int{1, 3} {
		av := fill((k-1)*stride + 1)
		av[0], av[(k-1)*stride] = 0, float32(math.Copysign(0, -1))
		for _, skip := range []bool{true, false} {
			want, got = fill(n), fill(n)
			mulAddRowAxpy(want, av, stride, k, b, n, skip)
			mulAddRow(got, av, stride, k, b, skip)
			wantSameBits(t, what(fmt.Sprintf("mulAddRow stride=%d skip=%v", stride, skip)), got, want)
		}
	}
}

// checkF16AgainstGeneric runs the three f16 bulk routines on src, which
// starts at offset off into its backing array, and requires exactly the
// bits of their Go loops, NaN payloads included: quantize in place,
// encode into a longer buffer whose tail must come back untouched, and
// decode of src's own bit patterns read as len(src) halves.
func checkF16AgainstGeneric(t *testing.T, src []float32, off int, what func(string) string) {
	t.Helper()
	n := len(src)
	want := append([]float32(nil), src...)
	quantizeF16Generic(want)
	got := append(make([]float32, off), src...)[off:]
	QuantizeF16(got)
	wantBits(t, what("QuantizeF16"), got, want)

	wantEnc := bytes.Repeat([]byte{0xA5}, 2*n+3)
	encodeF16Generic(wantEnc[:2*n], src)
	gotEnc := append(make([]byte, off), bytes.Repeat([]byte{0xA5}, 2*n+3)...)[off:]
	EncodeF16(gotEnc, src)
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("%s:\n%x\nwant\n%x", what("EncodeF16"), gotEnc, wantEnc)
	}

	raw := make([]byte, off+4*n)[off:]
	for i, v := range src {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	want = make([]float32, n)
	wantOK := decodeF16Generic(want, raw[:2*n])
	got = make([]float32, off+n)[off:]
	if gotOK := DecodeF16(got, raw); gotOK != wantOK {
		t.Fatalf("%s reported %v, want %v", what("DecodeF16"), gotOK, wantOK)
	}
	wantBits(t, what("DecodeF16"), got, want)
}

// wantBits is wantSameBits without the NaN allowance: the f16 routines
// are exact on NaN payloads too.
func wantBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s elem %d: %#08x, want %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// specials are the values a lane-wise kernel could treat differently
// from scalar code: NaN, infinities, both zeros, denormals, and sums
// that overflow or cancel. 0x7F80FC01 is a signalling NaN whose low
// half, read as binary16, is one too.
var specials = []float32{
	float32(math.NaN()), math.Float32frombits(0x7F80FC01), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -3e-41,
	math.MaxFloat32, -math.MaxFloat32, 1, -1, 0.1, 3,
	// tanh's branch points: 0.625 and the saturation point tanhMaxLog,
	// the float32s on either side of each, of both signs.
	0.625, -math.Nextafter32(0.625, 0), math.Nextafter32(tanhMaxLog, 0), -float32(tanhMaxLog), 44, -45,
}

// testValues are the operands the kernel comparisons cut their inputs
// from: 1009 seeded normals, and 97 of them with every special value
// spread through.
func testValues() (ordinary, mixed []float32) {
	ordinary = NewRNG(7).RandN(1, 1009).data
	mixed = append([]float32(nil), ordinary[:97]...)
	for i, v := range specials {
		mixed[(i*7)%len(mixed)] = v
	}
	return ordinary, mixed
}

// The assembly against the generic Go loops, in math.Float32bits, for
// every length 0…130 at every start offset 0…7 (unaligned loads and all
// three tail lengths), on ordinary values and on the special ones.
// The exp kernel is held to the Go port in float64 bits the same way,
// on values spread around its range [expLo, expHi] and on the specials
// that take the port's exits, and tanh on an input of several chunks.
func TestAsmKernelsMatchGeneric(t *testing.T) {
	ordinary, mixed := testValues()
	for n := 0; n <= 130; n++ {
		for off := 0; off < 8; off++ {
			checkAgainstGeneric(t, ordinary, 0.37, n, off)
			checkAgainstGeneric(t, mixed, -1.5, n, off)
		}
	}
	for _, a := range specials {
		checkAgainstGeneric(t, mixed, a, 67, 1)
	}
	ordinary64, mixed64 := expTestValues()
	for n := 0; n <= 130; n++ {
		for off := 0; off < 8; off++ {
			what := func(k string) string { return fmt.Sprintf("%s n=%d off=%d", k, n, off) }
			checkExpAgainstPort(t, ordinary64[:n], off, what)
			checkExpAgainstPort(t, mixed64[:min(n, len(mixed64))], off, what)
		}
	}
	checkTanhAgainstPort(t, ordinary, 3, func(k string) string { return k + " n=1009 off=3" })
}

// FuzzKernelsMatchGeneric is the same property on raw bit patterns,
// read as float32 for every kernel and as float64 for exp.
func FuzzKernelsMatchGeneric(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 192, 127, 1, 0, 0, 0}, uint32(0x3f000000), uint8(37), uint8(3))
	f.Add([]byte{0, 0, 128, 255, 0, 0, 0, 128}, uint32(0), uint8(130), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, abits uint32, n, off uint8) {
		if len(raw) < 4 {
			return
		}
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkAgainstGeneric(t, vals, math.Float32frombits(abits), int(n)%131, int(off)%8)
		vals64 := make([]float64, len(raw)/8)
		for i := range vals64 {
			vals64[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkExpAgainstPort(t, vals64, int(off)%8, func(k string) string { return k })
	})
}
