package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestF16Conversions pins the binary16 converter on the IEEE-754 edge
// cases: signed zeros, infinities, NaN payload preservation, the
// normal/subnormal boundary, overflow/underflow rounding, and
// round-to-nearest-even at the mantissa cut.
func TestF16Conversions(t *testing.T) {
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		in   float32
		bits uint16
	}{
		{"zero", 0, 0x0000},
		{"negzero", float32(math.Copysign(0, -1)), 0x8000},
		{"one", 1, 0x3C00},
		{"negtwo", -2, 0xC000},
		{"inf", inf, 0x7C00},
		{"neginf", -inf, 0xFC00},
		{"maxhalf", 65504, 0x7BFF},
		{"overflow", 65536, 0x7C00},                      // past the grid: Inf
		{"overflowRound", 65520, 0x7C00},                 // ties at the top round to Inf
		{"belowOverflow", 65519, 0x7BFF},                 // just under the tie: max half
		{"minNormal", 6.103515625e-05, 0x0400},           // 2^-14
		{"maxSubnormal", 6.097555160522461e-05, 0x03FF},  // (1023/1024)·2^-14
		{"minSubnormal", 5.960464477539063e-08, 0x0001},  // 2^-24
		{"underflowTie", 2.9802322387695312e-08, 0x0000}, // 2^-25 ties to even = 0
		{"aboveUnderflowTie", 2.9802325e-08, 0x0001},     // just above: smallest subnormal
		{"underflow", 1e-08, 0x0000},
		{"roundEvenDown", 1.00048828125, 0x3C00}, // halfway between 1 and 1+2^-10: even
		{"roundEvenUp", 1.00146484375, 0x3C02},   // halfway between 1+2^-10 and 1+2^-9: even
		{"roundNearest", 1.0005, 0x3C01},         // just above the tie: up
		{"third", 1.0 / 3.0, 0x3555},
	}
	for _, c := range cases {
		if got := F32ToF16Bits(c.in); got != c.bits {
			t.Errorf("%s: F32ToF16Bits(%g) = %#04x, want %#04x", c.name, c.in, got, c.bits)
		}
	}
	// Expansion of every half re-rounds to the same bits: the grid is a
	// fixed point of the round trip. A signalling NaN is the exception:
	// it comes back quiet.
	for h := 0; h <= 0xFFFF; h++ {
		f := F16BitsToF32(uint16(h))
		want := uint16(h)
		if h&0x7C00 == 0x7C00 && h&0x3FF != 0 {
			want |= 0x200
		}
		if got := F32ToF16Bits(f); got != want {
			t.Fatalf("half round trip %#04x -> %g -> %#04x, want %#04x", h, f, got, want)
		}
	}
	// NaN handling, the way F16C does it: a NaN keeps the top of its
	// payload and comes out quiet in either direction, so a payload that
	// truncates to zero cannot collapse into an infinity.
	for _, c := range []struct {
		name string
		in   uint32
		bits uint16
	}{
		{"quietNaN", 0x7FC02000, 0x7E01},
		{"signallingNaN", 0x7F802000, 0x7E01},
		{"negSignallingNaN", 0xFF802000, 0xFE01},
		{"thinNaN", 0x7F800001, 0x7E00}, // payload entirely below bit 13
	} {
		if got := F32ToF16Bits(math.Float32frombits(c.in)); got != c.bits {
			t.Errorf("%s: F32ToF16Bits(%#08x) = %#04x, want %#04x", c.name, c.in, got, c.bits)
		}
	}
	for _, c := range []struct {
		in   uint16
		bits uint32
	}{
		{0x7E00, 0x7FC00000},
		{0x7C01, 0x7FC02000}, // signalling: quieted
		{0xFE01, 0xFFC02000},
	} {
		if got := math.Float32bits(F16BitsToF32(c.in)); got != c.bits {
			t.Errorf("F16BitsToF32(%#04x) = %#08x, want %#08x", c.in, got, c.bits)
		}
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// f16Mismatch runs EncodeF16 and QuantizeF16 on src (enc and q are
// scratch of 2*len(src) bytes and len(src) floats) and describes the
// first element whose bits differ from the scalar Go routines'.
func f16Mismatch(src []float32, enc []byte, q []float32) error {
	EncodeF16(enc, src)
	copy(q, src)
	QuantizeF16(q)
	for i, v := range src {
		h := F32ToF16Bits(v)
		if got := binary.LittleEndian.Uint16(enc[2*i:]); got != h {
			return fmt.Errorf("EncodeF16 of %#08x = %#04x, want %#04x", math.Float32bits(v), got, h)
		}
		if got, want := math.Float32bits(q[i]), math.Float32bits(F16BitsToF32(h)); got != want {
			return fmt.Errorf("QuantizeF16 of %#08x = %#08x, want %#08x", math.Float32bits(v), got, want)
		}
	}
	return nil
}

// sweepChunk is how many bit patterns a sweep hands a check at once.
const sweepChunk = 1 << 14

// sweep checks every float32 bit pattern in [lo, hi), at most
// sweepChunk at a time over GOMAXPROCS goroutines, each with its own
// check from newCheck (which owns that goroutine's scratch buffers). It
// stops at the first error.
func sweep(t *testing.T, lo, hi uint64, newCheck func() func(src []float32) error) {
	t.Helper()
	var next atomic.Uint64
	next.Store(lo)
	var wg sync.WaitGroup
	errs := make(chan error, runtime.GOMAXPROCS(0))
	for range cap(errs) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, check := make([]float32, sweepChunk), newCheck()
			for {
				start := next.Add(sweepChunk) - sweepChunk
				if start >= hi {
					return
				}
				s := src[:min(sweepChunk, hi-start)]
				for i := range s {
					s[i] = math.Float32frombits(uint32(start + uint64(i)))
				}
				if err := check(s); err != nil {
					errs <- err
					next.Store(hi) // stop the others
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// sweepF16 sweeps [lo, hi) with f16Mismatch.
func sweepF16(t *testing.T, lo, hi uint64) {
	t.Helper()
	sweep(t, lo, hi, func() func([]float32) error {
		enc, q := make([]byte, 2*sweepChunk), make([]float32, sweepChunk)
		return func(src []float32) error { return f16Mismatch(src, enc, q) }
	})
}

// TestF16BulkMatchesScalar pins the bulk f16 routines — F16C on amd64
// when the CPU has it — to the scalar Go routines bit for bit: every
// positive float32 whose exponent can round to a half boundary (101–143),
// the f32 denormals (0), Inf and every NaN (255); a seeded sample of
// both signs and every exponent; and the decode of all 65,536 halves.
// The whole 2^32 sweep is TestF16BulkExhaustive (-tags exhaustive).
// The race detector makes the sweep ~15× slower and has nothing to find
// in it, so under -race only the sample and the decode run.
func TestF16BulkMatchesScalar(t *testing.T) {
	if !raceEnabled {
		sweepF16(t, 0, 1<<23)
		sweepF16(t, 101<<23, 144<<23)
		sweepF16(t, 255<<23, 256<<23)
	}

	rng := rand.New(rand.NewPCG(26, 16))
	src := make([]float32, 1<<20)
	for i := range src {
		src[i] = math.Float32frombits(rng.Uint32())
	}
	if err := f16Mismatch(src, make([]byte, 2*len(src)), make([]float32, len(src))); err != nil {
		t.Error(err)
	}

	halves := make([]byte, 2<<16)
	for h := range 1 << 16 {
		binary.LittleEndian.PutUint16(halves[2*h:], uint16(h))
	}
	dec := make([]float32, 1<<16)
	if DecodeF16(dec, halves) {
		t.Error("DecodeF16 of every half did not report the signalling NaNs")
	}
	for h, v := range dec {
		if got, want := math.Float32bits(v), math.Float32bits(F16BitsToF32(uint16(h))); got != want {
			t.Fatalf("DecodeF16 of %#04x = %#08x, want %#08x", h, got, want)
		}
	}
	// Every half the encoder can produce, i.e. all but the signalling
	// NaNs, decodes as canonical.
	canonical := halves[:0]
	for h := range 1 << 16 {
		if F32ToF16Bits(F16BitsToF32(uint16(h))) == uint16(h) {
			canonical = binary.LittleEndian.AppendUint16(canonical, uint16(h))
		}
	}
	if !DecodeF16(dec[:len(canonical)/2], canonical) {
		t.Error("DecodeF16 refused halves without a signalling NaN")
	}
}

// TestBF16Conversions pins the bfloat16 converter the same way: bf16 is
// f32 truncated to its top 16 bits with round-to-nearest-even.
func TestBF16Conversions(t *testing.T) {
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		in   float32
		bits uint16
	}{
		{"zero", 0, 0x0000},
		{"negzero", float32(math.Copysign(0, -1)), 0x8000},
		{"one", 1, 0x3F80},
		{"inf", inf, 0x7F80},
		{"neginf", -inf, 0xFF80},
		{"maxFinite", math.Float32frombits(0x7F7F0000), 0x7F7F},
		{"overflowRound", math.Float32frombits(0x7F7FFFFF), 0x7F80}, // rounds past max: Inf
		{"roundEven", math.Float32frombits(0x3F808000), 0x3F80},     // tie to even: down
		{"roundEvenUp", math.Float32frombits(0x3F818000), 0x3F82},   // tie to even: up
		{"roundUp", math.Float32frombits(0x3F808001), 0x3F81},
		{"subnormal", math.Float32frombits(0x00010000), 0x0001}, // f32 subnormals stay on grid
	}
	for _, c := range cases {
		if got := F32ToBF16Bits(c.in); got != c.bits {
			t.Errorf("%s: F32ToBF16Bits(%g) = %#04x, want %#04x", c.name, c.in, got, c.bits)
		}
	}
	for h := 0; h <= 0xFFFF; h++ {
		f := BF16BitsToF32(uint16(h))
		if got := F32ToBF16Bits(f); got != uint16(h) {
			t.Fatalf("bf16 round trip %#04x -> %g -> %#04x", h, f, got)
		}
	}
	if got := F32ToBF16Bits(math.Float32frombits(0x7F800001)); got&0x7F80 != 0x7F80 || got&0x7F == 0 {
		t.Errorf("thin NaN converted to %#04x, not a NaN", got)
	}
}

// TestQuantizeKernels checks the 4-wide bulk quantizers against the
// scalar converters on a slice long enough to exercise both the unrolled
// body and the tail, and that quantization is idempotent.
func TestQuantizeKernels(t *testing.T) {
	rng := NewRNG(11)
	x := rng.RandN(3, 1031).Data() // odd length: unrolled body + 3-element tail
	x[0] = float32(math.Inf(1))
	x[1] = 65519
	x[2] = 1e-8

	f16 := append([]float32(nil), x...)
	QuantizeF16(f16)
	for i, v := range x {
		want := F16BitsToF32(F32ToF16Bits(v))
		if math.Float32bits(f16[i]) != math.Float32bits(want) {
			t.Fatalf("QuantizeF16[%d] = %g, want %g", i, f16[i], want)
		}
	}
	again := append([]float32(nil), f16...)
	QuantizeF16(again)
	for i := range again {
		if math.Float32bits(again[i]) != math.Float32bits(f16[i]) {
			t.Fatalf("QuantizeF16 not idempotent at %d", i)
		}
	}

	bf16 := append([]float32(nil), x...)
	QuantizeBF16(bf16)
	for i, v := range x {
		want := BF16BitsToF32(F32ToBF16Bits(v))
		if math.Float32bits(bf16[i]) != math.Float32bits(want) {
			t.Fatalf("QuantizeBF16[%d] = %g, want %g", i, bf16[i], want)
		}
	}
}
