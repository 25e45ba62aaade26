package checkpoint

import "testing"

// FuzzCheckpointDecode feeds arbitrary bytes to the shard decoder: the
// contract under fuzz is "error or success, never panic, never an
// allocation larger than the input justifies". The seed corpus includes
// a valid shard of each version so mutations explore deep record paths,
// not just the header checks.
func FuzzCheckpointDecode(f *testing.F) {
	meta, recs := sampleShard()
	if valid, err := Encode(meta, recs); err == nil {
		f.Add(valid)
		// A truncated and a bit-flipped variant seed the interesting
		// failure regions directly.
		f.Add(valid[:len(valid)/2])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte("PLXCKPT"))
	f.Add([]byte{})
	f.Add(encodeV1(f, meta, recs))
	f.Fuzz(func(t *testing.T, b []byte) {
		meta, recs, err := Decode(b)
		if err != nil {
			return
		}
		// A successful decode must be internally consistent enough to
		// re-encode.
		if _, err := Encode(meta, recs); err != nil {
			t.Fatalf("decoded shard does not re-encode: %v", err)
		}
	})
}
