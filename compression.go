package parallax

import (
	"fmt"
	"strconv"
	"strings"

	"parallax/internal/transport"
)

// Wire compression (DESIGN.md §11): WithCompression selects the lossy
// encoding of the gradient traffic — one half-precision payload codec
// for dense AllReduce buckets and parameter-server pushes, and
// optionally top-k sparsification with error feedback for the dense
// buckets. The lossy rounding happens deterministically in the data
// plane at fabric-symmetric points, so a compressed job trains
// bit-identically over the in-process fabric and over TCP; the wire
// layer then encodes the already-on-grid values compactly and
// losslessly. Parameter-server pull replies always travel exact f32.
//
// The zero policy (CompressionNone, the default) is the exact-f32
// instance of the same path.

// CompressionPolicy is the wire compression policy: the payload Codec
// of every gradient route and the TopK fraction of the dense buckets;
// the zero value disables compression. See the presets below and
// transport.Policy for the field-level contract.
type CompressionPolicy = transport.Policy

// CompressionCodec is a payload value encoding (f32, f16, bf16).
type CompressionCodec = transport.Codec

// Payload codecs for CompressionPolicy.Codec.
const (
	// CodecF32 is the exact float32 encoding (the default).
	CodecF32 = transport.CodecF32
	// CodecF16 is IEEE 754 binary16 with round-to-nearest-even.
	CodecF16 = transport.CodecF16
	// CodecBF16 is bfloat16 (truncated-exponent-preserving half) with
	// round-to-nearest-even.
	CodecBF16 = transport.CodecBF16
)

// CompressionNone is the zero policy: every route stays exact f32.
var CompressionNone = CompressionPolicy{}

// CompressionF16 compresses every gradient route to IEEE binary16
// payloads: halves the gradient payload bytes with ~3 decimal digits of
// mantissa.
func CompressionF16() CompressionPolicy { return CompressionPolicy{Codec: CodecF16} }

// CompressionBF16 is CompressionF16 with bfloat16 payloads: the full
// float32 exponent range at 8 bits of mantissa — preferable when
// gradients span many orders of magnitude.
func CompressionBF16() CompressionPolicy { return CompressionPolicy{Codec: CodecBF16} }

// CompressionTopK sparsifies each dense fusion bucket to the frac
// largest-magnitude entries per step (error feedback carries the
// remainder into later steps, so nothing is lost — only delayed), with
// f16 values; parameter-server routes travel f16. frac must be in
// (0, 1]; 0.1 reduces dense-route traffic roughly tenfold.
func CompressionTopK(frac float64) CompressionPolicy {
	return CompressionPolicy{Codec: CodecF16, TopK: frac}
}

// ParseCompression parses a policy name as accepted by the command-line
// tools' -compression flag: "none", "f16", "bf16", "topk" (top-k at the
// default 10%), or "topk=FRAC" with FRAC in (0, 1].
func ParseCompression(s string) (CompressionPolicy, error) {
	switch {
	case s == "" || s == "none":
		return CompressionNone, nil
	case s == "f16":
		return CompressionF16(), nil
	case s == "bf16":
		return CompressionBF16(), nil
	case s == "topk":
		return CompressionTopK(0.1), nil
	case strings.HasPrefix(s, "topk="):
		frac, err := strconv.ParseFloat(s[len("topk="):], 64)
		if err != nil || frac <= 0 || frac > 1 {
			return CompressionNone, fmt.Errorf("parallax: top-k fraction %q not in (0, 1]", s[len("topk="):])
		}
		return CompressionTopK(frac), nil
	}
	return CompressionNone, fmt.Errorf("parallax: unknown compression policy %q (want none, f16, bf16, or topk[=frac])", s)
}
