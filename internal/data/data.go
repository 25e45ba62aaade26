// Package data provides the synthetic workloads the reproduction trains
// on. The paper's datasets (ImageNet, One Billion Word, WMT En-De) are not
// available offline, and the only dataset property the evaluation depends
// on is the sparsity degree α it induces — the average fraction of
// embedding rows touched per iteration (§2.2, §6.6). The generators here
// produce token streams with a Zipfian vocabulary distribution (natural
// language's empirical shape), with α controlled by vocabulary size, batch
// size and sequence length exactly as in the paper's Table 6 experiment
// ("α_model is controlled by the number of words (length) in a data
// instance with the batch size fixed").
package data

import (
	"fmt"
	"math"

	"parallax/internal/tensor"
)

// Batch is one training step's worth of examples for a token model:
// Tokens feed embedding lookups, Labels feed the loss.
type Batch struct {
	Tokens []int
	Labels []int
}

// Dataset produces an endless, deterministic stream of batches.
type Dataset interface {
	// Next returns the next batch.
	Next() Batch
	// BatchTokens returns how many tokens each batch carries (batch size ×
	// sequence length), the unit of the paper's words/sec throughput.
	BatchTokens() int
}

// Resumable is a Dataset whose read position can be captured and
// restored — the dataset half of checkpoint/resume. The cursor is the
// number of batches drawn so far; restoring a job fast-forwards an
// identically constructed dataset to the saved cursor, after which the
// stream continues bit-identically to the uninterrupted run. Datasets
// without the interface are resumed by drawing and discarding batches,
// which is equivalent but pays the allocation; Seek exists to skip the
// batch assembly.
type Resumable interface {
	Dataset
	// Cursor returns the number of batches drawn so far.
	Cursor() int64
	// Seek advances the stream to an absolute cursor. Rewinding is not
	// supported (the generators are forward-only): seeking before the
	// current cursor is an error.
	SeekBatch(cursor int64) error
}

// FastForward advances ds to the given cursor: through Seek when the
// dataset is Resumable, by drawing and discarding batches otherwise.
func FastForward(ds Dataset, cursor int64) error {
	if r, ok := ds.(Resumable); ok {
		return r.SeekBatch(cursor)
	}
	for i := int64(0); i < cursor; i++ {
		ds.Next()
	}
	return nil
}

// ZipfText generates token batches with Zipf-distributed ids over a fixed
// vocabulary: rank-r word has probability ∝ 1/(r+q)^s.
type ZipfText struct {
	vocab  int
	batch  int
	seqLen int
	rng    *tensor.RNG
	cum    []float64 // cumulative distribution over vocabulary ranks
	perm   []int     // rank -> token id shuffle, so hot ids are spread out
	drawn  int64     // batches drawn (the resume cursor)
}

// NewZipfText creates a generator: batch sentences of seqLen words each,
// over the given vocabulary, Zipf exponent s (≈1.0 for natural language).
func NewZipfText(vocab, batch, seqLen int, s float64, seed int64) *ZipfText {
	if vocab <= 1 || batch <= 0 || seqLen <= 0 {
		panic(fmt.Sprintf("data: bad ZipfText params vocab=%d batch=%d seqLen=%d", vocab, batch, seqLen))
	}
	rng := tensor.NewRNG(seed)
	cum := make([]float64, vocab)
	var total float64
	for r := 0; r < vocab; r++ {
		total += 1 / math.Pow(float64(r+2), s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	return &ZipfText{
		vocab: vocab, batch: batch, seqLen: seqLen,
		rng: rng, cum: cum, perm: rng.Perm(vocab),
	}
}

func (z *ZipfText) sample() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cum)
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= z.vocab {
		lo = z.vocab - 1
	}
	return z.perm[lo]
}

// Next implements Dataset.
func (z *ZipfText) Next() Batch {
	n := z.batch * z.seqLen
	b := Batch{Tokens: make([]int, n), Labels: make([]int, n)}
	for i := range b.Tokens {
		b.Tokens[i] = z.sample()
		b.Labels[i] = z.sample()
	}
	z.drawn++
	return b
}

// Cursor implements Resumable.
func (z *ZipfText) Cursor() int64 { return z.drawn }

// SeekBatch implements Resumable: the generator replays exactly the sample
// draws the skipped batches would have made (without assembling them),
// so the stream after Seek is bit-identical to one that actually drew
// every batch.
func (z *ZipfText) SeekBatch(cursor int64) error {
	if cursor < z.drawn {
		return fmt.Errorf("data: seek to batch %d behind cursor %d (forward-only stream)", cursor, z.drawn)
	}
	samples := 2 * z.batch * z.seqLen // tokens + labels per batch
	for ; z.drawn < cursor; z.drawn++ {
		for i := 0; i < samples; i++ {
			z.sample()
		}
	}
	return nil
}

// BatchTokens implements Dataset.
func (z *ZipfText) BatchTokens() int { return z.batch * z.seqLen }

// Vocab returns the vocabulary size.
func (z *ZipfText) Vocab() int { return z.vocab }

// MeasureAlpha empirically estimates the α a dataset induces on an
// embedding of the dataset's vocabulary: the mean over iters batches of
// (unique tokens in batch) / vocab. This is the quantity the paper's
// α-threshold rule reads to decide dense-vs-sparse treatment when α
// approaches 1 (§3.1); only the simulator applies that rule.
func MeasureAlpha(d Dataset, vocab, iters int) float64 {
	var sum float64
	for i := 0; i < iters; i++ {
		b := d.Next()
		sum += tensor.AlphaOf(b.Tokens, vocab)
	}
	return sum / float64(iters)
}

// Shard wraps a dataset so that worker w of n consumes a disjoint subset of
// the stream: the Go analogue of parallax.shard (Fig. 3 line 6). Each
// worker skips the batches belonging to other workers, so the union of all
// workers' streams is the original stream, disjointly.
type Shard struct {
	base    Dataset
	worker  int
	workers int
	drawn   int64
	started bool
}

// NewShard returns worker w's shard of d split n ways.
func NewShard(d Dataset, w, n int) *Shard {
	if n <= 0 || w < 0 || w >= n {
		panic(fmt.Sprintf("data: bad shard %d/%d", w, n))
	}
	return &Shard{base: d, worker: w, workers: n}
}

// Next implements Dataset: round-robin assignment of base batches.
func (s *Shard) Next() Batch {
	if !s.started {
		for i := 0; i < s.worker; i++ {
			s.base.Next()
		}
		s.started = true
	} else {
		for i := 0; i < s.workers-1; i++ {
			s.base.Next()
		}
	}
	s.drawn++
	return s.base.Next()
}

// BatchTokens implements Dataset.
func (s *Shard) BatchTokens() int { return s.base.BatchTokens() }

// Cursor implements Resumable: the number of shard batches this worker
// has drawn (not the base stream's position).
func (s *Shard) Cursor() int64 { return s.drawn }

// SeekBatch implements Resumable by drawing and discarding shard batches,
// which keeps the skip arithmetic (including the first-call offset) in
// one place; the base dataset's own Seek cannot be used directly
// because the shard interleaves skips with reads.
func (s *Shard) SeekBatch(cursor int64) error {
	if cursor < s.drawn {
		return fmt.Errorf("data: seek to batch %d behind cursor %d (forward-only stream)", cursor, s.drawn)
	}
	for s.drawn < cursor {
		s.Next()
	}
	return nil
}

// Images generates synthetic image-classification batches: feature tensors
// plus labels, for the dense-model examples.
type Images struct {
	batch, features, classes int
	rng                      *tensor.RNG
	protos                   *tensor.Dense // one prototype per class
}

// NewImages returns a generator of linearly-separable-ish synthetic data:
// each example is a noisy class prototype, so small models can actually
// learn (the convergence experiments need a learnable signal).
func NewImages(batch, features, classes int, seed int64) *Images {
	rng := tensor.NewRNG(seed)
	return &Images{
		batch: batch, features: features, classes: classes,
		rng:    rng,
		protos: rng.RandN(1, classes, features),
	}
}

// Next returns (features [batch, features], labels [batch]).
func (im *Images) Next() (*tensor.Dense, []int) {
	x := tensor.NewDense(im.batch, im.features)
	labels := make([]int, im.batch)
	for i := 0; i < im.batch; i++ {
		c := im.rng.Intn(im.classes)
		labels[i] = c
		row := x.Data()[i*im.features : (i+1)*im.features]
		proto := im.protos.Data()[c*im.features : (c+1)*im.features]
		for j := range row {
			row[j] = proto[j] + float32(im.rng.NormFloat64()*0.3)
		}
	}
	return x, labels
}
