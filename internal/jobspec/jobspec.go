// Package jobspec is the shared definition of the repository's standard
// training job — the hybrid LM workload every entry point runs. It
// owns flag binding, deterministic graph construction, dataset and
// resource wiring and option assembly for parallax-agent and
// parallax-serve, and doubles as the wire format of the multi-tenant
// service: a Spec round-trips through JSON, so POST /jobs bodies and
// CLI flag sets build byte-identical jobs.
//
// Determinism is the package's contract. Graph always seeds its
// initializers with the same RNG seed and Dataset its Zipf stream with
// the same data seed, so any two holders of an equal Spec — two agent
// processes, or the service and a reference run — construct
// bit-identical jobs.
package jobspec

import (
	"flag"
	"fmt"

	"parallax"
	"parallax/internal/data"
)

// Graph construction constants: every entry point must build the
// identical graph (same seeds, same shapes), or distributed agents and
// service-vs-direct comparisons would diverge.
const (
	graphSeed = 42 // variable-initializer RNG
	dataSeed  = 7  // Zipf token stream
	embedDim  = 32
	hiddenDim = 64
)

// Spec describes one training job completely. The zero value is not
// runnable; start from Default.
type Spec struct {
	Machines int `json:"machines"`
	GPUs     int `json:"gpus"`
	Vocab    int `json:"vocab"`
	Batch    int `json:"batch"`
	Steps    int `json:"steps"`
	// Arch is the architecture name: hybrid|ar|ps|optps.
	Arch string  `json:"arch"`
	LR   float64 `json:"lr"`
	Clip float64 `json:"clip,omitempty"`
	// Partitions fixes the sparse partition count; 0 lets the session
	// search for it during its first steps.
	Partitions int `json:"partitions,omitempty"`
	// Compression is the wire-compression policy name:
	// none|f16|bf16|topk[=FRAC].
	Compression string `json:"compression,omitempty"`
}

// Default returns the standard workload: the 2×2 hybrid LM.
func Default() Spec {
	return Spec{
		Machines: 2, GPUs: 2, Vocab: 2000, Batch: 32, Steps: 100,
		Arch: "hybrid", LR: 0.5, Compression: "none",
	}
}

// BindCommonFlags registers the model/training flags shared by every
// binary (vocab, batch, steps, arch, clip, lr, compression) on fs,
// writing into s. Cluster-shape and deployment flags (machines, gpus,
// partitions, checkpointing) stay with each binary — their
// defaults and help text are part of that binary's contract.
func (s *Spec) BindCommonFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.Vocab, "vocab", s.Vocab, "vocabulary size")
	fs.IntVar(&s.Batch, "batch", s.Batch, "batch size per GPU")
	fs.IntVar(&s.Steps, "steps", s.Steps, "run until this many total steps have completed (checkpointed steps included)")
	fs.StringVar(&s.Arch, "arch", s.Arch, "architecture: hybrid|ar|ps|optps")
	fs.Float64Var(&s.Clip, "clip", s.Clip, "global-norm clip (0 = off)")
	fs.Float64Var(&s.LR, "lr", s.LR, "learning rate")
	fs.StringVar(&s.Compression, "compression", s.Compression,
		"wire compression: none|f16|bf16|topk[=FRAC] (part of job identity: every agent must pass the same value, and a -resume must match the checkpoint)")
}

// ArchValue resolves the architecture name.
func (s Spec) ArchValue() (parallax.Arch, error) {
	arch, ok := map[string]parallax.Arch{
		"hybrid": parallax.Hybrid, "ar": parallax.AllReduceOnly,
		"ps": parallax.PSOnly, "optps": parallax.OptimizedPS,
	}[s.Arch]
	if !ok {
		return 0, fmt.Errorf("jobspec: unknown architecture %q", s.Arch)
	}
	return arch, nil
}

// Validate checks the spec is runnable.
func (s Spec) Validate() error {
	if _, err := s.ArchValue(); err != nil {
		return err
	}
	if _, err := parallax.ParseCompression(s.Compression); err != nil {
		return err
	}
	switch {
	case s.Machines < 1:
		return fmt.Errorf("jobspec: machines must be >= 1, got %d", s.Machines)
	case s.GPUs < 1:
		return fmt.Errorf("jobspec: gpus must be >= 1, got %d", s.GPUs)
	case s.Vocab < 2:
		return fmt.Errorf("jobspec: vocab must be >= 2, got %d", s.Vocab)
	case s.Batch < 1:
		return fmt.Errorf("jobspec: batch must be >= 1, got %d", s.Batch)
	case s.Steps < 1:
		return fmt.Errorf("jobspec: steps must be >= 1, got %d", s.Steps)
	case s.LR <= 0:
		return fmt.Errorf("jobspec: lr must be > 0, got %g", s.LR)
	case s.Clip < 0:
		return fmt.Errorf("jobspec: clip must be >= 0, got %g", s.Clip)
	case s.Partitions < 0:
		return fmt.Errorf("jobspec: partitions must be >= 0, got %d", s.Partitions)
	}
	return nil
}

// Graph builds the standard LM graph: a partitioned sparse embedding,
// a tanh hidden layer, and a softmax cross-entropy head, with all
// initializers drawn from the fixed seed.
func (s Spec) Graph() *parallax.Graph {
	rng := parallax.NewRNG(graphSeed)
	g := parallax.NewGraph()
	tokens := g.Input("tokens", parallax.Int, s.Batch)
	labels := g.Input("labels", parallax.Int, s.Batch)
	var emb *parallax.Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, s.Vocab, embedDim))
	})
	w1 := g.Variable("hidden/kernel", rng.RandN(0.1, embedDim, hiddenDim))
	b1 := g.Variable("hidden/bias", parallax.NewDense(hiddenDim))
	w2 := g.Variable("softmax/kernel", rng.RandN(0.1, hiddenDim, s.Vocab))
	h := g.Tanh(g.AddBias(g.MatMul(g.Gather(emb, tokens), w1), b1))
	g.SoftmaxCE(g.MatMul(h, w2), labels)
	return g
}

// Resources returns the uniform cluster shape the spec trains on.
func (s Spec) Resources() parallax.ResourceInfo {
	return parallax.Uniform(s.Machines, s.GPUs)
}

// Dataset returns a fresh, identically seeded token stream. Each
// consumer must take its own: the stream is a stateful cursor.
func (s Spec) Dataset() *data.ZipfText {
	return data.NewZipfText(s.Vocab, s.Batch, 1, 1.0, dataSeed)
}

// Options assembles the session options the spec encodes. The returned
// slice is safe to append deployment-specific options to (WithDistConfig,
// WithAutoCheckpoint, ...).
func (s Spec) Options() ([]parallax.Option, error) {
	arch, err := s.ArchValue()
	if err != nil {
		return nil, err
	}
	policy, err := parallax.ParseCompression(s.Compression)
	if err != nil {
		return nil, err
	}
	lr := float32(s.LR)
	return []parallax.Option{
		parallax.WithArch(arch),
		parallax.WithOptimizer(func() parallax.Optimizer { return parallax.NewSGD(lr) }),
		parallax.WithClipNorm(s.Clip),
		parallax.WithCompression(policy),
		parallax.WithSparsePartitions(s.Partitions),
	}, nil
}
