package main

import (
	"fmt"

	"parallax"
	"parallax/internal/data"
	"parallax/internal/graph"
	"parallax/internal/models"
	"parallax/internal/tensor"
)

// The cluster shape is the same on every workload: local aggregation
// (paper §4.3) needs two GPUs per machine, and two machines is what a
// two-core box can host as two agents.
const (
	machines       = 2
	gpusPerMachine = 2
	workers        = machines * gpusPerMachine
	partitions     = 8 // sparse partitions on every hybrid workload
)

// warmupSteps are run and discarded before the timed window, the
// paper's §3.2 sampling discipline.
const warmupSteps = 50

// setupSteps are the first steps a set-up is timed through: setup_s is
// graph build, Open and these, so that work moved out of the steady
// state into first use shows there. They are the first of the warm-up.
const setupSteps = 5

// lossWindow is how many steps loss_final is averaged over. One step's
// loss carries the noise of one batch, and the driver asks that the
// metric hold still from seed to seed: over 250 steps the ten seeds'
// values spread by 1.6 % of their median at most (mlp_ar_inproc, whose
// redrawn labels are the noisiest), over 50 steps by 3.6 %.
const lossWindow = 250

// firstLossSteps is how many steps of the run's start are averaged into
// the loss that loss_final must have fallen below.
const firstLossSteps = 50

// feedFunc is the callback Session.StepsFeeds draws a worker's batch
// from.
type feedFunc func(step, worker int) (parallax.Feed, error)

// workload is one set of inputs the benchmark runs: a model, its data,
// and how the session is opened.
type workload struct {
	name string
	why  string

	// tcp runs two agents over loopback sockets; otherwise the cluster
	// lives in one process on the channel fabric.
	tcp bool
	// ps is set when the plan has parameter-server routes, f16 when
	// payloads travel half precision, guarded when every Session
	// boundary round and the periodic save are switched on.
	ps, f16, guarded bool

	// lossSteps is the fixed number of timed steps after which
	// loss_final is read, the same on every commit. The timed window
	// runs for runSeconds but never stops before lossSteps, so the loss
	// is taken at the same step whatever the box's speed.
	lossSteps int

	// build returns the single-GPU graph, initialised from seed.
	build func(seed int64) *parallax.Graph
	// feeds returns one agent's feed source, seeded from seed. Every
	// agent of a run builds its own from the same seed, as separate
	// processes would.
	feeds func(seed int64) feedFunc
	// options are the session options beyond the distribution config;
	// dir is a fresh scratch directory for the run's auto-checkpoints.
	options func(dir string) []parallax.Option
}

// Seeds are derived, not shared, so that model initialisation and the
// data stream are independent draws of one -seed.
func modelSeed(seed int64) int64 { return seed*7919 + 11 }
func dataSeed(seed int64) int64  { return seed*7919 + 13 }

var workloads = []workload{
	{
		name: "lm_inproc",
		why:  "reference hybrid LM step on the channel fabric: PS and fused AllReduce both active, no wire or codec work; the control for any transport change",
		ps:   true, lossSteps: 600,
		build: buildLM, feeds: lmFeeds,
		options: func(string) []parallax.Option {
			return []parallax.Option{parallax.WithSparsePartitions(partitions)}
		},
	},
	{
		name: "emb_tcp",
		why:  "sparse-heavy embedding model over two loopback agents, exact f32: psrt push/pull, PS frames and the f32 codec dominate, collectives do little",
		tcp:  true, ps: true, lossSteps: 400,
		build: buildEmb, feeds: embFeeds,
		options: func(string) []parallax.Option {
			return []parallax.Option{parallax.WithSparsePartitions(partitions)}
		},
	},
	{
		name:      "mlp_ar_inproc",
		why:       "dense-only 32-layer MLP under AllReduceOnly on the channel fabric: graph exec, tensor kernels and fused collectives only; PS and wire changes must not move it",
		lossSteps: 400,
		build:     buildMLP, feeds: mlpFeeds,
		options: func(string) []parallax.Option {
			return []parallax.Option{parallax.WithArch(parallax.AllReduceOnly)}
		},
	},
	{
		name: "lm_tcp_guarded",
		why:  "the LM over two loopback agents with f16 payloads, auto-checkpoint every 10 steps, recovery, elastic rounds and a cancellable context: the other half of each layer",
		tcp:  true, ps: true, f16: true, guarded: true, lossSteps: 400,
		build: buildLM, feeds: lmFeeds,
		options: func(dir string) []parallax.Option {
			return []parallax.Option{
				parallax.WithSparsePartitions(partitions),
				parallax.WithCompression(parallax.CompressionF16()),
				parallax.WithAutoCheckpoint(dir, autosaveEvery),
				parallax.WithRecovery(parallax.RecoveryPolicy{Enabled: true}),
				parallax.WithElastic(),
			}
		},
	},
}

const autosaveEvery = 10

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// LM: ROADMAP's reference model, 32 tokens per worker, 128 per step.
const (
	lmVocab = 1000
	lmBatch = 32
)

func buildLM(seed int64) *parallax.Graph {
	return models.BuildTinyLM(models.TinyLMConfig{
		Vocab: lmVocab, Dim: 32, Hidden: 64, Batch: lmBatch, Seed: modelSeed(seed),
	})
}

func lmFeeds(seed int64) feedFunc {
	ds := data.NewZipfText(lmVocab, lmBatch, 1, 1.0, dataSeed(seed))
	return func(int, int) (parallax.Feed, error) {
		b := ds.Next()
		return parallax.Feed{Ints: map[string][]int{"tokens": b.Tokens, "labels": b.Labels}}, nil
	}
}

// Embedding model: the paper's NLP regime, sparse bytes far above
// dense bytes (a 20000x64 table against 4096+16384 dense weights).
const (
	embVocab   = 20000
	embDim     = 64
	embClasses = 256
	embBatch   = 64
)

func buildEmb(seed int64) *parallax.Graph {
	rng := tensor.NewRNG(modelSeed(seed))
	g := graph.New()
	tokens := g.Input("tokens", graph.Int, embBatch)
	labels := g.Input("labels", graph.Int, embBatch)
	var emb *graph.Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, embVocab, embDim))
	})
	w1 := g.Variable("hidden/kernel", rng.RandN(0.1, embDim, embDim))
	w2 := g.Variable("softmax/kernel", rng.RandN(0.1, embDim, embClasses))
	h := g.Tanh(g.MatMul(g.Gather(emb, tokens), w1))
	g.SoftmaxCE(g.MatMul(h, w2), labels)
	return g
}

// embFeeds labels each token with token mod 256, a function of the
// token the model can learn through its embedding row.
func embFeeds(seed int64) feedFunc {
	ds := data.NewZipfText(embVocab, embBatch, 1, 1.0, dataSeed(seed))
	return func(int, int) (parallax.Feed, error) {
		b := ds.Next()
		for i, t := range b.Tokens {
			b.Labels[i] = t % embClasses
		}
		return parallax.Feed{Ints: map[string][]int{"tokens": b.Tokens, "labels": b.Labels}}, nil
	}
}

// MLP: the paper's image regime, many small dense variables and no
// sparse one.
const (
	mlpLayers   = 32
	mlpWidth    = 64
	mlpClasses  = 10
	mlpBatch    = 32
	mlpFeatures = 64
)

func buildMLP(seed int64) *parallax.Graph {
	rng := tensor.NewRNG(modelSeed(seed))
	g := graph.New()
	x := g.Input("images", graph.Float, mlpBatch, mlpFeatures)
	labels := g.Input("labels", graph.Int, mlpBatch)
	h := x
	for l := 0; l < mlpLayers; l++ {
		w := g.Variable(fmt.Sprintf("layer%02d/kernel", l), rng.RandN(0.15, mlpWidth, mlpWidth))
		b := g.Variable(fmt.Sprintf("layer%02d/bias", l), tensor.NewDense(mlpWidth))
		h = g.Tanh(g.AddBias(g.MatMul(h, w), b))
	}
	out := g.Variable("softmax/kernel", rng.RandN(0.15, mlpWidth, mlpClasses))
	g.SoftmaxCE(g.MatMul(h, out), labels)
	return g
}

// mlpLabelNoise is the share of labels redrawn at random. data.Images
// is separable, so without it the loss falls to within rounding of zero
// and a relative bound on loss_final would measure nothing.
const mlpLabelNoise = 0.2

func mlpFeeds(seed int64) feedFunc {
	ds := data.NewImages(mlpBatch, mlpFeatures, mlpClasses, dataSeed(seed))
	noise := tensor.NewRNG(dataSeed(seed) + 1)
	return func(int, int) (parallax.Feed, error) {
		x, y := ds.Next()
		for i := range y {
			if noise.Float64() < mlpLabelNoise {
				y[i] = noise.Intn(mlpClasses)
			}
		}
		return parallax.Feed{
			Floats: map[string]*parallax.Dense{"images": x},
			Ints:   map[string][]int{"labels": y},
		}, nil
	}
}
