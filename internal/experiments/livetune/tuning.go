// Package livetune holds the experiment scenarios that run on the LIVE
// data plane (real tensors, the public Session) rather than the
// discrete-event simulator the rest of internal/experiments uses. It is
// a separate package because it imports the root parallax package,
// which the simulator-backed experiments must not (the root benchmark
// harness imports them back).
package livetune

import (
	"context"
	"fmt"

	"parallax"
	"parallax/internal/data"
	"parallax/internal/metrics"
)

// TuningConfig sizes the online-tuning comparison: a Zipf-distributed
// LM workload trained on the live data plane (not the simulator).
type TuningConfig struct {
	Machines, GPUs int
	Vocab, Batch   int
	// Steps is the total training budget per run; the tuned run spends
	// its leading steps on the §3.2 measurement probes.
	Steps int
	// WarmupSteps are excluded from the steady-state throughput window
	// (for the tuned run this also covers the tuning phase itself).
	WarmupSteps int
}

// DefaultTuningConfig keeps the comparison under a second on a laptop.
func DefaultTuningConfig() TuningConfig {
	return TuningConfig{Machines: 2, GPUs: 2, Vocab: 1500, Batch: 32, Steps: 60, WarmupSteps: 20}
}

// TuningResult compares a statically partitioned run (P = machine
// count, the no-knowledge default) against WithAutoPartition's
// tune-while-training search on the same workload.
type TuningResult struct {
	StaticP, TunedP int
	// Runs is the measurement budget the online search consumed (≤ 5).
	Runs int
	// StaticStepsPerSec / TunedStepsPerSec are steady-state throughputs
	// over the post-warmup window.
	StaticStepsPerSec, TunedStepsPerSec float64
	// StaticTotal / TunedTotal are whole-run wall-clock aggregates, so
	// the tuning phase's cost is visible next to its payoff.
	StaticTotal, TunedTotal metrics.LoopStats
	// FinalLossStatic / FinalLossTuned must agree closely: resharding is
	// lossless, so tuning changes when steps happen, not what they
	// compute.
	FinalLossStatic, FinalLossTuned float64
}

// buildTuningLM is the Zipf LM workload: a partitioned embedding feeding
// a dense stack, the hybrid shape the partition search exists for.
func buildTuningLM(cfg TuningConfig) *parallax.Graph {
	rng := parallax.NewRNG(29)
	g := parallax.NewGraph()
	tokens := g.Input("tokens", parallax.Int, cfg.Batch)
	labels := g.Input("labels", parallax.Int, cfg.Batch)
	var emb *parallax.Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, cfg.Vocab, 32))
	})
	w1 := g.Variable("hidden/kernel", rng.RandN(0.1, 32, 64))
	b1 := g.Variable("hidden/bias", parallax.NewDense(64))
	w2 := g.Variable("softmax/kernel", rng.RandN(0.1, 64, cfg.Vocab))
	h := g.Tanh(g.AddBias(g.MatMul(g.Gather(emb, tokens), w1), b1))
	g.SoftmaxCE(g.MatMul(h, w2), labels)
	return g
}

// runTuningCase trains one configuration and returns its aggregate plus
// the steady-state throughput over the post-warmup window.
func runTuningCase(tc TuningConfig, opts ...parallax.Option) (*parallax.Session, metrics.LoopStats, float64, error) {
	ctx := context.Background()
	opts = append(opts, parallax.WithOptimizer(func() parallax.Optimizer { return parallax.NewSGD(0.5) }))
	sess, err := parallax.Open(ctx, buildTuningLM(tc), parallax.Uniform(tc.Machines, tc.GPUs), opts...)
	if err != nil {
		return nil, metrics.LoopStats{}, 0, err
	}
	var total, steady metrics.LoopStats
	for st, err := range sess.Steps(ctx, data.NewZipfText(tc.Vocab, tc.Batch, 1, 1.0, 37)) {
		if err != nil {
			sess.Close()
			return nil, metrics.LoopStats{}, 0, err
		}
		total.Observe(st)
		if st.Step >= tc.WarmupSteps {
			steady.Observe(st)
		}
		if total.Steps == tc.Steps {
			break
		}
	}
	return sess, total, steady.StepsPerSec(), nil
}

// OnlinePartitionTuning is the tune-while-training scenario: the same
// Zipf LM trained twice on the real data plane — once with the static
// default partitioning (one partition per machine), once with
// WithAutoPartition resharding the live job to the searched optimum
// — and the steady-state throughputs compared. It is the live-runtime
// counterpart of the §6.5 search-efficiency experiment: the tuned run
// pays ≤ 5 measurement runs up front and then trains at the fitted
// cost model's optimum.
func OnlinePartitionTuning(tc TuningConfig) (TuningResult, *metrics.Table, error) {
	var res TuningResult

	staticRunner, staticTotal, staticSteady, err := runTuningCase(tc, parallax.WithSparsePartitions(tc.Machines))
	if err != nil {
		return res, nil, fmt.Errorf("static run: %w", err)
	}
	defer staticRunner.Close()

	tunedRunner, tunedTotal, tunedSteady, err := runTuningCase(tc, parallax.WithAutoPartition())
	if err != nil {
		return res, nil, fmt.Errorf("tuned run: %w", err)
	}
	defer tunedRunner.Close()

	decision := tunedRunner.PartitionDecision()
	res = TuningResult{
		StaticP:           staticRunner.SparsePartitions(),
		TunedP:            decision.P,
		StaticStepsPerSec: staticSteady,
		TunedStepsPerSec:  tunedSteady,
		StaticTotal:       staticTotal,
		TunedTotal:        tunedTotal,
		FinalLossStatic:   staticTotal.LastLoss,
		FinalLossTuned:    tunedTotal.LastLoss,
	}
	if decision.Search != nil {
		res.Runs = decision.Search.Runs
	}

	tbl := metrics.NewTable(
		fmt.Sprintf("online partition tuning — Zipf LM, %d×%d live cluster", tc.Machines, tc.GPUs),
		"run", "partitions", "search runs", "steady steps/s", "final loss")
	tbl.AddRow("static default", fmt.Sprintf("%d", res.StaticP), "0",
		fmt.Sprintf("%.1f", res.StaticStepsPerSec), fmt.Sprintf("%.4f", res.FinalLossStatic))
	tbl.AddRow("auto-tuned", fmt.Sprintf("%d", res.TunedP), fmt.Sprintf("%d", res.Runs),
		fmt.Sprintf("%.1f", res.TunedStepsPerSec), fmt.Sprintf("%.4f", res.FinalLossTuned))
	tbl.AddNote("steady-state window: steps %d..%d; the tuned run's warmup includes the ≤5 measurement probes (§6.5)",
		tc.WarmupSteps, tc.Steps-1)
	tbl.AddNote("resharding is lossless, so both runs' loss trajectories depend only on the step count")
	return res, tbl, nil
}
