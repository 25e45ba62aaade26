package parallax

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6). Each iteration regenerates the experiment on
// the simulated cluster; key measured values are attached as custom
// benchmark metrics so `go test -bench` output doubles as the
// paper-vs-measured record (EXPERIMENTS.md is generated from the same
// code paths via cmd/parallax-bench).

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"parallax/internal/core"
	"parallax/internal/data"
	"parallax/internal/engine"
	"parallax/internal/experiments"
	"parallax/internal/models"
)

func BenchmarkTable1_ArchitectureThroughput(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var res experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table1(env)
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.PS, row.Model+"_PS_units/s")
		b.ReportMetric(row.AR, row.Model+"_AR_units/s")
	}
}

func BenchmarkTable2_PartitionSweep(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var res experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table2(env)
	}
	lm := res.Throughput["LM"]
	b.ReportMetric(lm[0], "LM_P8_words/s")
	b.ReportMetric(lm[4], "LM_P128_words/s")
	b.ReportMetric(lm[5], "LM_P256_words/s")
}

func BenchmarkTable3_NetworkTransfer(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var res experiments.Table3Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table3(env)
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Measured/row.Formula, row.Case+"_measured/formula")
	}
}

func BenchmarkTable4_HybridAblation(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var res experiments.Table4Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table4(env)
	}
	for _, m := range res.Models {
		b.ReportMetric(res.Tp[m]["HYB"]/res.Tp[m]["AR"], m+"_HYB/AR")
		b.ReportMetric(res.Tp[m]["HYB"]/res.Tp[m]["NaivePS"], m+"_HYB/NaivePS")
	}
}

func BenchmarkTable5_PartitioningMethods(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var res experiments.Table5Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table5(env)
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Parallax/row.Min, row.Model+"_Parallax/Min")
		b.ReportMetric(float64(row.ParallaxRuns), row.Model+"_search_runs")
		b.ReportMetric(float64(row.BruteRuns), row.Model+"_brute_runs")
	}
}

func BenchmarkTable6_SparsityDegree(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var res experiments.Table6Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table6(env)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	b.ReportMetric(first.Speedup, "speedup_alpha1.0")
	b.ReportMetric(last.Speedup, "speedup_alpha0.04")
}

func BenchmarkFigure7_Convergence(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var res experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure7(env)
	}
	for _, row := range res.Rows {
		name := strings.NewReplacer(" ", "", "(", "", ")", "").Replace(row.Model)
		b.ReportMetric(row.SpeedupVsTFPS(), name+"_vsTFPS")
		b.ReportMetric(row.SpeedupVsHorovod(), name+"_vsHorovod")
	}
}

func BenchmarkFigure8_Scaling(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var res experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure8(env)
	}
	for _, m := range []string{"ResNet-50", "LM"} {
		s := res.Tp[m]["Parallax"]
		b.ReportMetric(s[3]/s[0], m+"_8m/1m")
	}
}

func BenchmarkFigure9_NormalizedThroughput(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var res experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure9(env)
	}
	for _, m := range []string{"ResNet-50", "Inception-v3", "LM", "NMT"} {
		s := res.Normalized[m]
		b.ReportMetric(s[len(s)-1], m+"_norm48")
	}
}

func BenchmarkAblation_AlphaThreshold(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var rows []experiments.AblationAlphaRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationAlphaThreshold(env)
	}
	b.ReportMetric(rows[0].AsPS/rows[0].AsDense, "lowAlpha_PS/dense")
	last := rows[len(rows)-1]
	b.ReportMetric(last.AsDense/last.AsPS, "highAlpha_dense/PS")
}

func BenchmarkAblation_LocalAggregation(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var rows []experiments.AblationLocalAggRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationLocalAggregation(env)
	}
	for _, r := range rows {
		b.ReportMetric(r.WithLocal/r.Without, r.Model+"_gain")
	}
}

// Micro-benchmarks of the substrate hot paths.

func BenchmarkEngineStep_LMHybrid(b *testing.B) {
	b.ReportAllocs()
	hw := experiments.DefaultEnv().HW
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunArch(models.LM(), core.ArchHybrid, 8, 6, 128, hw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealTrainingStep(b *testing.B) {
	b.ReportAllocs()
	g := buildAPIModel(16, 500)
	runner := openSession(b, g, Uniform(2, 2), WithSparsePartitions(4))
	defer runner.Close()
	ds := data.NewZipfText(500, 16, 1, 1.0, 3)
	feeds := make([]Feed, runner.Workers())
	for w := range feeds {
		batch := ds.Next()
		feeds[w] = Feed{Ints: map[string][]int{"tokens": batch.Tokens, "labels": batch.Labels}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunStep(feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainerStep measures one synchronous step of the functional
// data plane on a hybrid LM-style workload: a partitioned sparse embedding
// synchronized through parameter servers with local aggregation, plus
// dense hidden/softmax layers synchronized through fused ring AllReduce,
// on a 2-machine × 2-GPU cluster. ns/op and allocs/op here are the
// persistent-runtime regression guard (see CHANGES.md for the
// before/after record); BenchmarkTrainerStepUnfused is the same workload
// with per-variable collectives.
func BenchmarkTrainerStep(b *testing.B) {
	benchTrainerSteps(b, buildLMBenchGraph(1000, 32, 32), 1000, 32, WithSparsePartitions(8))
}

// buildLMBenchGraph is the hybrid LM-style workload of
// BenchmarkTrainerStep: a partitioned sparse embedding (PS route) plus
// dense hidden/softmax layers (fused AllReduce routes).
func buildLMBenchGraph(vocab, batch, dim int) *Graph {
	rng := NewRNG(11)
	g := NewGraph()
	tokens := g.Input("tokens", Int, batch)
	labels := g.Input("labels", Int, batch)
	var emb *Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, vocab, dim))
	})
	w1 := g.Variable("hidden/kernel", rng.RandN(0.1, dim, 64))
	b1 := g.Variable("hidden/bias", NewDense(64))
	w2 := g.Variable("softmax/kernel", rng.RandN(0.1, 64, vocab))
	h := g.Tanh(g.AddBias(g.MatMul(g.Gather(emb, tokens), w1), b1))
	g.SoftmaxCE(g.MatMul(h, w2), labels)
	return g
}

func benchTrainerSteps(b *testing.B, g *Graph, vocab, batch int, opts ...Option) {
	b.Helper()
	b.ReportAllocs()
	runner := openSession(b, g, Uniform(2, 2), opts...)
	defer runner.Close()
	ds := data.NewZipfText(vocab, batch, 1, 1.0, 13)
	feeds := make([]Feed, runner.Workers())
	for w := range feeds {
		bt := ds.Next()
		feeds[w] = Feed{Ints: map[string][]int{"tokens": bt.Tokens, "labels": bt.Labels}}
	}
	var comm, wait time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunStep(feeds); err != nil {
			b.Fatal(err)
		}
		ph := runner.PhaseStatsLastStep()
		comm += ph.Comm
		wait += ph.SyncWait
	}
	b.StopTimer()
	// comm_ns/op is the synchronization busy time per step — the
	// "collective invocations' worth of latency" fusion removes;
	// syncwait_ns/op is the part of it not hidden under backward compute.
	b.ReportMetric(float64(comm.Nanoseconds())/float64(b.N), "comm_ns/op")
	b.ReportMetric(float64(wait.Nanoseconds())/float64(b.N), "syncwait_ns/op")
}

// BenchmarkTrainerStepUnfused is BenchmarkTrainerStep with fusion
// disabled (one collective per dense variable): the before/after pair for
// the fused synchronization schedule on the LM hybrid workload.
func BenchmarkTrainerStepUnfused(b *testing.B) {
	benchTrainerSteps(b, buildLMBenchGraph(1000, 32, 32), 1000, 32,
		WithSparsePartitions(8), WithFusionBytes(-1))
}

// BenchmarkTrainerStepFusedManySmallDense measures the schedule where
// fusion matters most: a deep MLP with dozens of small dense variables,
// where the per-variable schedule pays one full collective latency per
// tensor and the fused schedule runs a single bucket. The "unfused"
// sub-benchmark is the per-variable baseline.
func BenchmarkTrainerStepFusedManySmallDense(b *testing.B) {
	const (
		vocab  = 32
		batch  = 4
		dim    = 8
		layers = 64
	)
	build := func() *Graph {
		rng := NewRNG(7)
		g := NewGraph()
		tokens := g.Input("tokens", Int, batch)
		labels := g.Input("labels", Int, batch)
		emb := g.Variable("embedding", rng.RandN(0.1, vocab, dim))
		h := g.Gather(emb, tokens)
		for l := 0; l < layers; l++ {
			w := g.Variable(fmt.Sprintf("layer%02d/kernel", l), rng.RandN(0.1, dim, dim))
			bias := g.Variable(fmt.Sprintf("layer%02d/bias", l), NewDense(dim))
			h = g.Tanh(g.AddBias(g.MatMul(h, w), bias))
		}
		out := g.Variable("softmax/kernel", rng.RandN(0.1, dim, vocab))
		g.SoftmaxCE(g.MatMul(h, out), labels)
		return g
	}
	b.Run("fused", func(b *testing.B) {
		benchTrainerSteps(b, build(), vocab, batch, WithArch(AllReduceOnly))
	})
	b.Run("unfused", func(b *testing.B) {
		benchTrainerSteps(b, build(), vocab, batch, WithArch(AllReduceOnly), WithFusionBytes(-1))
	})
}

func BenchmarkExtension_PrunedDenseModel(b *testing.B) {
	b.ReportAllocs()
	env := experiments.DefaultEnv()
	var rows []experiments.PruningRow
	for i := 0; i < b.N; i++ {
		rows = experiments.ExtensionPruning(env)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.PureAR/last.PurePS, "pruned99_AR/PS")
}
