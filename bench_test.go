package parallax

// Dev microbenchmarks of the functional data plane: one synchronous
// training step through the public Session, fused and unfused. CI runs
// each once as a does-it-still-run check; performance claims are made
// with the repo benchmark (bench/README.md). The paper tables are
// printed by cmd/parallax-bench and pinned by internal/experiments'
// golden tests, and the engine's own benchmark lives in internal/engine.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"parallax/internal/data"
)

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
	stepFeeds(b, runner, feeds)
}

// stepFeeds times b.N steps of s driven through StepsFeeds, every step
// feeding each worker the same batch, and reports the phase breakdown
// the steps yielded: compute_ns/op is graph execution, comm_ns/op the
// synchronization busy time per step — the "collective invocations'
// worth of latency" fusion removes — and syncwait_ns/op the part of it
// not hidden under backward compute.
func stepFeeds(b *testing.B, s *Session, feeds []Feed) {
	b.Helper()
	var compute, comm, wait time.Duration
	steps := 0
	b.ResetTimer()
	for st, err := range s.StepsFeeds(context.Background(), func(_, w int) (Feed, error) { return feeds[w], nil }) {
		if err != nil {
			b.Fatal(err)
		}
		compute += st.ComputeTime
		comm += st.CommTime
		wait += st.SyncWait
		if steps++; steps == b.N {
			break
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(compute.Nanoseconds())/float64(b.N), "compute_ns/op")
	b.ReportMetric(float64(comm.Nanoseconds())/float64(b.N), "comm_ns/op")
	b.ReportMetric(float64(wait.Nanoseconds())/float64(b.N), "syncwait_ns/op")
}

// BenchmarkTrainerStep measures one synchronous step of the functional
// data plane on a hybrid LM-style workload: a partitioned sparse embedding
// synchronized through parameter servers with local aggregation, plus
// dense hidden/softmax layers synchronized through fused ring AllReduce,
// on a 2-machine × 2-GPU cluster. ns/op and allocs/op here are the
// persistent-runtime regression guard (see CHANGES.md for the
// before/after record).
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
	stepFeeds(b, runner, feeds)
}

// BenchmarkTrainerStepFusedManySmallDense measures the schedule where
// fusion matters most: a deep MLP with dozens of small dense variables,
// which a per-variable schedule would synchronize with one full
// collective latency per tensor and the fused schedule runs as a single
// bucket (BenchmarkAllReduceManySmallTensors in internal/collective
// measures the two schedules side by side).
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
	benchTrainerSteps(b, build(), vocab, batch, WithArch(AllReduceOnly))
}
