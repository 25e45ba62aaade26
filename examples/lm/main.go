// LM example: sparse-model training plus a look at why the hybrid
// architecture wins.
//
// The real-data-plane part trains a language model with a partitioned
// embedding on in-process workers. The what-if part then asks the
// discrete-event engine how the same model's paper-scale counterpart
// (800K-word vocabulary, 813M sparse elements) would behave on the
// paper's 48-GPU cluster under each architecture — the Table 1 / Table 4
// story in one program.
package main

import (
	"context"
	"fmt"
	"log"

	"parallax"
	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/data"
	"parallax/internal/engine"
	"parallax/internal/metrics"
	"parallax/internal/models"
)

func main() {
	const (
		vocab  = 3000
		dim    = 32
		hidden = 64
		batch  = 32
	)
	rng := parallax.NewRNG(23)

	g := parallax.NewGraph()
	tokens := g.Input("tokens", parallax.Int, batch)
	labels := g.Input("labels", parallax.Int, batch)
	var emb *parallax.Node
	g.InPartitioner(func() {
		emb = g.Variable("embedding", rng.RandN(0.1, vocab, dim))
	})
	w1 := g.Variable("lstm/kernel", rng.RandN(0.1, dim, hidden))
	b1 := g.Variable("lstm/bias", parallax.NewDense(hidden))
	w2 := g.Variable("softmax/kernel", rng.RandN(0.1, hidden, vocab))
	h := g.Tanh(g.AddBias(g.MatMul(g.Gather(emb, tokens), w1), b1))
	g.SoftmaxCE(g.MatMul(h, w2), labels)

	ctx := context.Background()
	sess, err := parallax.Open(ctx, g, parallax.Uniform(2, 2),
		parallax.WithOptimizer(func() parallax.Optimizer { return parallax.NewSGD(0.5) }))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	fmt.Print(sess.Describe())
	fmt.Println()

	// One endless stream, consumed as disjoint per-worker shards.
	for st, err := range sess.Steps(ctx, data.NewZipfText(vocab, batch, 1, 1.0, 31)) {
		if err != nil {
			log.Fatal(err)
		}
		if st.Step%10 == 0 || st.Step == 49 {
			fmt.Printf("step %2d  loss %.4f\n", st.Step, st.Loss)
		}
		if st.Step == 49 {
			break
		}
	}
	// Nothing fixed the sparse partition count, so the first steps of
	// the loop searched for it on the live runtime.
	fmt.Print(sess.PartitionDecision())

	// What-if: the paper-scale LM on the paper's cluster, per architecture.
	fmt.Println("\npaper-scale LM on the simulated 8x6 cluster:")
	hw := cluster.DefaultHardware()
	for _, arch := range []core.Arch{core.ArchAR, core.ArchNaivePS, core.ArchOptPS, core.ArchHybrid} {
		res, err := engine.RunArch(models.LM(), arch, 8, 6, 128, hw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s %8s words/s  (%.0f ms/step, %s per machine)\n",
			arch, metrics.Humanize(res.Throughput), res.StepTime*1000,
			metrics.HumanBytes(res.AvgMachineBytes()))
	}
}
