// Quickstart: the smallest end-to-end Parallax program.
//
// It builds a single-GPU graph with one sparse embedding and one dense
// projection, lets Parallax transform it for a 2-machine × 2-GPU cluster,
// and trains for a few synchronous steps. Note what the code does NOT
// contain: no server/worker processes, no AllReduce calls, no pull/push —
// the transformation inserts all of that from the variables' gradient
// types (the paper's transparency claim, §4.1).
package main

import (
	"context"
	"fmt"
	"log"

	"parallax"
	"parallax/internal/data"
)

func main() {
	const (
		vocab = 1000
		dim   = 24
		batch = 16
	)
	rng := parallax.NewRNG(1)

	// 1. A single-GPU computation graph (Fig. 3 lines 4-17).
	g := parallax.NewGraph()
	tokens := g.Input("tokens", parallax.Int, batch)
	labels := g.Input("labels", parallax.Int, batch)
	var emb *parallax.Node
	g.InPartitioner(func() { // partitioner scope marks partition targets
		emb = g.Variable("embedding", rng.RandN(0.1, vocab, dim))
	})
	proj := g.Variable("proj", rng.RandN(0.1, dim, vocab))
	g.SoftmaxCE(g.MatMul(g.Gather(emb, tokens), proj), labels)

	// 2. Open a session for the cluster (Fig. 3 lines 19-22). Open starts
	// the persistent runtime (worker goroutines + parameter servers);
	// Close stops it. Options refine the default configuration.
	ctx := context.Background()
	sess, err := parallax.Open(ctx, g, parallax.Uniform(2, 2))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	fmt.Print(sess.Describe())

	// 3. Train (Fig. 3 lines 24-25): Steps shards the stream across the
	// workers and streams one StepStats per synchronous step. The
	// iterator is endless — break (or cancel ctx) when done. A
	// sess.Save(dir) call here would checkpoint the job for a
	// bit-identical resume via parallax.OpenFromCheckpoint.
	var stats parallax.LoopStats
	for st, err := range sess.Steps(ctx, data.NewZipfText(vocab, batch, 1, 1.0, 9)) {
		if err != nil {
			log.Fatal(err)
		}
		stats.Observe(st)
		if st.Step%10 == 0 {
			fmt.Printf("step %2d  loss %.4f\n", st.Step, st.Loss)
		}
		if st.Step == 29 {
			break
		}
	}
	fmt.Println(stats)
	// Nothing fixed the sparse partition count, so the first steps of
	// the loop searched for it on the live runtime.
	fmt.Print(sess.PartitionDecision())
}
