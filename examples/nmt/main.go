// NMT example: the paper's Figure 3 program, in Go.
//
// A translation-style model with encoder and decoder embeddings declared
// inside one partitioner scope (both get the same partition count), a
// dense recurrent stack, and a softmax over the destination vocabulary.
// Parallax routes the two embeddings through partitioned parameter servers
// and everything else through AllReduce, with global-norm clipping via the
// chief-worker read-back path.
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
		srcVocab = 1200
		dstVocab = 900
		dim      = 24
		hidden   = 48
		batch    = 16
	)
	rng := parallax.NewRNG(5)

	g := parallax.NewGraph()
	enTexts := g.Input("en_texts", parallax.Int, batch)
	deTexts := g.Input("de_texts", parallax.Int, batch)
	labels := g.Input("labels", parallax.Int, batch)

	var embEnc, embDec *parallax.Node
	g.InPartitioner(func() { // Fig. 3 line 9: `with parallax.partitioner():`
		embEnc = g.Variable("emb_enc", rng.RandN(0.1, srcVocab, dim))
		embDec = g.Variable("emb_dec", rng.RandN(0.1, dstVocab, dim))
	})
	w1 := g.Variable("rnn/kernel", rng.RandN(0.1, 2*dim, hidden))
	b1 := g.Variable("rnn/bias", parallax.NewDense(hidden))
	w2 := g.Variable("softmax/kernel", rng.RandN(0.1, hidden, dstVocab))

	h := g.ConcatCols(g.Gather(embEnc, enTexts), g.Gather(embDec, deTexts))
	h = g.Relu(g.AddBias(g.MatMul(h, w1), b1))
	g.SoftmaxCE(g.MatMul(h, w2), labels)

	// Nothing fixes the partition count, so the first steps of the loop
	// search for it on the live runtime (§3.2); both embeddings share the
	// scope and get the same count.
	ctx := context.Background()
	sess, err := parallax.Open(ctx, g, parallax.Uniform(2, 2),
		parallax.WithOptimizer(func() parallax.Optimizer { return parallax.NewSGD(0.3) }),
		parallax.WithClipNorm(5.0))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	fmt.Print(sess.Describe())
	fmt.Println()

	// The graph's inputs are not the token-model pair Steps feeds, so the
	// loop supplies each worker's feed itself from per-worker shards (the
	// paper's parallax.shard, Fig. 3 line 6).
	srcShards := make([]parallax.Dataset, sess.Workers())
	dstShards := make([]parallax.Dataset, sess.Workers())
	for w := range srcShards {
		srcShards[w] = parallax.Shard(data.NewZipfText(srcVocab, batch, 1, 1.0, 11), w, sess.Workers())
		dstShards[w] = parallax.Shard(data.NewZipfText(dstVocab, batch, 1, 1.0, 12), w, sess.Workers())
	}
	next := func(step, w int) (parallax.Feed, error) {
		src, dst := srcShards[w].Next(), dstShards[w].Next()
		return parallax.Feed{Ints: map[string][]int{
			"en_texts": src.Tokens, "de_texts": dst.Tokens, "labels": dst.Labels,
		}}, nil
	}
	for st, err := range sess.StepsFeeds(ctx, next) {
		if err != nil {
			log.Fatal(err)
		}
		if st.Step%10 == 0 || st.Step == 39 {
			fmt.Printf("step %2d  loss %.4f\n", st.Step, st.Loss)
		}
		if st.Step == 39 {
			break
		}
	}
	fmt.Print(sess.PartitionDecision())
}
