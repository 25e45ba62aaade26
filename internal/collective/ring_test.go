package collective

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"parallax/internal/optim"
	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// RunWorld spawns fn for every rank of a fresh world on its own goroutine
// and waits for all to finish.
func RunWorld(size int, fn func(c *Comm)) {
	w := NewWorld(size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
}

func TestRingAllReduceSums(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		n := n
		const elems = 23 // deliberately not divisible by world sizes
		results := make([]*tensor.Dense, n)
		RunWorld(n, func(c *Comm) {
			d := tensor.NewDense(elems)
			for i := 0; i < elems; i++ {
				d.Data()[i] = float32(c.Rank()*100 + i)
			}
			AllReduceTagged(c, TagsFor("t"), d)
			results[c.Rank()] = d
		})
		for i := 0; i < elems; i++ {
			var want float32
			for r := 0; r < n; r++ {
				want += float32(r*100 + i)
			}
			for r := 0; r < n; r++ {
				if got := results[r].Data()[i]; math.Abs(float64(got-want)) > 1e-3 {
					t.Fatalf("n=%d rank %d elem %d = %v, want %v", n, r, i, got, want)
				}
			}
		}
	}
}

// TestAllReduceMeanMatchesSequential: the dense-bucket synchronization
// the trainer runs (tagged all-reduce, then mean finalization) leaves
// every rank holding the sequentially computed mean — and the exact
// CodecF32 instance of the ring leaves, before finalization, the very
// bits of a serial fold over the ranks in order 0..N−1.
func TestAllReduceMeanMatchesSequential(t *testing.T) {
	const n = 3
	grads := make([]*tensor.Dense, n)
	for i := range grads {
		grads[i] = tensor.NewRNG(int64(i)).RandN(1, 10)
	}
	sum := grads[0].Clone()
	for _, g := range grads[1:] {
		sum.AddInto(g)
	}
	want := sum.Clone()
	want.Scale(1.0 / n)
	sums := make([]*tensor.Dense, n)
	outs := make([]*tensor.Dense, n)
	RunWorld(n, func(c *Comm) {
		g := grads[c.Rank()].Clone()
		AllReduceCodecTagged(c, TagsFor("g"), g, transport.CodecF32)
		sums[c.Rank()] = g.Clone()
		optim.FinalizeDense(g, c.Size())
		outs[c.Rank()] = g
	})
	for r := range outs {
		for i, v := range sums[r].Data() {
			if math.Float32bits(v) != math.Float32bits(sum.Data()[i]) {
				t.Fatalf("rank %d elem %d: ring sum %v, serial fold %v", r, i, v, sum.Data()[i])
			}
		}
		if outs[r].MaxAbsDiff(want) > 1e-5 {
			t.Fatalf("rank %d mean-aggregated grad wrong by %v", r, outs[r].MaxAbsDiff(want))
		}
	}
}

// TestReplicasStayIdenticalOverSteps is the AR-architecture invariant
// (§2.1: "all workers always have the same variable values"): replicas
// initialized differently, synchronized by a root broadcast and then
// trained on per-rank gradients through all-reduce + mean, never
// diverge.
func TestReplicasStayIdenticalOverSteps(t *testing.T) {
	const n = 4
	finals := make([]*tensor.Dense, n)
	RunWorld(n, func(c *Comm) {
		v := tensor.NewRNG(int64(100+c.Rank())).RandN(1, 6) // different init per rank
		Broadcast(c, "init/v", v, 0)
		opt := optim.NewSGD(0.1)
		tags := TagsFor("v")
		for step := 0; step < 5; step++ {
			g := tensor.NewRNG(int64(step*10+c.Rank())).RandN(1, 6)
			AllReduceTagged(c, tags, g)
			optim.FinalizeDense(g, c.Size())
			opt.ApplyDense("v", v, g)
		}
		finals[c.Rank()] = v
	})
	for rank := 1; rank < n; rank++ {
		if d := finals[rank].MaxAbsDiff(finals[0]); d != 0 {
			t.Fatalf("replica %d diverged by %v", rank, d)
		}
	}
}

func TestRingAllReduceTinyTensor(t *testing.T) {
	// Fewer elements than ranks: some chunks are empty.
	const n = 6
	results := make([]*tensor.Dense, n)
	RunWorld(n, func(c *Comm) {
		d := tensor.FromSlice([]float32{float32(c.Rank()), 1}, 2)
		AllReduceTagged(c, TagsFor("t"), d)
		results[c.Rank()] = d
	})
	want0 := float32(0 + 1 + 2 + 3 + 4 + 5)
	for r := 0; r < n; r++ {
		if results[r].Data()[0] != want0 || results[r].Data()[1] != n {
			t.Fatalf("rank %d got %v", r, results[r].Data())
		}
	}
}

func TestAllGathervConcatsInRankOrder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		results := make([]*tensor.Sparse, n)
		RunWorld(n, func(c *Comm) {
			rows := []int{c.Rank(), c.Rank()}
			vals := tensor.NewDense(2, 3)
			vals.Fill(float32(c.Rank() + 1))
			s := tensor.NewSparse(rows, vals, n+1)
			results[c.Rank()] = AllGathervTagged(c, "g", s)
		})
		for r := 0; r < n; r++ {
			got := results[r]
			if got.NNZRows() != 2*n {
				t.Fatalf("n=%d rank %d nnz = %d, want %d", n, r, got.NNZRows(), 2*n)
			}
			for origin := 0; origin < n; origin++ {
				if got.Rows[2*origin] != origin {
					t.Fatalf("n=%d rank %d block %d has row %d (not rank order)", n, r, origin, got.Rows[2*origin])
				}
				if got.Values.At(2*origin, 0) != float32(origin+1) {
					t.Fatalf("block %d values wrong", origin)
				}
			}
		}
	}
}

func TestAllGathervAllRanksAgree(t *testing.T) {
	const n = 4
	results := make([]*tensor.Sparse, n)
	RunWorld(n, func(c *Comm) {
		g := tensor.NewRNG(int64(c.Rank()))
		k := 1 + c.Rank()
		rows := make([]int, k)
		for i := range rows {
			rows[i] = g.Intn(10)
		}
		results[c.Rank()] = AllGathervTagged(c, "g", tensor.NewSparse(rows, g.RandN(1, k, 2), 10))
	})
	ref := results[0].ToDense()
	for r := 1; r < n; r++ {
		if results[r].ToDense().MaxAbsDiff(ref) > 1e-6 {
			t.Fatalf("rank %d gathered different effective gradient", r)
		}
	}
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	const n = 5
	for root := 0; root < n; root++ {
		results := make([]*tensor.Dense, n)
		RunWorld(n, func(c *Comm) {
			d := tensor.NewDense(7)
			if c.Rank() == root {
				for i := range d.Data() {
					d.Data()[i] = float32(100*root + i)
				}
			}
			Broadcast(c, "b", d, root)
			results[c.Rank()] = d
		})
		for r := 0; r < n; r++ {
			for i := 0; i < 7; i++ {
				if results[r].Data()[i] != float32(100*root+i) {
					t.Fatalf("root=%d rank=%d elem %d = %v", root, r, i, results[r].Data()[i])
				}
			}
		}
	}
}

// TestAllGatherScalarsRankOrder: the scalar gather every session-level
// agreement and the loss fold ride on delivers rank r's value at out[r]
// on every rank, so any fold over it is identical everywhere.
func TestAllGatherScalarsRankOrder(t *testing.T) {
	const n = 6
	outs := make([][]float64, n)
	RunWorld(n, func(c *Comm) {
		out := make([]float64, n)
		AllGatherScalarsInto(c, "g", float64(10*c.Rank()+1), out)
		outs[c.Rank()] = out
	})
	for r, out := range outs {
		for p, v := range out {
			if v != float64(10*p+1) {
				t.Fatalf("rank %d out[%d] = %v, want %v", r, p, v, 10*p+1)
			}
		}
	}
}

func TestRecvTagMismatchPanics(t *testing.T) {
	w := NewWorld(2)
	done := make(chan bool)
	go func() {
		defer func() { done <- recover() != nil }()
		w.Comm(0).SendScalar(1, "a", 0)
		w.Comm(1).RecvScalar(0, "b")
	}()
	if !<-done {
		t.Fatal("expected panic on tag mismatch")
	}
}

// The property transform's tensor fusion relies on: all-reducing one
// fused flat buffer is BIT-identical to all-reducing each variable's
// region separately, for any world size and any split. The rank-ordered
// reduce-scatter guarantees every element folds in rank order 0..n-1
// regardless of which chunk it lands in, so the fused layout cannot
// change float32 results.
func TestAllReduceFusedBitIdenticalToSplit(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		for _, sizes := range [][]int{
			{1, 1, 1},
			{5, 3},
			{7, 1, 12, 2},
			{23},
			{2, 2, 2, 2, 2, 2, 2, 2},
		} {
			total := 0
			for _, s := range sizes {
				total += s
			}
			rngInput := func(rank int) *tensor.Dense {
				return tensor.NewRNG(int64(rank*1000+total)).RandN(1, total)
			}
			fused := make([]*tensor.Dense, n)
			split := make([]*tensor.Dense, n)
			RunWorld(n, func(c *Comm) {
				d := rngInput(c.Rank())
				AllReduceTagged(c, TagsFor("fused"), d)
				fused[c.Rank()] = d
			})
			RunWorld(n, func(c *Comm) {
				d := rngInput(c.Rank())
				off := 0
				for vi, s := range sizes {
					AllReduceTagged(c, TagsFor(fmt.Sprintf("v%d", vi)), d.SliceRows(off, off+s))
					off += s
				}
				split[c.Rank()] = d
			})
			for r := 0; r < n; r++ {
				for i := 0; i < total; i++ {
					if fused[r].Data()[i] != split[r].Data()[i] {
						t.Fatalf("n=%d sizes=%v rank %d elem %d: fused %v != split %v",
							n, sizes, r, i, fused[r].Data()[i], split[r].Data()[i])
					}
				}
			}
		}
	}
}

// Property: RingAllReduce equals the sequential sum for random sizes and
// world sizes.
func TestRingAllReduceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		n := 1 + g.Intn(6)
		elems := 1 + g.Intn(40)
		inputs := make([]*tensor.Dense, n)
		want := tensor.NewDense(elems)
		for r := range inputs {
			inputs[r] = g.RandN(1, elems)
			want.AddInto(inputs[r])
		}
		results := make([]*tensor.Dense, n)
		RunWorld(n, func(c *Comm) {
			d := inputs[c.Rank()].Clone()
			AllReduceTagged(c, TagsFor("p"), d)
			results[c.Rank()] = d
		})
		for r := 0; r < n; r++ {
			if results[r].MaxAbsDiff(want) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
