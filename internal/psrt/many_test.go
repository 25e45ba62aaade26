package psrt

import (
	"sync"
	"testing"

	"parallax/internal/optim"
	"parallax/internal/tensor"
)

func TestPushSparseManyAggregates(t *testing.T) {
	srv, err := NewServer(Config{
		Sources:     2,
		Optimizer:   optim.NewSGD(1),
		MeanDivisor: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranges := tensor.PartitionRows(6, 2)
	init := tensor.NewDense(6, 2)
	if err := srv.AddVar("e", init, ranges, []int{0, 1}, true); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		// Row 1 lands in partition 0, row 4 in partition 1 (local row 1).
		vals := tensor.NewDense(1, 2)
		vals.Fill(1)
		reqs := []SparsePush{
			{Name: "e", Part: 0, Grad: tensor.NewSparse([]int{1}, vals.Clone(), 3)},
			{Name: "e", Part: 1, Grad: tensor.NewSparse([]int{1}, vals.Clone(), 3)},
		}
		if err := srv.PushSparseMany(reqs); err != nil {
			t.Fatal(err)
		}
	}
	got, err := pull(srv, "e", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// SGD lr=1, sum aggregation over 2 workers pushing 1s: value = -2.
	if got.At(1, 0) != -2 {
		t.Fatalf("partition 0 row 1 = %v, want -2", got.At(1, 0))
	}
}

// PullManyInto honors the versioned blocking: a reader waiting for
// version 1 is released by the update that completes when the last
// source pushes.
func TestPullManyIntoBlocksUntilVersion(t *testing.T) {
	srv, err := NewServer(Config{Sources: 1, Optimizer: optim.NewSGD(0.1), MeanDivisor: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranges := tensor.PartitionRows(4, 2)
	if err := srv.AddVar("v", tensor.NewDense(4, 1), ranges, []int{0, 1}, false); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dst := tensor.NewDense(4, 1)
		if err := srv.PullManyInto(1, []PullReq{
			{Name: "v", Part: 0, Dst: dst.SliceRows(0, 2)},
			{Name: "v", Part: 1, Dst: dst.SliceRows(2, 4)},
		}); err != nil {
			t.Error(err)
		}
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("PullManyInto returned before any update")
	default:
	}
	g := tensor.NewDense(4, 1)
	g.Fill(1)
	if err := srv.PushDenseMany([]DensePush{
		{Name: "v", Part: 0, Grad: g.SliceRows(0, 2)},
		{Name: "v", Part: 1, Grad: g.SliceRows(2, 4)},
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestPushManyUnknownVariableFails(t *testing.T) {
	srv, _ := NewServer(Config{Sources: 1, Optimizer: optim.NewSGD(0.1)})
	if err := srv.PushDenseMany([]DensePush{{Name: "nope", Part: 0, Grad: tensor.NewDense(1, 1)}}); err == nil {
		t.Fatal("push to unknown variable must fail")
	}
	if err := srv.PullManyInto(0, []PullReq{{Name: "nope", Part: 0, Dst: tensor.NewDense(1, 1)}}); err == nil {
		t.Fatal("pull of unknown variable must fail")
	}
}
