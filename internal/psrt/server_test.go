package psrt

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"parallax/internal/optim"
	"parallax/internal/tensor"
	"parallax/internal/transport"
)

func fullRange(dim0 int) []tensor.RowRange { return tensor.PartitionRows(dim0, 1) }

// The batch is the only op shape; these push one-element batches.
func pushDense(s *Server, name string, pi int, g *tensor.Dense) error {
	return s.PushDenseMany([]DensePush{{Name: name, Part: pi, Grad: g}})
}

func pushSparse(s *Server, name string, pi int, g *tensor.Sparse) error {
	return s.PushSparseMany([]SparsePush{{Name: name, Part: pi, Grad: g}})
}

// pull reads partition pi whole into a fresh tensor once its version
// reaches minVersion.
func pull(s *Server, name string, pi int, minVersion int64) (*tensor.Dense, error) {
	v, err := s.lookupVar(name)
	if err != nil {
		return nil, err
	}
	dst := tensor.NewDense(v.pullRows(pi, nil), v.width)
	return dst, s.PullManyInto(minVersion, []PullReq{{Name: name, Part: pi, Dst: dst}})
}

// version is partition pi's applied-update count.
func version(s *Server, name string, pi int) (int64, error) {
	_, p, err := s.lookup(name, pi)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version, nil
}

func TestSyncDenseAggregatesMean(t *testing.T) {
	s, err := NewServer(Config{Sources: 2, Optimizer: optim.NewSGD(1)})
	if err != nil {
		t.Fatal(err)
	}
	init := tensor.FromSlice([]float32{10, 10}, 2, 1)
	if err := s.AddVar("w", init, fullRange(2), []int{0}, false); err != nil {
		t.Fatal(err)
	}
	g1 := tensor.FromSlice([]float32{2, 2}, 2, 1)
	g2 := tensor.FromSlice([]float32{4, 4}, 2, 1)
	if err := pushDense(s, "w", 0, g1); err != nil {
		t.Fatal(err)
	}
	if v, _ := version(s, "w", 0); v != 0 {
		t.Fatal("update applied before all pushes")
	}
	if err := pushDense(s, "w", 0, g2); err != nil {
		t.Fatal(err)
	}
	got, err := pull(s, "w", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// mean grad = 3, lr = 1 -> 10 - 3 = 7
	if got.At(0, 0) != 7 {
		t.Fatalf("value = %v, want 7", got.At(0, 0))
	}
}

func TestSyncSparseAggregatesSum(t *testing.T) {
	s, _ := NewServer(Config{Sources: 2, Optimizer: optim.NewSGD(1), MeanDivisor: 1})
	init := tensor.NewDense(4, 1)
	init.Fill(10)
	if err := s.AddVar("emb", init, fullRange(4), []int{0}, true); err != nil {
		t.Fatal(err)
	}
	sp1 := tensor.NewSparse([]int{1}, tensor.FromSlice([]float32{2}, 1, 1), 4)
	sp2 := tensor.NewSparse([]int{1, 3}, tensor.FromSlice([]float32{3, 5}, 2, 1), 4)
	if err := pushSparse(s, "emb", 0, sp1); err != nil {
		t.Fatal(err)
	}
	if err := pushSparse(s, "emb", 0, sp2); err != nil {
		t.Fatal(err)
	}
	got, _ := pull(s, "emb", 0, 1)
	if got.At(1, 0) != 5 || got.At(3, 0) != 5 || got.At(0, 0) != 10 {
		t.Fatalf("value = %v", got.Data())
	}
}

// TestFoldFollowsRankNotArrival: three sources push onto one row, in
// every arrival order, dense and sparse, directly and through the
// serving loop (which ranks a push by its client). In rank order the
// row sums to (1e8 + 1) - 1e8 = 0 in float32, in arrival order [0 2 1]
// to (1e8 - 1e8) + 1 = 1: the server must fold by rank every time.
func TestFoldFollowsRankNotArrival(t *testing.T) {
	byRank := []float32{1e8, 1, -1e8}
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, sparse := range []bool{false, true} {
		for _, served := range []bool{false, true} {
			for _, order := range orders {
				s, err := NewServer(Config{Sources: 3, Optimizer: optim.NewSGD(1), MeanDivisor: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.AddVar("w", tensor.NewDense(1, 1), fullRange(1), []int{0}, sparse); err != nil {
					t.Fatal(err)
				}
				for _, rank := range order {
					g := tensor.FromSlice([]float32{byRank[rank]}, 1, 1)
					var err error
					switch {
					case served && sparse:
						err = errorOf(handle(s, rank, &transport.PSMsg{Op: transport.PSPushSparseMany, Names: []string{"w"}, Parts: []int{0},
							Sparse: []*tensor.Sparse{tensor.NewSparse([]int{0}, g, 1)}}))
					case served:
						err = errorOf(handle(s, rank, &transport.PSMsg{Op: transport.PSPushDenseMany, Names: []string{"w"}, Parts: []int{0},
							Dense: []*tensor.Dense{g}}))
					case sparse:
						err = s.PushSparseMany([]SparsePush{{Name: "w", Part: 0, Rank: rank, Grad: tensor.NewSparse([]int{0}, g, 1)}})
					default:
						err = s.PushDenseMany([]DensePush{{Name: "w", Part: 0, Rank: rank, Grad: g}})
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				got, err := pull(s, "w", 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				// SGD lr 1 from 0: the value is minus the folded sum, 0 in
				// rank order.
				if v := got.At(0, 0); v != 0 {
					t.Errorf("sparse=%v served=%v arrival order %v: value %v, want 0 (the rank-order fold)", sparse, served, order, v)
				}
			}
		}
	}
}

// errorOf is a serving-loop reply's error.
func errorOf(rep *transport.PSMsg) error {
	if rep.Err != "" {
		return errors.New(rep.Err)
	}
	return nil
}

func TestPartitionedVariableAcrossServers(t *testing.T) {
	// Two servers each own one partition of a 4-row variable.
	mk := func() *Server {
		s, _ := NewServer(Config{Sources: 1, Optimizer: optim.NewSGD(1), MeanDivisor: 1})
		return s
	}
	s0, s1 := mk(), mk()
	init := tensor.NewDense(4, 2)
	for i := 0; i < 4; i++ {
		init.Set(float32(i), i, 0)
	}
	ranges := tensor.PartitionRows(4, 2)
	if err := s0.AddVar("emb", init, ranges, []int{0}, true); err != nil {
		t.Fatal(err)
	}
	if err := s1.AddVar("emb", init, ranges, []int{1}, true); err != nil {
		t.Fatal(err)
	}
	// Each server got its slice of the initial value.
	v0, _ := pull(s0, "emb", 0, 0)
	v1, _ := pull(s1, "emb", 1, 0)
	if v0.At(0, 0) != 0 || v0.At(1, 0) != 1 || v1.At(0, 0) != 2 || v1.At(1, 0) != 3 {
		t.Fatalf("sharding wrong: %v %v", v0.Data(), v1.Data())
	}
	// A push to the wrong server errors.
	sp := tensor.NewSparse([]int{0}, tensor.NewDense(1, 2), 2)
	if err := pushSparse(s0, "emb", 1, sp); err == nil {
		t.Fatal("expected error pushing to unowned partition")
	}
}

func TestSyncPullBlocksUntilUpdate(t *testing.T) {
	s, _ := NewServer(Config{Sources: 1, Optimizer: optim.NewSGD(0.5), MeanDivisor: 1})
	init := tensor.FromSlice([]float32{4}, 1, 1)
	if err := s.AddVar("w", init, fullRange(1), []int{0}, false); err != nil {
		t.Fatal(err)
	}
	done := make(chan float32)
	go func() {
		v, err := pull(s, "w", 0, 1) // waits for first update
		if err != nil {
			t.Error(err)
		}
		done <- v.At(0, 0)
	}()
	if err := pushDense(s, "w", 0, tensor.FromSlice([]float32{2}, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != 3 {
		t.Fatalf("pulled %v, want 3", got)
	}
}

func TestDeferUpdatesChiefClippingPath(t *testing.T) {
	s, _ := NewServer(Config{
		Sources: 1, Optimizer: optim.NewSGD(1), MeanDivisor: 1,
		DeferUpdates: true,
	})
	init := tensor.NewDense(2, 1)
	if err := s.AddVar("emb", init, fullRange(2), []int{0}, true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var norm2 float64
	go func() {
		defer wg.Done()
		n, err := s.WaitAggregatedNormSquared("emb", 0, 1)
		if err != nil {
			t.Error(err)
			return
		}
		norm2 = n
		if err := s.ApplyUpdate("emb", 0, 0.5); err != nil {
			t.Error(err)
		}
	}()
	sp := tensor.NewSparse([]int{0}, tensor.FromSlice([]float32{4}, 1, 1), 2)
	if err := pushSparse(s, "emb", 0, sp); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if math.Abs(norm2-16) > 1e-6 {
		t.Fatalf("norm2 = %v, want 16", norm2)
	}
	got, _ := pull(s, "emb", 0, 1)
	if got.At(0, 0) != -2 { // 0 - 1*(4*0.5)
		t.Fatalf("value = %v, want -2", got.At(0, 0))
	}
}

func TestApplyUpdateBeforeAggregationErrors(t *testing.T) {
	s, _ := NewServer(Config{Sources: 1, Optimizer: optim.NewSGD(1), DeferUpdates: true})
	if err := s.AddVar("w", tensor.NewDense(1, 1), fullRange(1), []int{0}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyUpdate("w", 0, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{Sources: 0, Optimizer: optim.NewSGD(1)}); err == nil {
		t.Fatal("server without sources must fail")
	}
	if _, err := NewServer(Config{Sources: 1}); err == nil {
		t.Fatal("nil optimizer must fail")
	}
}

// TestServerAbort: Abort fails every parked and future wait with its
// error (the first one wins), while pushes and resharding keep working
// on the aborted server's state.
func TestServerAbort(t *testing.T) {
	s, err := NewServer(Config{Sources: 1, Optimizer: optim.NewMomentum(1, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddVar("w", tensor.FromSlice([]float32{10}, 1, 1), fullRange(1), []int{0}, false); err != nil {
		t.Fatal(err)
	}
	// Each wait asks for version/aggregation 99, which never arrives.
	waits := map[string]func() error{
		"Pull": func() error { _, err := pull(s, "w", 0, 99); return err },
		"SnapshotPart": func() error {
			_, _, err := s.SnapshotPart("w", 0, 99)
			return err
		},
		"WaitAggregatedNormSquared": func() error {
			_, err := s.WaitAggregatedNormSquared("w", 0, 99)
			return err
		},
	}
	done := map[string]chan error{}
	for name, wait := range waits {
		ch := make(chan error, 1)
		done[name] = ch
		go func() { ch <- wait() }()
	}
	time.Sleep(10 * time.Millisecond) // let the waits park
	boom := errors.New("fabric died")
	s.Abort(boom)
	s.Abort(errors.New("a later failure"))
	for name, wait := range waits {
		select {
		case err := <-done[name]:
			if !errors.Is(err, boom) {
				t.Fatalf("parked %s returned %v, want the first abort error", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("parked %s survived Abort", name)
		}
		if err := wait(); !errors.Is(err, boom) {
			t.Fatalf("%s after Abort returned %v, want the first abort error", name, err)
		}
	}

	if err := pushDense(s, "w", 0, tensor.FromSlice([]float32{2}, 1, 1)); err != nil {
		t.Fatalf("push after Abort: %v", err)
	}
	val, slots, err := s.SnapshotPart("w", 0, 1)
	if err != nil {
		t.Fatalf("satisfied snapshot after Abort: %v", err)
	}
	if val.Data()[0] != 8 {
		t.Fatalf("value = %v after the post-abort push, want 8", val.Data()[0])
	}
	if err := s.ReshardVar("w", val, fullRange(1), []int{0}, false, slots, 1); err != nil {
		t.Fatalf("ReshardVar after Abort: %v", err)
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	s, _ := NewServer(Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	if err := s.AddVar("w", tensor.NewDense(2, 1), fullRange(2), []int{0}, false); err != nil {
		t.Fatal(err)
	}
	sp := tensor.NewSparse([]int{0}, tensor.NewDense(1, 1), 2)
	if err := pushSparse(s, "w", 0, sp); err == nil {
		t.Fatal("sparse push to dense var must fail")
	}
	if err := pushDense(s, "missing", 0, tensor.NewDense(1, 1)); err == nil {
		t.Fatal("unknown var must fail")
	}
	if err := s.AddVar("w", tensor.NewDense(2, 1), fullRange(2), []int{0}, false); err == nil {
		t.Fatal("duplicate var must fail")
	}
}

func TestConcurrentPushersRace(t *testing.T) {
	const sources = 8
	s, _ := NewServer(Config{Sources: sources, Optimizer: optim.NewSGD(1), MeanDivisor: 1})
	init := tensor.NewDense(16, 2)
	if err := s.AddVar("emb", init, fullRange(16), []int{0}, true); err != nil {
		t.Fatal(err)
	}
	const steps = 5
	var wg sync.WaitGroup
	for w := 0; w < sources; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < steps; it++ {
				sp := tensor.NewSparse([]int{w % 16, (w + it) % 16},
					tensor.FromSlice([]float32{1, 1, 1, 1}, 2, 2), 16)
				if err := pushSparse(s, "emb", 0, sp); err != nil {
					t.Error(err)
					return
				}
				if _, err := pull(s, "emb", 0, int64(it+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if v, _ := version(s, "emb", 0); v != steps {
		t.Fatalf("version = %d, want %d", v, steps)
	}
}
