package psrt

// Unit tests for the resharding surface: SnapshotPart's value/slot
// export and ReshardVar's install semantics (version seeding, optimizer
// slot migration, old-key cleanup).

import (
	"math"
	"testing"

	"parallax/internal/optim"
	"parallax/internal/tensor"
)

// momentumServer builds a sync server with one source and a momentum
// optimizer, hosting "emb" split into parts partitions.
func momentumServer(t *testing.T, rows, width, parts int) (*Server, *tensor.Dense, []tensor.RowRange) {
	t.Helper()
	srv, err := NewServer(Config{
		Sources:     1,
		Optimizer:   optim.NewMomentum(0.5, 0.9),
		MeanDivisor: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	init := tensor.NewRNG(7).RandN(0.2, rows, width)
	ranges := tensor.PartitionRows(rows, parts)
	owned := make([]int, parts)
	for i := range owned {
		owned[i] = i
	}
	if err := srv.AddVar("emb", init, ranges, owned, true); err != nil {
		t.Fatal(err)
	}
	return srv, init, ranges
}

// pushAll pushes one full sparse gradient (every row touched) split by
// the current ranges, applying one update per partition.
func pushAll(t *testing.T, srv *Server, ranges []tensor.RowRange, rows, width int, seed int64) {
	t.Helper()
	grad := &tensor.Sparse{Rows: make([]int, rows), Values: tensor.NewRNG(seed).RandN(1, rows, width), Dim0: rows}
	for i := range grad.Rows {
		grad.Rows[i] = i
	}
	for pi, part := range tensor.SplitSparse(grad, ranges) {
		if err := pushSparse(srv, "emb", pi, part); err != nil {
			t.Fatal(err)
		}
	}
}

// fullValue assembles the variable from the server's partitions.
func fullValue(t *testing.T, srv *Server, ranges []tensor.RowRange, rows, width int, minVersion int64) *tensor.Dense {
	t.Helper()
	out := tensor.NewDense(rows, width)
	var reqs []PullReq
	for pi, rr := range ranges {
		if rr.Len() > 0 {
			reqs = append(reqs, PullReq{Name: "emb", Part: pi, Dst: out.SliceRows(rr.Start, rr.End)})
		}
	}
	if err := srv.PullManyInto(minVersion, reqs); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotAndReshardRoundTrip pushes two updates (building momentum
// velocity), reshards 3→5 through the snapshot/reshard pair, and checks
// that values, velocity rows, and versions all moved losslessly: a third
// update after the reshard must produce the same variable a never-
// resharded server produces.
func TestSnapshotAndReshardRoundTrip(t *testing.T) {
	const rows, width = 20, 4

	// Reference: 5 partitions from the start, three updates.
	refSrv, _, refRanges := momentumServer(t, rows, width, 5)
	for u := 0; u < 3; u++ {
		pushAll(t, refSrv, refRanges, rows, width, int64(u))
	}
	want := fullValue(t, refSrv, refRanges, rows, width, 3)

	// Resharded: 3 partitions for two updates, then migrate to 5.
	srv, _, ranges := momentumServer(t, rows, width, 3)
	for u := 0; u < 2; u++ {
		pushAll(t, srv, ranges, rows, width, int64(u))
	}
	value := tensor.NewDense(rows, width)
	velocity := tensor.NewDense(rows, width)
	for pi, rr := range ranges {
		val, slots, err := srv.SnapshotPart("emb", pi, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(slots) != 1 {
			t.Fatalf("momentum snapshot has %d slots", len(slots))
		}
		copy(value.Data()[rr.Start*width:rr.End*width], val.Data())
		copy(velocity.Data()[rr.Start*width:rr.End*width], slots[0].Data())
	}
	newRanges := tensor.PartitionRows(rows, 5)
	owned := []int{0, 1, 2, 3, 4}
	if err := srv.ReshardVar("emb", value, newRanges, owned, true, []*tensor.Dense{velocity}, 2); err != nil {
		t.Fatal(err)
	}
	for pi := range newRanges {
		v, err := version(srv, "emb", pi)
		if err != nil {
			t.Fatal(err)
		}
		if v != 2 {
			t.Fatalf("partition %d version %d after reshard, want 2", pi, v)
		}
	}
	pushAll(t, srv, newRanges, rows, width, 2)
	got := fullValue(t, srv, newRanges, rows, width, 3)

	for i, x := range want.Data() {
		if math.Float32bits(x) != math.Float32bits(got.Data()[i]) {
			t.Fatalf("value[%d] = %x after reshard, want %x", i,
				math.Float32bits(got.Data()[i]), math.Float32bits(x))
		}
	}
}

// TestReshardValidation covers the error paths: slot-count mismatch,
// and dropping a variable entirely (owned empty) including its slot
// state.
func TestReshardValidation(t *testing.T) {
	const rows, width = 12, 2
	srv, init, ranges := momentumServer(t, rows, width, 3)
	pushAll(t, srv, ranges, rows, width, 1)

	newRanges := tensor.PartitionRows(rows, 2)
	if err := srv.ReshardVar("emb", init, newRanges, []int{0, 1}, true, nil, 1); err == nil {
		t.Fatal("reshard without slot tensors accepted for a stateful optimizer")
	}
	short := tensor.NewDense(rows-1, width)
	if err := srv.ReshardVar("emb", init, newRanges, []int{0, 1}, true, []*tensor.Dense{short}, 1); err == nil {
		t.Fatal("reshard with undersized slot tensor accepted")
	}

	// Drop the variable: the old partitions (and their velocity) go away.
	if err := srv.ReshardVar("emb", init, newRanges, nil, true, nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := version(srv, "emb", 0); err == nil {
		t.Fatal("dropped variable still served")
	}
	mom := srv.cfg.Optimizer.(*optim.Momentum)
	for _, key := range []string{"emb/part0", "emb/part1", "emb/part2"} {
		if mom.SlotValue("velocity", key) != nil {
			t.Fatalf("velocity for %s survived the drop", key)
		}
	}
}

// TestSnapshotStatelessOptimizer: SGD has no slot state, so snapshots
// carry the value only and reshard accepts nil slots.
func TestSnapshotStatelessOptimizer(t *testing.T) {
	srv, err := NewServer(Config{Sources: 1, Optimizer: optim.NewSGD(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	init := tensor.NewDense(6, 2)
	ranges := tensor.PartitionRows(6, 2)
	if err := srv.AddVar("v", init, ranges, []int{0, 1}, false); err != nil {
		t.Fatal(err)
	}
	_, slots, err := srv.SnapshotPart("v", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 0 {
		t.Fatalf("SGD snapshot has %d slots", len(slots))
	}
	if err := srv.ReshardVar("v", init, tensor.PartitionRows(6, 3), []int{0, 1, 2}, false, nil, 0); err != nil {
		t.Fatal(err)
	}
}
