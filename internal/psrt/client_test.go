package psrt

import (
	"strings"
	"testing"

	"parallax/internal/optim"
	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// newWired builds a server hosting one 2-partition dense variable and
// one 2-partition sparse variable, served to a single remote client over
// an in-process conduit pair — the full wire protocol without sockets.
func newWired(t *testing.T, cfg Config) (*Client, *Server, func()) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Worker endpoint 0, server endpoint 1.
	fab := transport.NewInproc(transport.Topology{Workers: 1, Machines: 1, MachineOfWorker: []int{0}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeConduit(srv, fab.Conduit(1), 0)
	}()
	stop := func() { fab.Close(); <-done }
	return NewClient(fab.Conduit(0), 1), srv, stop
}

func denseInit(rows, w int, base float32) *tensor.Dense {
	d := tensor.NewDense(rows, w)
	for i := range d.Data() {
		d.Data()[i] = base + float32(i)
	}
	return d
}

func TestClientPullPushDenseRoundTrip(t *testing.T) {
	client, srv, stop := newWired(t, Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	defer stop()
	ranges := tensor.PartitionRows(4, 2)
	if err := srv.AddVar("w", denseInit(4, 3, 0), ranges, []int{0, 1}, false); err != nil {
		t.Fatal(err)
	}

	// Pull both partitions through the wire into caller-owned views.
	dst := tensor.NewDense(4, 3)
	reqs := []PullReq{
		{Name: "w", Part: 0, Dst: dst.SliceRows(0, 2)},
		{Name: "w", Part: 1, Dst: dst.SliceRows(2, 4)},
	}
	if err := client.PullManyInto(0, reqs); err != nil {
		t.Fatal(err)
	}
	if dst.At(3, 2) != 11 {
		t.Fatalf("pulled value %v", dst.At(3, 2))
	}

	// Push gradients (SGD lr 1, one source: value -= grad) and pull the
	// updated state back, waiting on version 1.
	g0 := tensor.NewDense(2, 3)
	g0.Fill(1)
	g1 := tensor.NewDense(2, 3)
	g1.Fill(2)
	if err := client.PushDenseMany([]DensePush{
		{Name: "w", Part: 0, Grad: g0}, {Name: "w", Part: 1, Grad: g1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.PullManyInto(1, reqs); err != nil {
		t.Fatal(err)
	}
	if dst.At(0, 0) != -1 || dst.At(3, 2) != 9 {
		t.Fatalf("updated values %v %v", dst.At(0, 0), dst.At(3, 2))
	}
}

func TestClientSparsePushAndNormApply(t *testing.T) {
	client, srv, stop := newWired(t, Config{
		Sources: 1, Optimizer: optim.NewSGD(1), DeferUpdates: true,
	})
	defer stop()
	ranges := tensor.PartitionRows(4, 1)
	if err := srv.AddVar("emb", denseInit(4, 2, 0), ranges, []int{0}, true); err != nil {
		t.Fatal(err)
	}
	vals := tensor.NewDense(1, 2)
	vals.Data()[0], vals.Data()[1] = 3, 4
	if err := client.PushSparseMany([]SparsePush{{
		Name: "emb", Part: 0,
		Grad: tensor.NewSparse([]int{1}, vals, 4),
	}}); err != nil {
		t.Fatal(err)
	}
	n2, err := client.WaitAggregatedNormSquared("emb", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 25 {
		t.Fatalf("norm² = %v, want 25", n2)
	}
	if err := client.ApplyUpdate("emb", 0, 0.5); err != nil {
		t.Fatal(err)
	}
	got := tensor.NewDense(4, 2)
	if err := client.PullManyInto(1, []PullReq{{Name: "emb", Part: 0, Dst: got}}); err != nil {
		t.Fatal(err)
	}
	// row 1 was [2,3]; grad [3,4]*0.5 applied with lr 1 -> [0.5, 1].
	if got.At(1, 0) != 0.5 || got.At(1, 1) != 1 {
		t.Fatalf("row after scaled apply: %v %v", got.At(1, 0), got.At(1, 1))
	}
}

func TestClientErrorsTravelAsReplies(t *testing.T) {
	client, _, stop := newWired(t, Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	defer stop()
	err := client.PullManyInto(0, []PullReq{{Name: "ghost", Part: 0, Dst: tensor.NewDense(1)}})
	if err == nil || !strings.Contains(err.Error(), "unknown variable") {
		t.Fatalf("err = %v", err)
	}
	// The serving loop must survive an erroneous request.
	err = client.ApplyUpdate("ghost", 0, 1)
	if err == nil || !strings.Contains(err.Error(), "unknown variable") {
		t.Fatalf("err after first error = %v", err)
	}
}

func TestClientClosedFabricReturnsError(t *testing.T) {
	client, _, stop := newWired(t, Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	stop()
	if err := client.ApplyUpdate("w", 0, 1); err == nil {
		t.Fatal("call on closed fabric succeeded")
	}
}
