package psrt

import (
	"errors"
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

// A row-addressed pull copies exactly the listed rows, packed — row k
// of the destination receives listed row k — and nothing else, the same
// through a direct call and through the wire, where the reply carries
// the rows packed and is copied as is. An empty list is a request for
// no rows, not for the partition.
func TestRowAddressedPull(t *testing.T) {
	client, srv, stop := newWired(t, Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	defer stop()
	ranges := tensor.PartitionRows(7, 2) // rows [0,4) and [4,7)
	init := denseInit(7, 2, 0)
	if err := srv.AddVar("emb", init, ranges, []int{0, 1}, true); err != nil {
		t.Fatal(err)
	}
	for name, ep := range map[string]Endpoint{"direct": srv, "wired": client} {
		// Three packed rows and a spare one no request addresses.
		packed := tensor.NewDense(4, 2)
		packed.Fill(-1)
		if err := ep.PullManyInto(0, []PullReq{
			{Name: "emb", Part: 0, Dst: packed.SliceRows(0, 2), Rows: []int{0, 3}},
			{Name: "emb", Part: 1, Dst: packed.SliceRows(2, 3), Rows: []int{1}},
			{Name: "emb", Part: 1, Dst: packed.SliceRows(3, 3), Rows: []int{}},
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, r := range []int{0, 3, 5, -1} {
			for c := 0; c < 2; c++ {
				want := float32(-1)
				if r >= 0 {
					want = init.At(r, c)
				}
				if got := packed.At(k, c); got != want {
					t.Errorf("%s: packed[%d,%d] = %v, want %v", name, k, c, got, want)
				}
			}
		}
	}
}

func TestClientErrorsTravelAsReplies(t *testing.T) {
	client, srv, stop := newWired(t, Config{Sources: 1, Optimizer: optim.NewSGD(1)})
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

	// Malformed row lists are errors wherever they surface — the direct
	// call, the client before it encodes, the serving loop handed a
	// request no client of ours would send — never a panic or a copy from
	// the wrong rows.
	ranges := tensor.PartitionRows(1<<16, 2)
	if err := srv.AddVar("emb", tensor.NewDense(1<<16, 1<<4), ranges, []int{0}, true); err != nil {
		t.Fatal(err)
	}
	dst := tensor.NewDense(1<<15, 1<<4)
	for name, c := range map[string]struct {
		part int
		rows []int
		want string
	}{
		"descending":          {0, []int{5, 2}, "not strictly ascending"},
		"duplicate":           {0, []int{2, 2}, "not strictly ascending"},
		"past the partition":  {0, []int{7, 1 << 15}, "out of range"},
		"negative":            {0, []int{-1}, "out of range"},
		"partition elsewhere": {1, []int{0}, "not hosted here"},
	} {
		served := handle(srv, 0, &transport.PSMsg{Op: transport.PSPullMany,
			Names: []string{"emb"}, Parts: []int{c.part}, Rows: [][]int{c.rows}}).Err
		packed := dst.SliceRows(0, len(c.rows))
		for how, err := range map[string]error{
			"direct": srv.PullManyInto(0, []PullReq{{Name: "emb", Part: c.part, Dst: packed, Rows: c.rows}}),
			"wired":  client.PullManyInto(0, []PullReq{{Name: "emb", Part: c.part, Dst: packed, Rows: c.rows}}),
			"served": errors.New(served),
		} {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s row list, %s: err = %v, want %q", name, how, err, c.want)
			}
		}
	}
	// A destination that is not one row per listed row is refused, by the
	// server and by the client before anything is sent.
	misSized := []PullReq{{Name: "emb", Part: 0, Dst: dst.SliceRows(0, 3), Rows: []int{1, 2}}}
	for _, c := range []struct {
		how  string
		err  error
		want string
	}{
		{"direct", srv.PullManyInto(0, misSized), "dst has 48 elements, want 32"},
		{"wired", client.SendPull(0, misSized), "2 rows listed for a 3-row dst"},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("mis-sized dst, %s: err = %v, want %q", c.how, c.err, c.want)
		}
	}
	// A batch whose rows would not fit one reply frame is refused before
	// anything is copied: 2^15 rows x 2^4 values, 600 times over.
	big := &transport.PSMsg{Op: transport.PSPullMany}
	all := make([]int, 1<<15)
	for i := range all {
		all[i] = i
	}
	for i := 0; i < 600; i++ {
		big.Names, big.Parts, big.Rows = append(big.Names, "emb"), append(big.Parts, 0), append(big.Rows, all)
	}
	if rep := handle(srv, 0, big); !strings.Contains(rep.Err, "one reply carries") || len(rep.Dense) != 0 {
		t.Errorf("oversized batch: err = %q with %d tensors", rep.Err, len(rep.Dense))
	}
	// The connection outlives all of it.
	if err := client.PullManyInto(0, []PullReq{{Name: "emb", Part: 0, Dst: dst.SliceRows(0, 1), Rows: []int{3}}}); err != nil {
		t.Fatal(err)
	}
}

// A reply that does not carry len(rows) x width values for a
// row-addressed item is an error at the client, not a short or
// overlong copy into its packed destination.
func TestClientRejectsMisSizedRowReply(t *testing.T) {
	fab := transport.NewInproc(transport.Topology{Workers: 1, Machines: 1, MachineOfWorker: []int{0}})
	defer fab.Close()
	go func() {
		srv := fab.Conduit(1)
		if srv.RecvPS(0, Tag) != nil {
			srv.SendPS(0, Tag, &transport.PSMsg{Op: transport.PSReply, Dense: []*tensor.Dense{tensor.NewDense(5)}})
		}
	}()
	err := NewClient(fab.Conduit(0), 1).PullManyInto(0, []PullReq{
		{Name: "emb", Part: 0, Dst: tensor.NewDense(2, 2), Rows: []int{0, 3}}})
	if err == nil || !strings.Contains(err.Error(), "has 5 elements, want 4") {
		t.Fatalf("err = %v", err)
	}
}

func TestClientClosedFabricReturnsError(t *testing.T) {
	client, _, stop := newWired(t, Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	stop()
	if err := client.ApplyUpdate("w", 0, 1); err == nil {
		t.Fatal("call on closed fabric succeeded")
	}
}

// The pull's two halves let one worker keep a request in flight to every
// server at once: the request parked on server 1's version wait does not
// stop the worker from finishing its pull of server 0, and its reply is
// still there when the worker comes back for it. A refused request sends
// nothing, so the stream stays in step.
func TestClientPullHalvesPipelineAcrossServers(t *testing.T) {
	fab := transport.NewInproc(transport.Topology{Workers: 1, Machines: 2, MachineOfWorker: []int{0}})
	var srvs [2]*Server
	var clients [2]*Client
	done := make(chan struct{}, 2)
	for m := range srvs {
		srv, err := NewServer(Config{Sources: 1, Optimizer: optim.NewSGD(1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddVar("w", denseInit(2, 3, float32(10*m)), tensor.PartitionRows(2, 1), []int{0}, false); err != nil {
			t.Fatal(err)
		}
		srvs[m], clients[m] = srv, NewClient(fab.Conduit(0), 1+m)
		go func() {
			ServeConduit(srv, fab.Conduit(1+m), 0)
			done <- struct{}{}
		}()
	}
	defer func() { fab.Close(); <-done; <-done }()

	var dst [2]*tensor.Dense
	var reqs [2][]PullReq
	for m := range reqs {
		dst[m] = tensor.NewDense(2, 3)
		reqs[m] = []PullReq{{Name: "w", Part: 0, Dst: dst[m]}}
	}
	if err := clients[1].SendPull(1, reqs[1]); err != nil { // parks: server 1 is at version 0
		t.Fatal(err)
	}
	if err := clients[0].SendPull(0, reqs[0]); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].RecvPull(reqs[0]); err != nil {
		t.Fatal(err)
	}
	if dst[0].At(1, 2) != 5 {
		t.Fatalf("server 0 pulled %v, want 5", dst[0].At(1, 2))
	}
	g := tensor.NewDense(2, 3)
	g.Fill(1)
	if err := srvs[1].PushDenseMany([]DensePush{{Name: "w", Part: 0, Grad: g}}); err != nil {
		t.Fatal(err)
	}
	if err := clients[1].RecvPull(reqs[1]); err != nil {
		t.Fatal(err)
	}
	if dst[1].At(1, 2) != 14 {
		t.Fatalf("server 1 pulled %v after the push, want 14", dst[1].At(1, 2))
	}

	bad := []PullReq{{Name: "w", Part: 0, Dst: dst[0], Rows: []int{1, 0}}}
	if err := clients[0].SendPull(0, bad); err == nil {
		t.Fatal("descending row list was sent")
	}
	if err := clients[0].PullManyInto(0, reqs[0]); err != nil {
		t.Fatalf("pull after a refused request: %v", err)
	}
}
