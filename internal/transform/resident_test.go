package transform

// Tests for the one parameter-server host (DESIGN.md §13): a trainer on
// a resident psrt.Fleet under a tenant namespace and a private trainer
// (fresh servers, the anonymous namespace) run the same code, so the
// same graph and seeds give the same bits, checkpoint records move
// between the two, a trainer leaves nothing behind on a fleet, and one
// tenant's fabric death stays its own.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"parallax/internal/checkpoint"
	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/errs"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/psrt"
)

func newFleet(t *testing.T, machines int) *psrt.Fleet {
	t.Helper()
	f, err := psrt.NewFleet(machines)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// onFleet hosts the trainer's PS variables on f under namespace ns, with
// momentum so the servers carry slot state and clipping so every step
// takes the chief read-back path.
func onFleet(f *psrt.Fleet, ns string) func(*Options) {
	return func(o *Options) {
		withMomentum(o)
		o.ClipNorm = 0.7
		o.Resident, o.PSNamespace = f, ns
	}
}

func requireNoNamespaces(t *testing.T, what string, f *psrt.Fleet) {
	t.Helper()
	for m := 0; m < f.Machines(); m++ {
		if got := f.Server(m).Namespaces(); len(got) != 0 {
			t.Fatalf("%s: fleet server %d still holds namespaces %q", what, m, got)
		}
	}
}

// snapshotAll gathers every local machine's checkpoint records.
func snapshotAll(t *testing.T, tr *Trainer) []checkpoint.Record {
	t.Helper()
	var recs []checkpoint.Record
	for _, m := range tr.LocalMachines() {
		r, err := tr.Snapshot(m)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r...)
	}
	return recs
}

// TestResidentBitIdenticalToPrivate: per-step losses and final variables
// agree bit for bit between a private trainer and a fleet tenant, under
// clipping and through one live reshard; Close hands the fleet back
// empty.
func TestResidentBitIdenticalToPrivate(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	fleet := newFleet(t, 3) // larger than the job: machine 2 stays untouched
	trainers := [2]*Trainer{
		newTrainer(t, cfg, core.ArchHybrid, ri, 3, onFleet(nil, "")),
		newTrainer(t, cfg, core.ArchHybrid, ri, 3, onFleet(fleet, "acme/j1")),
	}
	if got := fleet.Server(0).Namespaces(); len(got) != 1 || got[0] != "acme/j1" {
		t.Fatalf("fleet server 0 namespaces = %q", got)
	}
	var losses [2][]float64
	for i, tr := range trainers {
		losses[i] = runSteps(t, tr, cfg, 0, 4)
		if err := tr.Repartition(planFor(t, models.BuildTinyLM(cfg), core.ArchHybrid, 2, 5)); err != nil {
			t.Fatal(err)
		}
		losses[i] = append(losses[i], runSteps(t, tr, cfg, 4, 8)...)
	}
	requireSameBits(t, "resident vs private", losses[1], losses[0])
	requireSameVars(t, "resident vs private", trainers[1], trainers[0])
	trainers[1].Close()
	requireNoNamespaces(t, "after Close", fleet)
}

// TestRecordsPortableBetweenHosts: records snapshotted on the fleet carry
// bare variable names, restore into a private trainer, and the private
// trainer's records restore into another tenant — every hop continuing
// the uninterrupted run's trajectory bit for bit.
func TestRecordsPortableBetweenHosts(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	fleet := newFleet(t, 2)
	ref := newTrainer(t, cfg, core.ArchHybrid, ri, 3, onFleet(nil, ""))
	want := runSteps(t, ref, cfg, 0, 9)

	hops := []func(*Options){onFleet(fleet, "acme/j1"), onFleet(nil, ""), onFleet(fleet, "zeta/j2")}
	var recs []checkpoint.Record
	var got []float64
	for i, hop := range hops {
		tr := newTrainer(t, cfg, core.ArchHybrid, ri, 3, hop)
		if i > 0 {
			if err := tr.Restore(recs, int64(3*i), false); err != nil {
				t.Fatal(err)
			}
		}
		got = append(got, runSteps(t, tr, cfg, 3*i, 3*i+3)...)
		recs = snapshotAll(t, tr)
		for _, r := range recs {
			if strings.Contains(r.Name, "::") {
				t.Fatalf("hop %d record %q carries the namespace", i, r.Name)
			}
		}
		tr.Close()
	}
	requireSameBits(t, "fleet -> private -> fleet", got, want)
	requireNoNamespaces(t, "after the last hop", fleet)
}

// TestFailedNewLeavesFleetClean: a New that fails after claiming its
// namespace on some servers releases it — and releases nothing that is
// not its own.
func TestFailedNewLeavesFleetClean(t *testing.T) {
	cfg := models.DefaultTinyLM()
	g := models.BuildTinyLM(cfg)
	fleet := newFleet(t, 2)
	// Another owner already holds the name on machine 1, so New claims
	// machine 0 and then fails.
	squatter, err := fleet.Server(1).Namespace("acme/j1", psrt.Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Plan:         planFor(t, g, core.ArchHybrid, 2, 3),
		Resource:     cluster.Uniform(2, 2),
		NewOptimizer: func() optim.Optimizer { return optim.NewSGD(0.2) },
	}
	onFleet(fleet, "acme/j1")(&opts)
	if _, err := New(g, opts); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("New on a taken namespace: err = %v", err)
	}
	if got := fleet.Server(0).Namespaces(); len(got) != 0 {
		t.Fatalf("failed New left %q on server 0", got)
	}
	if got := fleet.Server(1).Namespaces(); len(got) != 1 {
		t.Fatalf("failed New dropped the other owner's namespace: %q", got)
	}
	squatter.Drop()
	// A fleet needs a tenant name; the anonymous namespace is a private
	// trainer's.
	opts.PSNamespace = ""
	if _, err := New(g, opts); err == nil {
		t.Fatal("New accepted a fleet without a namespace")
	}
	requireNoNamespaces(t, "after failed News", fleet)
}

// TestTenantAbortIsScoped: when one tenant's fabric dies, the watcher
// aborts that tenant's namespace only — a concurrent tenant's waits and
// the anonymous namespace's waits on the same servers stay parked.
func TestTenantAbortIsScoped(t *testing.T) {
	cfg := models.DefaultTinyLM()
	ri := cluster.Uniform(2, 2)
	fleet := newFleet(t, 2)
	trA := newTrainer(t, cfg, core.ArchHybrid, ri, 2, onFleet(fleet, "a/1"))
	trB := newTrainer(t, cfg, core.ArchHybrid, ri, 2, onFleet(fleet, "b/1"))
	srv := fleet.Server(0)
	anon, err := srv.Namespace("", psrt.Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	if err != nil {
		t.Fatal(err)
	}
	emb := trA.routes[trA.routeIdx["embedding"]]
	if err := anon.AddVar("embedding", emb.v.Init, emb.ranges, emb.parts[0], true); err != nil {
		t.Fatal(err)
	}
	pi := emb.parts[0][0]
	waits := map[string]chan error{}
	for _, ns := range []string{"a/1", "b/1", ""} {
		ch := make(chan error, 1)
		waits[ns] = ch
		go func() {
			_, err := srv.Pull(psrt.QualifiedName(ns, "embedding"), pi, 99) // never satisfied
			ch <- err
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the three waits park
	trA.Fabric().Close()
	select {
	case err := <-waits["a/1"]:
		if !errors.Is(err, errs.ErrClosed) {
			t.Fatalf("tenant A's wait returned %v, want the closed-fabric error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tenant A's wait survived its fabric's death")
	}
	time.Sleep(20 * time.Millisecond)
	for _, ns := range []string{"b/1", ""} {
		select {
		case err := <-waits[ns]:
			t.Fatalf("namespace %q's wait was released by tenant A's abort: %v", ns, err)
		default:
		}
	}
	// Tenant B still trains next to the dead neighbor.
	runSteps(t, trB, cfg, 0, 2)
	boom := errors.New("test over")
	anon.Abort(boom)
	if err := <-waits[""]; !errors.Is(err, boom) {
		t.Fatalf("anonymous wait returned %v", err)
	}
	trB.Fabric().Close()
	if err := <-waits["b/1"]; !errors.Is(err, errs.ErrClosed) {
		t.Fatalf("tenant B's wait returned %v", err)
	}
	anon.Drop()
}
