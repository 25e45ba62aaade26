package psrt

import (
	"errors"
	"testing"

	"parallax/internal/optim"
	"parallax/internal/tensor"
)

func denseOf(rows, width int, vals ...float32) *tensor.Dense {
	d := tensor.NewDense(rows, width)
	copy(d.Data(), vals)
	return d
}

// TestNamespaceIsolation is the multi-tenancy core claim: two tenants
// register a variable with the SAME name on one shared server, each
// under its own namespace with its own optimizer and learning rate, and
// neither pushes, pulls, slot state, nor drops of one ever leak into the
// other.
func TestNamespaceIsolation(t *testing.T) {
	srv := NewResident()
	nsA, err := srv.Namespace("tenantA/job1", Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	if err != nil {
		t.Fatal(err)
	}
	nsB, err := srv.Namespace("tenantB/job9", Config{Sources: 1, Optimizer: optim.NewMomentum(0.5, 0.9)})
	if err != nil {
		t.Fatal(err)
	}

	ranges := []tensor.RowRange{{Start: 0, End: 2}}
	if err := nsA.AddVar("w", denseOf(2, 1, 10, 20), ranges, []int{0}, false); err != nil {
		t.Fatal(err)
	}
	if err := nsB.AddVar("w", denseOf(2, 1, 100, 200), ranges, []int{0}, false); err != nil {
		t.Fatal(err)
	}

	// Tenant A pushes a gradient; tenant B's value must not move.
	if err := pushDense(srv, nsA.Qualify("w"), 0, denseOf(2, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	a, err := srv.Pull(nsA.Qualify("w"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Data()[0] != 9 || a.Data()[1] != 19 {
		t.Fatalf("tenant A value = %v, want [9 19]", a.Data())
	}
	b, err := srv.Pull(nsB.Qualify("w"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Data()[0] != 100 || b.Data()[1] != 200 {
		t.Fatalf("tenant B value moved to %v after tenant A's push", b.Data())
	}

	// Slot state is per-tenant: A's SGD keeps none, B's momentum does.
	if got := nsA.SlotNames(); len(got) != 0 {
		t.Fatalf("tenant A slot names = %v, want none", got)
	}
	if got := nsB.SlotNames(); len(got) != 1 || got[0] != "velocity" {
		t.Fatalf("tenant B slot names = %v, want [velocity]", got)
	}
	if err := pushDense(srv, nsB.Qualify("w"), 0, denseOf(2, 1, 2, 2)); err != nil {
		t.Fatal(err)
	}
	_, slotsB, err := srv.SnapshotPart(nsB.Qualify("w"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(slotsB) != 1 {
		t.Fatalf("tenant B snapshot has %d slot tensors, want 1", len(slotsB))
	}
	_, slotsA, err := srv.SnapshotPart(nsA.Qualify("w"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(slotsA) != 0 {
		t.Fatalf("tenant A snapshot has %d slot tensors, want 0", len(slotsA))
	}

	// An un-qualified name resolves to neither tenant's variable.
	if _, err := srv.Pull("w", 0, 0); err == nil {
		t.Fatal("bare name resolved on a resident server")
	}

	// Dropping tenant A removes exactly its variables; a second Drop is
	// a no-op.
	nsA.Drop()
	nsA.Drop()
	if _, err := srv.Pull(nsA.Qualify("w"), 0, 0); err == nil {
		t.Fatal("tenant A variable survived Drop")
	}
	if _, err := srv.Pull(nsB.Qualify("w"), 0, 1); err != nil {
		t.Fatalf("tenant B variable lost by tenant A's drop: %v", err)
	}
	// ... and frees the name for a successor job.
	if _, err := srv.Namespace("tenantA/job1", Config{Sources: 1, Optimizer: optim.NewSGD(1)}); err != nil {
		t.Fatalf("namespace not reusable after drop: %v", err)
	}
}

// TestNamespaceScopedAbort: aborting one tenant fails its blocked waits
// and leaves the other tenant's protocol running.
func TestNamespaceScopedAbort(t *testing.T) {
	srv := NewResident()
	nsA, err := srv.Namespace("a", Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	if err != nil {
		t.Fatal(err)
	}
	nsB, err := srv.Namespace("b", Config{Sources: 1, Optimizer: optim.NewSGD(1)})
	if err != nil {
		t.Fatal(err)
	}
	ranges := []tensor.RowRange{{Start: 0, End: 1}}
	if err := nsA.AddVar("w", denseOf(1, 1, 1), ranges, []int{0}, false); err != nil {
		t.Fatal(err)
	}
	if err := nsB.AddVar("w", denseOf(1, 1, 1), ranges, []int{0}, false); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("tenant A died")
	done := make(chan error, 1)
	go func() {
		_, err := srv.Pull(nsA.Qualify("w"), 0, 99) // never satisfied
		done <- err
	}()
	nsA.Abort(boom)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("tenant A wait returned %v, want the abort error", err)
	}

	// Tenant B is unaffected: its push still satisfies its pull.
	if err := pushDense(srv, nsB.Qualify("w"), 0, denseOf(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Pull(nsB.Qualify("w"), 0, 1); err != nil {
		t.Fatalf("tenant B wait failed after tenant A abort: %v", err)
	}
}

// TestAnonymousNamespaceIsThePrivateServer: NewServer(cfg)+AddVar is
// shorthand for registering the anonymous namespace — the variable is
// served under its bare name, updated by cfg's optimizer once cfg's
// Sources pushes arrived.
func TestAnonymousNamespaceIsThePrivateServer(t *testing.T) {
	srv, err := NewServer(Config{Sources: 2, Optimizer: optim.NewMomentum(1, 0.5), DenseAgg: optim.AggSum})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Namespaces(); len(got) != 1 || got[0] != "" {
		t.Fatalf("NewServer namespaces = %q, want just the anonymous one", got)
	}
	if err := srv.AddVar("w", denseOf(1, 1, 10), fullRange(1), []int{0}, false); err != nil {
		t.Fatal(err)
	}
	if q := anon(srv).Qualify("w"); q != "w" {
		t.Fatalf("anonymous namespace qualifies w as %q", q)
	}
	if err := pushDense(srv, "w", 0, denseOf(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if v, _ := srv.Version("w", 0); v != 0 {
		t.Fatal("update applied before cfg.Sources pushes arrived")
	}
	if err := pushDense(srv, "w", 0, denseOf(1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Pull("w", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data()[0] != 7 { // 10 - lr 1 * (1+2)
		t.Fatalf("value = %v, want 7", got.Data()[0])
	}
	if names := anon(srv).SlotNames(); len(names) != 1 || names[0] != "velocity" {
		t.Fatalf("slot names = %v, want cfg's momentum optimizer's", names)
	}
	// A server without the anonymous namespace has nothing for the
	// shorthand to register under.
	if err := NewResident().AddVar("w", denseOf(1, 1, 1), fullRange(1), []int{0}, false); err == nil {
		t.Fatal("AddVar accepted on a server with no anonymous namespace")
	}
}

// TestAnonymousNamespaceCoexistsWithTenants: "" is a namespace like any
// other on a fleet server — it keeps bare names next to tenants'
// qualified ones, is refused when registered twice, aborts alone, and
// drops alone.
func TestAnonymousNamespaceCoexistsWithTenants(t *testing.T) {
	fleet, err := NewFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	srv := fleet.Server(0)
	cfg := func() Config { return Config{Sources: 1, Optimizer: optim.NewSGD(1)} }
	anonNS, err := srv.Namespace("", cfg())
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := srv.Namespace("acme/j1", cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "acme/j1"} {
		if _, err := srv.Namespace(name, cfg()); err == nil {
			t.Fatalf("duplicate namespace %q accepted", name)
		}
	}
	if _, err := srv.Namespace("a::b", cfg()); err == nil {
		t.Fatal("namespace containing the separator accepted")
	}
	if _, err := srv.Namespace("b", Config{Sources: 1}); err == nil {
		t.Fatal("namespace with nil optimizer accepted")
	}
	if got := srv.Namespaces(); len(got) != 2 || got[0] != "" || got[1] != "acme/j1" {
		t.Fatalf("namespaces = %q", got)
	}
	if err := srv.AddVar("w", denseOf(1, 1, 1), fullRange(1), []int{0}, false); err != nil {
		t.Fatal(err)
	}
	if err := tenant.AddVar("w", denseOf(1, 1, 100), fullRange(1), []int{0}, false); err != nil {
		t.Fatal(err)
	}
	if err := pushDense(srv, "w", 0, denseOf(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if v, _ := srv.Pull(tenant.Qualify("w"), 0, 0); v.Data()[0] != 100 {
		t.Fatalf("tenant value moved to %v after an anonymous push", v.Data())
	}
	if v, _ := srv.Pull("w", 0, 1); v.Data()[0] != 0 {
		t.Fatalf("anonymous value = %v after its push, want 0", v.Data())
	}
	// A bare name that spells a tenant's qualified one does not let the
	// anonymous namespace reshard the tenant's variable.
	if err := anonNS.ReshardVar(tenant.Qualify("w"), denseOf(1, 1, 5), fullRange(1), []int{0}, false, nil, 1); err == nil {
		t.Fatal("anonymous namespace resharded a tenant's variable")
	}

	boom := errors.New("tenant died")
	tenant.Abort(boom)
	if _, err := srv.Pull(tenant.Qualify("w"), 0, 99); !errors.Is(err, boom) {
		t.Fatalf("aborted tenant wait returned %v", err)
	}
	if _, err := srv.Pull("w", 0, 1); err != nil {
		t.Fatalf("anonymous wait failed after the tenant's abort: %v", err)
	}
	anonNS.Drop()
	if _, err := srv.Pull("w", 0, 0); err == nil {
		t.Fatal("bare variable survived the anonymous namespace's drop")
	}
	if _, err := srv.Pull(tenant.Qualify("w"), 0, 0); err != nil {
		t.Fatalf("tenant variable lost by the anonymous drop: %v", err)
	}
}

// TestNamespaceReshard: a namespaced variable reshards in place with its
// tenant's optimizer slot state.
func TestNamespaceReshard(t *testing.T) {
	srv := NewResident()
	ns, err := srv.Namespace("t", Config{Sources: 1, Optimizer: optim.NewMomentum(0.5, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	init := denseOf(4, 1, 1, 2, 3, 4)
	if err := ns.AddVar("emb", init, []tensor.RowRange{{Start: 0, End: 4}}, []int{0}, true); err != nil {
		t.Fatal(err)
	}
	// One sparse update to materialize velocity.
	g := tensor.NewSparse([]int{1}, denseOf(1, 1, 10), 4)
	if err := pushSparse(srv, ns.Qualify("emb"), 0, g); err != nil {
		t.Fatal(err)
	}
	val, slots, err := srv.SnapshotPart(ns.Qualify("emb"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 1 {
		t.Fatalf("snapshot has %d slot tensors, want 1", len(slots))
	}
	// Reinstall as two partitions seeded at version 1.
	newRanges := tensor.PartitionRows(4, 2)
	if err := ns.ReshardVar("emb", val, newRanges, []int{0, 1}, true, slots, 1); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Pull(ns.Qualify("emb"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data()[1] != val.Data()[3] {
		t.Fatalf("resharded value mismatch: %v vs full %v", got.Data(), val.Data())
	}
	v2, slots2, err := srv.SnapshotPart(ns.Qualify("emb"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = v2
	if len(slots2) != 1 || slots2[0].Data()[1] != slots[0].Data()[3] {
		t.Fatalf("slot state did not follow the reshard: %v vs full %v", slots2[0].Data(), slots[0].Data())
	}
}
