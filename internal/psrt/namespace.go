package psrt

// Namespaces: the one way a variable gets onto a Server. A Namespace is
// a registration handle: every variable added through it is stored under
// a qualified name ("tenant/job::var"; the bare name for the anonymous
// namespace ""), is updated by the namespace's OWN optimizer instance
// and aggregation config (two tenants may train with different learning
// rates, worker counts, or modes against the same server), fails its
// blocked waits when the namespace is aborted, and is released wholesale
// by Drop. A private trainer's server holds just the anonymous
// namespace; many concurrent jobs share one resident server (the
// multi-tenant service of DESIGN.md §13) under their own names without
// their variables ever colliding. The data plane is the same either way
// — workers push and pull through the Server surface using the
// qualified names, so the hot path pays one string it computed at build
// time and nothing else.
//
// A Fleet is the resident form of the paper's one-server-per-machine
// layout (§4.2): one long-lived Server per fleet machine, created once
// when the service starts and joined by each admitted job for the
// machines its plan spans.

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"parallax/internal/optim"
	"parallax/internal/tensor"
)

// nsSep separates a namespace from a variable name in qualified names.
// Variable names may contain '/' (scope paths), so the separator is a
// token that graph construction never produces.
const nsSep = "::"

// QualifiedName returns the name a variable is stored under on a server
// when registered through namespace ns ("" returns name unchanged).
func QualifiedName(ns, name string) string {
	if ns == "" {
		return name
	}
	return ns + nsSep + name
}

// Namespace is one job's registration handle on a Server: AddVar and
// ReshardVar register qualified variables governed by the namespace's
// config, Abort fails the namespace's blocked waits without touching
// other namespaces, and Drop releases everything at once.
type Namespace struct {
	s    *Server
	name string
	cfg  Config

	// abortErr, once set, wakes and fails every blocked version/
	// aggregation wait on the namespace's variables: the synchronous
	// protocol's waits are satisfied by peer pushes, so when the
	// transport underneath dies mid-step the missing pushes never arrive
	// and only Abort can unpark the waiters.
	abortMu  sync.Mutex
	abortErr error
}

// Namespace registers a namespace on the server. cfg governs every
// variable added through the handle — sources, aggregation, update
// mode, and the optimizer instance (which the namespace owns
// exclusively, so namespaces never share slot state). The name must not
// contain the "::" separator and must not already be registered; ""
// is the anonymous namespace, whose variables keep their bare names.
func (s *Server) Namespace(name string, cfg Config) (*Namespace, error) {
	if strings.Contains(name, nsSep) {
		return nil, fmt.Errorf("psrt: namespace %q contains the reserved separator %q", name, nsSep)
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.namespaces[name]; dup {
		return nil, fmt.Errorf("psrt: namespace %q already registered", name)
	}
	n := &Namespace{s: s, name: name, cfg: cfg}
	s.namespaces[name] = n
	return n, nil
}

// Name returns the namespace's name.
func (n *Namespace) Name() string { return n.name }

// Server returns the server the namespace is registered on — the data
// plane its qualified names resolve against.
func (n *Namespace) Server() *Server { return n.s }

// Qualify returns the server-side name of one of this namespace's
// variables — what the data plane must use in pull/push/snapshot calls.
func (n *Namespace) Qualify(name string) string { return QualifiedName(n.name, name) }

// AddVar registers a variable (or a subset of its partitions) under this
// namespace. init is the full initial value; ranges lists the row ranges
// of ALL partitions (so indices agree across servers); owned lists which
// partition indices this server hosts.
func (n *Namespace) AddVar(name string, init *tensor.Dense, ranges []tensor.RowRange, owned []int, sparse bool) error {
	s := n.s
	s.mu.Lock()
	defer s.mu.Unlock()
	q := n.Qualify(name)
	if _, dup := s.vars[q]; dup {
		return fmt.Errorf("psrt: variable %q already registered", q)
	}
	_, err := s.addVarLocked(n, q, init, ranges, owned, sparse)
	return err
}

// ReshardVar replaces one of this namespace's variables' partitioning in
// place — the install phase of live resharding and of checkpoint
// restore. The old servedVar (if any) is dropped and its partitions'
// optimizer slot state deleted; if owned is non-empty a new servedVar is
// installed with values sliced from the assembled full value init,
// optimizer slots sliced from the assembled full slot tensors
// (SlotState.Slots order; pass nil for stateless optimizers), and every
// owned partition's version and aggregation sequence seeded to version,
// so the synchronous pull/clip protocol continues counting steps without
// a discontinuity.
//
// ReshardVar must only run while the variable is quiescent: no pushes,
// pulls, or snapshots in flight (the trainer guarantees this with its
// cross-agent resharding barriers).
func (n *Namespace) ReshardVar(name string, init *tensor.Dense, ranges []tensor.RowRange, owned []int, sparse bool, slots []*tensor.Dense, version int64) error {
	s, q := n.s, n.Qualify(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, stateful := n.cfg.Optimizer.(optim.SlotState)
	if old, ok := s.vars[q]; ok {
		if old.ns != n {
			return fmt.Errorf("psrt: variable %q belongs to namespace %q", q, old.ns.name)
		}
		for pi, p := range old.parts {
			if stateful && p != nil {
				ss.DeleteKey(old.keys[pi])
			}
		}
		delete(s.vars, q)
	}
	if len(owned) == 0 {
		return nil
	}
	if stateful && len(slots) != len(ss.Slots()) {
		return fmt.Errorf("psrt: reshard of %q has %d slot tensors, optimizer keeps %d slots",
			q, len(slots), len(ss.Slots()))
	}
	v, err := s.addVarLocked(n, q, init, ranges, owned, sparse)
	if err != nil {
		return err
	}
	for _, pi := range owned {
		p := v.parts[pi]
		p.version = version
		p.aggSeq = version
		if !stateful || ranges[pi].Len() == 0 {
			continue
		}
		rr := ranges[pi]
		for k, slot := range ss.Slots() {
			if slots[k].NumElements() != v.dim0*v.width {
				return fmt.Errorf("psrt: reshard slot %q of %q has %d elements, variable has %d",
					slot, q, slots[k].NumElements(), v.dim0*v.width)
			}
			sv := tensor.NewDense(rr.Len(), v.width)
			copy(sv.Data(), slots[k].Data()[rr.Start*v.width:rr.End*v.width])
			ss.SetSlot(slot, v.keys[pi], sv)
		}
	}
	return nil
}

// SlotNames returns the namespace optimizer's slot names in SlotState
// order (empty for stateless optimizers) — the labels SnapshotPart's
// slot tensors carry in a checkpoint.
func (n *Namespace) SlotNames() []string {
	if ss, ok := n.cfg.Optimizer.(optim.SlotState); ok {
		return ss.Slots()
	}
	return nil
}

// Abort fails every present and future blocking wait (pulls, snapshots,
// WaitAggregatedNormSquared) on THIS namespace's variables with err,
// leaving other namespaces' waits untouched. The trainer calls it when
// its transport fabric dies, so workers parked on a version wait — whose
// outstanding pushes will never arrive from the dead peer — fail fast
// with the fabric's attributed error instead of hanging on a condition
// variable forever. Idempotent; the first error wins. Non-blocking
// operations (pushes, resharding) are unaffected: the aborted
// namespace's state remains readable for post-mortem snapshots.
func (n *Namespace) Abort(err error) {
	if err == nil {
		return
	}
	n.abortMu.Lock()
	if n.abortErr == nil {
		n.abortErr = err
	}
	n.abortMu.Unlock()
	s := n.s
	s.mu.Lock()
	var parts []*part
	for _, v := range s.vars {
		if v.ns == n {
			parts = append(parts, v.parts...) //parallax:orderinvariant -- wakeup set: the order of cond Broadcasts is unobservable
		}
	}
	s.mu.Unlock()
	for _, p := range parts {
		if p != nil {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
}

// aborted returns the namespace's Abort error, if any.
func (n *Namespace) aborted() error {
	n.abortMu.Lock()
	defer n.abortMu.Unlock()
	return n.abortErr
}

// Drop releases the namespace: every variable registered through it is
// removed from the server (with its optimizer slot state, which dies
// with the namespace's optimizer instance) and the name becomes
// available again. Dropping an already-dropped namespace is a no-op, so
// teardown paths can call it unconditionally. The caller must have
// quiesced the namespace's traffic first — dropping under in-flight
// pushes is a protocol violation, exactly like resharding under traffic.
func (n *Namespace) Drop() {
	s := n.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.namespaces[n.name] != n {
		return
	}
	delete(s.namespaces, n.name)
	for q, v := range s.vars {
		if v.ns == n {
			delete(s.vars, q)
		}
	}
}

// Namespaces returns the names of the currently registered namespaces
// in sorted order — the service's observability hook, so the output
// must not leak map-iteration jitter into logs or API responses.
func (s *Server) Namespaces() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.namespaces))
	for name := range s.namespaces {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// Fleet is a set of resident parameter servers — one per fleet machine
// — that outlives any single job. A multi-tenant service creates the
// fleet once; each admitted job joins the servers of the machines its
// plan spans under its own namespace and leaves them on completion.
type Fleet struct {
	servers []*Server
}

// NewFleet returns a resident fleet of one empty server per machine.
func NewFleet(machines int) (*Fleet, error) {
	if machines < 1 {
		return nil, fmt.Errorf("psrt: fleet needs at least one machine, got %d", machines)
	}
	f := &Fleet{servers: make([]*Server, machines)}
	for m := range f.servers {
		f.servers[m] = NewResident()
	}
	return f, nil
}

// Machines returns the fleet's machine count.
func (f *Fleet) Machines() int { return len(f.servers) }

// Server returns machine m's resident server.
func (f *Fleet) Server(m int) *Server { return f.servers[m] }
