// Package psrt is the parameter-server runtime: real variable storage
// sharded into row-range partitions across server processes, gradient
// accumulators with synchronous-training semantics, versioned pulls, and
// the chief-worker read-back path used for global-norm clipping (§5).
//
// One Server instance corresponds to one server process (the paper
// launches one per machine, colocated with that machine's workers, §4.3).
// Workers interact through Push/Pull; training is synchronous (§2.1): an
// update applies when gradients from all expected sources have arrived — the
// accumulator mechanism of §5 ("we first place accumulators on servers
// ... each accumulator handles gradients of a single sparse variable") —
// and pulls for the next iteration block until the update lands.
//
// The partitioning is not fixed for the server's lifetime: SnapshotPart
// exports a partition's value and optimizer slot state, and ReshardVar
// replaces a variable's partitioning in place (live resharding,
// DESIGN.md §9), seeding versions so the synchronous protocol continues
// without a discontinuity.
//
// # Buffer ownership
//
// The runtime is allocation-disciplined so a persistent training loop does
// not churn the heap:
//
//   - PushDense borrows grad only for the duration of the call and never
//     mutates it. Callers may pass zero-copy views (tensor.SliceRows) of
//     live gradient buffers and reuse them immediately after the call
//     returns. Each partition keeps a preallocated accumulator that the
//     borrowed gradient is summed into.
//   - PushSparse takes ownership of grad: the server may retain and mutate
//     it until the partition's update has been applied. Callers must hand
//     over freshly built tensors (SplitSparse output qualifies) and not
//     touch them afterwards.
//   - Pull allocates a copy; PullInto copies into a caller-owned buffer
//     (typically a SliceRows view of replica storage) and is the
//     allocation-free path the persistent runtime uses.
package psrt

import (
	"fmt"
	"sync"

	"parallax/internal/optim"
	"parallax/internal/tensor"
)

// Config configures a Server.
type Config struct {
	// Sources is the number of gradient pushes expected per partition per
	// step (workers, or machines under local aggregation): an update
	// applies once all of them arrived, and pulls for iteration i+1 wait
	// for update i.
	Sources int
	// Optimizer applies aggregated gradients to served variables. Each
	// server owns the update ops for its variables (smart placement).
	Optimizer optim.Optimizer
	DenseAgg  optim.AggMethod
	SparseAgg optim.AggMethod
	// DeferUpdates holds aggregated gradients until ApplyUpdate is called
	// (the chief-worker clipping path).
	DeferUpdates bool
	// MeanDivisor is the denominator used for AggMean finalization. Under
	// local aggregation each push already sums a whole machine's workers,
	// so the mean must divide by the total worker count, not by the number
	// of pushes. Zero means "use Sources".
	MeanDivisor int
}

// meanDiv returns the effective mean denominator.
func (c Config) meanDiv() int {
	if c.MeanDivisor > 0 {
		return c.MeanDivisor
	}
	return c.Sources
}

// Server hosts variable partitions.
type Server struct {
	// def is the server-wide default config that un-namespaced variables
	// are governed by; nil for resident (namespace-only) servers, which
	// require every variable to be registered through a Namespace.
	def  *Config
	mu   sync.Mutex
	vars map[string]*servedVar

	// namespaces tracks the registered tenant namespaces (namespace.go).
	namespaces map[string]*Namespace

	// abortErr, once set, wakes and fails every blocked version/
	// aggregation wait: the synchronous protocol's waits are satisfied by
	// peer pushes, so when the transport underneath dies mid-step the
	// missing pushes never arrive and only Abort can unpark the waiters.
	abortMu  sync.Mutex
	abortErr error
}

type servedVar struct {
	name   string
	sparse bool
	ranges []tensor.RowRange
	width  int
	dim0   int
	parts  []*part
	// keys[pi] is the optimizer state key for partition pi, precomputed so
	// the per-push apply path never formats strings.
	keys []string
	// cfg governs this variable's update semantics — the server default
	// for legacy variables, the tenant's own config (with its own
	// optimizer instance) for namespaced ones.
	cfg *Config
	// ns is the owning namespace, nil for un-namespaced variables.
	ns *Namespace
}

type part struct {
	mu   sync.Mutex
	cond *sync.Cond

	value *tensor.Dense // [range.Len(), width]

	// accDense is the partition's persistent dense gradient buffer: the
	// accumulator and (between aggregation and apply) the aggregated
	// gradient. It is allocated once
	// in AddVar for dense variables and reused every step — the blocking
	// pull protocol guarantees step i+1's first push cannot arrive before
	// step i's update applied.
	accDense  *tensor.Dense
	accSparse []*tensor.Sparse // retained pushed gradients (ownership transferred)
	pushes    int

	aggregated bool // DeferUpdates: gradients aggregated, not applied
	aggDense   *tensor.Dense
	aggSparse  *tensor.Sparse
	aggSeq     int64   // completed aggregations
	aggNorm2   float64 // squared norm of the latest aggregated gradient

	version int64 // applied updates
}

// validateConfig checks the invariants shared by server defaults and
// namespace configs.
func validateConfig(cfg Config) error {
	if cfg.Sources <= 0 {
		return fmt.Errorf("psrt: server needs Sources > 0")
	}
	if cfg.Optimizer == nil {
		return fmt.Errorf("psrt: nil optimizer")
	}
	return nil
}

// NewServer creates an empty server with a server-wide default config.
func NewServer(cfg Config) (*Server, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	return &Server{def: &cfg, vars: map[string]*servedVar{}}, nil
}

// NewResident creates a namespace-only server: it has no default config,
// so every variable must be registered through a Namespace handle and
// carries that tenant's config. This is the building block of a
// multi-tenant resident fleet (see Fleet).
func NewResident() *Server {
	return &Server{vars: map[string]*servedVar{}}
}

// AddVar registers a variable (or a subset of its partitions) on this
// server under the server default config. init is the full initial
// value; ranges lists the row ranges of ALL partitions (so indices agree
// across servers); owned lists which partition indices this server
// hosts. Resident servers reject AddVar — register through a Namespace.
func (s *Server) AddVar(name string, init *tensor.Dense, ranges []tensor.RowRange, owned []int, sparse bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.def == nil {
		return fmt.Errorf("psrt: resident server requires a namespace to register %q", name)
	}
	if _, dup := s.vars[name]; dup {
		return fmt.Errorf("psrt: variable %q already registered", name)
	}
	_, err := s.addVarLocked(s.def, nil, name, init, ranges, owned, sparse)
	return err
}

// addVarLocked builds and registers a servedVar governed by cfg (owned
// by namespace ns, nil for legacy variables); the caller holds s.mu.
func (s *Server) addVarLocked(cfg *Config, ns *Namespace, name string, init *tensor.Dense, ranges []tensor.RowRange, owned []int, sparse bool) (*servedVar, error) {
	if init.Rank() < 1 {
		return nil, fmt.Errorf("psrt: variable %q has rank 0", name)
	}
	width := init.RowWidth()
	v := &servedVar{
		name:   name,
		sparse: sparse,
		ranges: ranges,
		width:  width,
		dim0:   init.Dim(0),
		parts:  make([]*part, len(ranges)),
		keys:   make([]string, len(ranges)),
		cfg:    cfg,
		ns:     ns,
	}
	for _, pi := range owned {
		if pi < 0 || pi >= len(ranges) {
			return nil, fmt.Errorf("psrt: partition %d out of range for %q", pi, name)
		}
		rr := ranges[pi]
		val := tensor.NewDense(rr.Len(), width)
		copy(val.Data(), init.Data()[rr.Start*width:rr.End*width])
		p := &part{value: val}
		if !sparse {
			p.accDense = tensor.NewDense(rr.Len(), width)
		}
		p.cond = sync.NewCond(&p.mu)
		v.parts[pi] = p
		v.keys[pi] = fmt.Sprintf("%s/part%d", name, pi)
	}
	s.vars[name] = v
	return v, nil
}

// Abort fails every present and future blocking wait (Pull, PullInto,
// SnapshotPart, WaitAggregatedNormSquared) with err. The trainer calls
// it when the transport fabric dies so workers parked on a version wait
// — whose outstanding pushes will never arrive from the dead peer —
// fail fast with the fabric's attributed error instead of hanging on a
// condition variable forever. Idempotent; the first error wins.
// Non-blocking operations (pushes, resharding) are unaffected: the
// aborted server's state remains readable for post-mortem snapshots.
func (s *Server) Abort(err error) {
	if err == nil {
		return
	}
	s.abortMu.Lock()
	if s.abortErr == nil {
		s.abortErr = err
	}
	s.abortMu.Unlock()
	s.mu.Lock()
	vars := make([]*servedVar, 0, len(s.vars))
	for _, v := range s.vars {
		vars = append(vars, v) //parallax:orderinvariant -- wakeup set: the order of cond Broadcasts is unobservable
	}
	s.mu.Unlock()
	for _, v := range vars {
		for _, p := range v.parts {
			if p == nil {
				continue
			}
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
}

// aborted returns the Abort error, if any.
func (s *Server) aborted() error {
	s.abortMu.Lock()
	defer s.abortMu.Unlock()
	return s.abortErr
}

// abortedVar returns the error that should fail v's blocked waits: a
// server-wide Abort, or an Abort scoped to v's namespace.
func (s *Server) abortedVar(v *servedVar) error {
	if err := s.aborted(); err != nil {
		return err
	}
	if v.ns != nil {
		return v.ns.aborted()
	}
	return nil
}

func (s *Server) lookupVar(name string) (*servedVar, error) {
	s.mu.Lock()
	v, ok := s.vars[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("psrt: unknown variable %q", name)
	}
	return v, nil
}

func (s *Server) lookup(name string, pi int) (*servedVar, *part, error) {
	v, err := s.lookupVar(name)
	if err != nil {
		return nil, nil, err
	}
	if pi < 0 || pi >= len(v.parts) || v.parts[pi] == nil {
		return nil, nil, fmt.Errorf("psrt: variable %q partition %d not hosted here", name, pi)
	}
	return v, v.parts[pi], nil
}

func (v *servedVar) partAt(pi int) (*part, error) {
	if pi < 0 || pi >= len(v.parts) || v.parts[pi] == nil {
		return nil, fmt.Errorf("psrt: variable %q partition %d not hosted here", v.name, pi)
	}
	return v.parts[pi], nil
}

// PushDense delivers one source's dense gradient for a partition. The
// gradient must already be in partition-local coordinates (the full
// tensor for unpartitioned variables). grad is borrowed for the duration
// of the call only and is never mutated: zero-copy views of live buffers
// are fine, and the caller may reuse the buffer as soon as PushDense
// returns.
func (s *Server) PushDense(name string, pi int, grad *tensor.Dense) error {
	v, err := s.lookupVar(name)
	if err != nil {
		return err
	}
	return s.pushDensePart(v, pi, grad)
}

func (s *Server) pushDensePart(v *servedVar, pi int, grad *tensor.Dense) error {
	p, err := v.partAt(pi)
	if err != nil {
		return err
	}
	if v.sparse {
		return fmt.Errorf("psrt: dense push to sparse variable %q", v.name)
	}
	if grad.NumElements() != v.ranges[pi].Len()*v.width {
		return fmt.Errorf("psrt: dense push to %s/%d has %d elements, partition wants %d",
			v.name, pi, grad.NumElements(), v.ranges[pi].Len()*v.width)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pushes == 0 {
		copy(p.accDense.Data(), grad.Data())
	} else {
		// Accumulate flat: the gradient may arrive with a different rank
		// than the [rows, width] accumulator (a rank-1 bias pushed as a
		// whole), and both layouts are row-major.
		tensor.AddTo(grad.Data(), p.accDense.Data())
	}
	p.pushes++
	if p.pushes == v.cfg.Sources {
		s.completeLocked(pi, v, p)
	}
	return nil
}

// PushSparse delivers one source's sparse gradient for a partition, rows in
// partition-local coordinates. Ownership of grad transfers to the server:
// it may be retained and mutated until the partition's update applies, so
// the caller must not touch it after the call.
func (s *Server) PushSparse(name string, pi int, grad *tensor.Sparse) error {
	v, err := s.lookupVar(name)
	if err != nil {
		return err
	}
	return s.pushSparsePart(v, pi, grad)
}

func (s *Server) pushSparsePart(v *servedVar, pi int, grad *tensor.Sparse) error {
	p, err := v.partAt(pi)
	if err != nil {
		return err
	}
	if !v.sparse {
		return fmt.Errorf("psrt: sparse push to dense variable %q", v.name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.accSparse = append(p.accSparse, grad)
	p.pushes++
	if p.pushes == v.cfg.Sources {
		s.completeLocked(pi, v, p)
	}
	return nil
}

// completeLocked aggregates the accumulator; with DeferUpdates it parks the
// aggregated gradient for the chief, otherwise applies immediately.
func (s *Server) completeLocked(pi int, v *servedVar, p *part) {
	if v.sparse {
		agg := tensor.SumSparse(p.accSparse)
		optim.FinalizeSparse(agg, v.cfg.meanDiv(), v.cfg.SparseAgg)
		p.aggSparse = agg
		clear(p.accSparse)
		p.accSparse = p.accSparse[:0]
	} else {
		optim.FinalizeDense(p.accDense, v.cfg.meanDiv(), v.cfg.DenseAgg)
		p.aggDense = p.accDense
	}
	p.pushes = 0
	p.aggregated = true
	p.aggSeq++
	if v.cfg.DeferUpdates {
		// The aggregated norm is only read through
		// WaitAggregatedNormSquared, which the chief-clipping path uses;
		// skip the O(elements) computation on the plain sync path.
		if v.sparse {
			p.aggNorm2 = p.aggSparse.L2NormSquared()
		} else {
			p.aggNorm2 = p.aggDense.L2NormSquared()
		}
	}
	if !v.cfg.DeferUpdates {
		s.applyLocked(pi, v, p, 1)
		return
	}
	p.cond.Broadcast() // wake WaitAggregated
}

func (s *Server) applyLocked(pi int, v *servedVar, p *part, scale float32) {
	if v.sparse {
		g := p.aggSparse
		if scale != 1 {
			g.Scale(scale)
		}
		v.cfg.Optimizer.ApplySparse(v.keys[pi], p.value, g)
	} else {
		g := p.aggDense
		if scale != 1 {
			g.Scale(scale)
		}
		v.cfg.Optimizer.ApplyDense(v.keys[pi], p.value, g)
	}
	p.aggSparse = nil
	p.aggDense = nil // the persistent accDense buffer itself is kept
	p.aggregated = false
	p.version++
	p.cond.Broadcast()
}

// WaitAggregatedNormSquared blocks until the partition's seq-th
// aggregation has completed (DeferUpdates mode; pass step+1 for the
// current step) and returns the squared L2 norm of that aggregated
// gradient — the chief-worker read-back of §5 ("to compute a global norm
// of gradients for clipping"). The norm is retained after the update
// applies, so non-chief workers can read it at any point of the step.
func (s *Server) WaitAggregatedNormSquared(name string, pi int, seq int64) (float64, error) {
	v, p, err := s.lookup(name, pi)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.aggSeq < seq {
		if aerr := s.abortedVar(v); aerr != nil {
			return 0, aerr
		}
		p.cond.Wait()
	}
	return p.aggNorm2, nil
}

// ApplyUpdate applies the parked aggregated gradient scaled by scale; only
// the chief worker calls this (DeferUpdates mode).
func (s *Server) ApplyUpdate(name string, pi int, scale float32) error {
	v, p, err := s.lookup(name, pi)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.aggregated {
		return fmt.Errorf("psrt: ApplyUpdate before aggregation of %s/%d", name, pi)
	}
	s.applyLocked(pi, v, p, scale)
	return nil
}

// Pull returns a copy of the partition's value once its version is at least
// minVersion (pass the iteration number for synchronous training; 0 never
// waits).
func (s *Server) Pull(name string, pi int, minVersion int64) (*tensor.Dense, error) {
	v, p, err := s.lookup(name, pi)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.version < minVersion {
		if aerr := s.abortedVar(v); aerr != nil {
			return nil, aerr
		}
		p.cond.Wait()
	}
	return p.value.Clone(), nil
}

// PullInto copies the partition's value into dst — typically a SliceRows
// view of the caller's replica storage — once its version is at least
// minVersion. It is the allocation-free pull used by the persistent
// runtime. dst must have the partition's element count.
func (s *Server) PullInto(name string, pi int, minVersion int64, dst *tensor.Dense) error {
	v, err := s.lookupVar(name)
	if err != nil {
		return err
	}
	return s.pullIntoPart(v, pi, minVersion, dst)
}

func (s *Server) pullIntoPart(v *servedVar, pi int, minVersion int64, dst *tensor.Dense) error {
	p, err := v.partAt(pi)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.version < minVersion {
		if aerr := s.abortedVar(v); aerr != nil {
			return aerr
		}
		p.cond.Wait()
	}
	if dst.NumElements() != p.value.NumElements() {
		return fmt.Errorf("psrt: PullInto %s/%d: dst has %d elements, partition has %d",
			v.name, pi, dst.NumElements(), p.value.NumElements())
	}
	copy(dst.Data(), p.value.Data())
	return nil
}

// PullReq is one partition read of a batched PullManyInto: copy partition
// Part of variable Name into the caller-owned view Dst.
type PullReq struct {
	Name string
	Part int
	Dst  *tensor.Dense
}

// DensePush is one partition write of a batched PushDenseMany. Grad
// follows the PushDense borrowing contract.
type DensePush struct {
	Name string
	Part int
	Grad *tensor.Dense
}

// SparsePush is one partition write of a batched PushSparseMany. Grad
// follows the PushSparse ownership-transfer contract.
type SparsePush struct {
	Name string
	Part int
	Grad *tensor.Sparse
}

// PullManyInto performs a batch of versioned partition reads with one
// call — the per-server pull a worker issues at the top of a step instead
// of one call per partition. Requests for the same variable should be
// adjacent: the variable lookup is amortized across consecutive requests.
// Each read blocks until that partition's version reaches minVersion.
func (s *Server) PullManyInto(minVersion int64, reqs []PullReq) error {
	var v *servedVar
	for i := range reqs {
		r := &reqs[i]
		if v == nil || v.name != r.Name {
			var err error
			if v, err = s.lookupVar(r.Name); err != nil {
				return err
			}
		}
		if err := s.pullIntoPart(v, r.Part, minVersion, r.Dst); err != nil {
			return err
		}
	}
	return nil
}

// PushDenseMany delivers a batch of dense partition gradients with one
// call (one call per server per route instead of one per partition).
// Requests for the same variable should be adjacent.
func (s *Server) PushDenseMany(reqs []DensePush) error {
	var v *servedVar
	for i := range reqs {
		r := &reqs[i]
		if v == nil || v.name != r.Name {
			var err error
			if v, err = s.lookupVar(r.Name); err != nil {
				return err
			}
		}
		if err := s.pushDensePart(v, r.Part, r.Grad); err != nil {
			return err
		}
	}
	return nil
}

// PushSparseMany is PushDenseMany for sparse partitions; each gradient's
// ownership transfers to the server.
func (s *Server) PushSparseMany(reqs []SparsePush) error {
	var v *servedVar
	for i := range reqs {
		r := &reqs[i]
		if v == nil || v.name != r.Name {
			var err error
			if v, err = s.lookupVar(r.Name); err != nil {
				return err
			}
		}
		if err := s.pushSparsePart(v, r.Part, r.Grad); err != nil {
			return err
		}
	}
	return nil
}

// Version returns the partition's applied-update count.
func (s *Server) Version(name string, pi int) (int64, error) {
	_, p, err := s.lookup(name, pi)
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version, nil
}

// SlotNames returns the server default optimizer's slot names in
// SlotState order (empty for stateless optimizers and resident servers)
// — the labels SnapshotPart's slot tensors carry in a checkpoint.
// Namespaced tenants read their own optimizer's via Namespace.SlotNames.
func (s *Server) SlotNames() []string {
	if s.def == nil {
		return nil
	}
	return slotNamesOf(s.def.Optimizer)
}

// slotNamesOf returns opt's slot names if it keeps slot state.
func slotNamesOf(opt optim.Optimizer) []string {
	if ss, ok := opt.(optim.SlotState); ok {
		return ss.Slots()
	}
	return nil
}

// SnapshotPart returns copies of one partition's value and of its
// optimizer slot state, once the partition's version reaches minVersion —
// the gather phase of live resharding (DESIGN.md §9). The slot tensors
// follow the optimizer's SlotState.Slots order; a slot the partition has
// never updated is returned as zeros of the partition shape, which is
// exactly the state a lazily created slot would have. Optimizers without
// slot state yield an empty slots list.
//
// The version wait makes the snapshot self-synchronizing: a remote
// agent's gather request blocks (on this server's serving loop) until
// every source's final pushes have been applied, so no separate drain
// protocol is needed before resharding.
func (s *Server) SnapshotPart(name string, pi int, minVersion int64) (*tensor.Dense, []*tensor.Dense, error) {
	v, err := s.lookupVar(name)
	if err != nil {
		return nil, nil, err
	}
	p, err := v.partAt(pi)
	if err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.version < minVersion {
		if aerr := s.abortedVar(v); aerr != nil {
			return nil, nil, aerr
		}
		p.cond.Wait()
	}
	val := p.value.Clone()
	var slots []*tensor.Dense
	if ss, ok := v.cfg.Optimizer.(optim.SlotState); ok {
		for _, slot := range ss.Slots() {
			if sv := ss.SlotValue(slot, v.keys[pi]); sv != nil {
				slots = append(slots, sv.Clone())
			} else {
				slots = append(slots, tensor.NewDense(v.ranges[pi].Len(), v.width))
			}
		}
	}
	return val, slots, nil
}

// ReshardVar replaces a variable's partitioning in place — the install
// phase of live resharding. The old servedVar (if any) is dropped and its
// partitions' optimizer slot state deleted; if owned is non-empty a new
// servedVar is installed with values sliced from the assembled full value
// init, optimizer slots sliced from the assembled full slot tensors
// (SlotState.Slots order; pass nil for stateless optimizers), and every
// owned partition's version and aggregation sequence seeded to version,
// so the synchronous pull/clip protocol continues counting steps without
// a discontinuity.
//
// ReshardVar must only run while the variable is quiescent: no pushes,
// pulls, or snapshots in flight (the trainer guarantees this with its
// cross-agent resharding barriers).
func (s *Server) ReshardVar(name string, init *tensor.Dense, ranges []tensor.RowRange, owned []int, sparse bool, slots []*tensor.Dense, version int64) error {
	if s.def == nil {
		return fmt.Errorf("psrt: resident server requires a namespace to reshard %q", name)
	}
	return s.reshardVar(s.def, nil, name, init, ranges, owned, sparse, slots, version)
}

// reshardVar is ReshardVar with the governing config and owning
// namespace made explicit (Namespace.ReshardVar passes its own).
func (s *Server) reshardVar(cfg *Config, ns *Namespace, name string, init *tensor.Dense, ranges []tensor.RowRange, owned []int, sparse bool, slots []*tensor.Dense, version int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.vars[name]; ok {
		// Slot state lives in the OLD variable's optimizer (== cfg's for
		// same-tenant reshards, the only kind the trainer performs).
		if oss, ok := old.cfg.Optimizer.(optim.SlotState); ok {
			for pi, p := range old.parts {
				if p != nil {
					oss.DeleteKey(old.keys[pi])
				}
			}
		}
		delete(s.vars, name)
	}
	if len(owned) == 0 {
		return nil
	}
	ss, stateful := cfg.Optimizer.(optim.SlotState)
	if stateful && len(slots) != len(ss.Slots()) {
		return fmt.Errorf("psrt: reshard of %q has %d slot tensors, optimizer keeps %d slots",
			name, len(slots), len(ss.Slots()))
	}
	v, err := s.addVarLocked(cfg, ns, name, init, ranges, owned, sparse)
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
					slot, name, slots[k].NumElements(), v.dim0*v.width)
			}
			sv := tensor.NewDense(rr.Len(), v.width)
			copy(sv.Data(), slots[k].Data()[rr.Start*v.width:rr.End*v.width])
			ss.SetSlot(slot, v.keys[pi], sv)
		}
	}
	return nil
}
