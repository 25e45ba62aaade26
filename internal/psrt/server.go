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
// A Server belongs to one job: it holds that job's Config (with its own
// optimizer instance), its abort state and a table of its variables keyed
// by name. The data plane is batched — PullManyInto,
// PushDenseMany, PushSparseMany are the only pull/push shapes; a single
// partition is a one-element batch. A pull reads its partition whole or,
// given PullReq.Rows, only the rows listed, packed: a worker whose graph
// merely gathers from an embedding fetches and holds the rows its batch
// names, which is what keeping sparse variables on servers is for (§3.1:
// αw, not w).
//
// The partitioning is not fixed for the server's lifetime: SnapshotPart
// exports a partition's value and optimizer slot state, and
// Server.ReshardVar replaces a variable's partitioning in place (live
// resharding, DESIGN.md §9), seeding versions so the synchronous
// protocol continues without a discontinuity.
//
// # Aggregation order
//
// A partition parks the step's pushes in order of the pushing worker's
// rank (DensePush.Rank, SparsePush.Rank; the serving loop stamps a wire
// push with its client's rank), and the last push folds them in that
// order, dense and sparse alike. float32 addition does not associate,
// so a fold in arrival order would make the sum depend on scheduling
// and wire jitter once a partition has three or more sources. Ranks are
// machine-major, so under local aggregation this is machine order and
// without it worker order; neither depends on the partition count, so
// a reshard changes no bit. Pushes of equal rank keep their arrival
// order.
//
// # Buffer ownership
//
// The runtime is allocation-disciplined so a persistent training loop does
// not churn the heap:
//
//   - PushDenseMany borrows each Grad until the partition has folded the
//     step, which happens inside the step's last push, and never mutates
//     it. Callers may pass zero-copy views (tensor.SliceRows) of gradient
//     buffers that live until the next step. Each partition keeps a
//     preallocated buffer the parked gradients are folded into.
//   - PushSparseMany takes ownership of each Grad: the server may retain
//     and mutate it until the partition's update has been applied. Callers
//     must hand over freshly built tensors (SplitSparse output qualifies)
//     and not touch them afterwards.
//   - PullManyInto copies into caller-owned buffers (typically SliceRows
//     views of replica storage) and allocates nothing, whether a request
//     reads its whole partition or only the rows it lists (PullReq.Rows,
//     borrowed for the call, into a Dst of that many rows); the serving
//     loop instead pulls into a fresh packed tensor, because it must not
//     hold a partition lock while it serializes.
package psrt

import (
	"fmt"
	"slices"
	"sync"

	"parallax/internal/optim"
	"parallax/internal/tensor"
)

// Config is the update semantics of one server's variables.
type Config struct {
	// Sources is the number of gradient pushes expected per partition per
	// step (workers, or machines under local aggregation): an update
	// applies once all of them arrived, and pulls for iteration i+1 wait
	// for update i.
	Sources int
	// Optimizer applies aggregated gradients to served variables. Each
	// server owns the update ops for its variables (smart placement).
	Optimizer optim.Optimizer
	// DeferUpdates holds aggregated gradients until ApplyUpdate is called
	// (the chief-worker clipping path).
	DeferUpdates bool
	// MeanDivisor is the denominator of the mean an aggregated gradient
	// becomes. Under local aggregation each push already sums a whole
	// machine's workers, so the mean must divide by the total worker
	// count, not by the number of pushes. Zero means "use Sources"; 1
	// keeps the raw sum.
	MeanDivisor int
}

// meanDiv returns the effective mean denominator.
func (c Config) meanDiv() int {
	if c.MeanDivisor > 0 {
		return c.MeanDivisor
	}
	return c.Sources
}

// Server hosts variable partitions under one Config.
type Server struct {
	cfg  Config
	mu   sync.Mutex
	vars map[string]*servedVar

	// abortErr, once set, wakes and fails every blocked version/
	// aggregation wait on the server's variables: the synchronous
	// protocol's waits are satisfied by peer pushes, so when the
	// transport underneath dies mid-step the missing pushes never arrive
	// and only Abort can unpark the waiters.
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
	// srv is the hosting server: its config governs this variable's
	// updates, its Abort fails this variable's waits.
	srv *Server
}

type part struct {
	mu   sync.Mutex
	cond *sync.Cond

	value *tensor.Dense // [range.Len(), width]

	// accDense is the partition's persistent dense fold buffer: the
	// aggregated gradient between the fold and the apply. It is allocated
	// once in AddVar for dense variables and reused every step — the
	// trainer's step boundary guarantees step i+1's first push cannot
	// arrive before step i's update applied (DESIGN.md §3).
	accDense *tensor.Dense
	// ranks parks the step's pushes until the last one arrives, sorted
	// by the pushing worker's rank (equal ranks in arrival order); dense
	// (borrowed) or sparse (owned) holds their gradients in that order.
	ranks  []int
	dense  []*tensor.Dense
	sparse []*tensor.Sparse

	aggregated bool // DeferUpdates: gradients aggregated, not applied
	aggDense   *tensor.Dense
	aggSparse  *tensor.Sparse
	aggSeq     int64   // completed aggregations
	aggNorm2   float64 // squared norm of the latest aggregated gradient

	version int64 // applied updates
}

// NewServer creates an empty server whose variables are governed by cfg:
// sources, aggregation, update mode, and the optimizer instance, which
// the server owns exclusively. One per machine is the paper's layout
// (§4.2).
func NewServer(cfg Config) (*Server, error) {
	if cfg.Sources <= 0 {
		return nil, fmt.Errorf("psrt: server needs Sources > 0")
	}
	if cfg.Optimizer == nil {
		return nil, fmt.Errorf("psrt: nil optimizer")
	}
	return &Server{cfg: cfg, vars: map[string]*servedVar{}}, nil
}

// AddVar registers a variable (or a subset of its partitions). init is
// the full initial value; ranges lists the row ranges of ALL partitions
// (so indices agree across servers); owned lists which partition indices
// this server hosts.
func (s *Server) AddVar(name string, init *tensor.Dense, ranges []tensor.RowRange, owned []int, sparse bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.vars[name]; dup {
		return fmt.Errorf("psrt: variable %q already registered", name)
	}
	_, err := s.addVarLocked(name, init, ranges, owned, sparse)
	return err
}

// ReshardVar replaces a variable's partitioning in place — the install
// phase of live resharding and of checkpoint restore. The old servedVar
// (if any) is dropped and its partitions' optimizer slot state deleted;
// if owned is non-empty a new servedVar is installed with values sliced
// from the assembled full value init, optimizer slots sliced from the
// assembled full slot tensors (SlotState.Slots order; pass nil for
// stateless optimizers), and every owned partition's version and
// aggregation sequence seeded to version, so the synchronous pull/clip
// protocol continues counting steps without a discontinuity.
//
// ReshardVar must only run while the variable is quiescent: no pushes,
// pulls, or snapshots in flight (the trainer guarantees this with its
// cross-agent resharding barriers).
func (s *Server) ReshardVar(name string, init *tensor.Dense, ranges []tensor.RowRange, owned []int, sparse bool, slots []*tensor.Dense, version int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, stateful := s.cfg.Optimizer.(optim.SlotState)
	if old, ok := s.vars[name]; ok {
		for pi, p := range old.parts {
			if stateful && p != nil {
				ss.DeleteKey(old.keys[pi])
			}
		}
		delete(s.vars, name)
	}
	if len(owned) == 0 {
		return nil
	}
	if stateful && len(slots) != len(ss.Slots()) {
		return fmt.Errorf("psrt: reshard of %q has %d slot tensors, optimizer keeps %d slots",
			name, len(slots), len(ss.Slots()))
	}
	v, err := s.addVarLocked(name, init, ranges, owned, sparse)
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

// SlotNames returns the server optimizer's slot names in SlotState
// order (empty for stateless optimizers) — the labels SnapshotPart's
// slot tensors carry in a checkpoint.
func (s *Server) SlotNames() []string {
	if ss, ok := s.cfg.Optimizer.(optim.SlotState); ok {
		return ss.Slots()
	}
	return nil
}

// Abort fails every present and future blocking wait (pulls, snapshots,
// WaitAggregatedNormSquared) on the server's variables with err. The
// trainer calls it when its transport fabric dies, so workers parked on
// a version wait — whose outstanding pushes will never arrive from the
// dead peer — fail fast with the fabric's attributed error instead of
// hanging on a condition variable forever. Idempotent; the first error
// wins. Non-blocking operations (pushes, resharding) are unaffected: the
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
	var parts []*part
	for _, v := range s.vars {
		parts = append(parts, v.parts...) //parallax:orderinvariant -- wakeup set: the order of cond Broadcasts is unobservable
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

// aborted returns the server's Abort error, if any.
func (s *Server) aborted() error {
	s.abortMu.Lock()
	defer s.abortMu.Unlock()
	return s.abortErr
}

// addVarLocked builds and registers a servedVar; the caller holds s.mu.
func (s *Server) addVarLocked(name string, init *tensor.Dense, ranges []tensor.RowRange, owned []int, sparse bool) (*servedVar, error) {
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
		srv:    s,
	}
	for _, pi := range owned {
		if pi < 0 || pi >= len(ranges) {
			return nil, fmt.Errorf("psrt: partition %d out of range for %q", pi, name)
		}
		rr := ranges[pi]
		val := tensor.NewDense(rr.Len(), width)
		copy(val.Data(), init.Data()[rr.Start*width:rr.End*width])
		p := &part{value: val, ranks: make([]int, 0, s.cfg.Sources)}
		if sparse {
			p.sparse = make([]*tensor.Sparse, 0, s.cfg.Sources)
		} else {
			p.accDense = tensor.NewDense(rr.Len(), width)
			p.dense = make([]*tensor.Dense, 0, s.cfg.Sources)
		}
		p.cond = sync.NewCond(&p.mu)
		v.parts[pi] = p
		v.keys[pi] = fmt.Sprintf("%s/part%d", name, pi)
	}
	s.vars[name] = v
	return v, nil
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
	p, err := v.partAt(pi)
	return v, p, err
}

func (v *servedVar) partAt(pi int) (*part, error) {
	if pi < 0 || pi >= len(v.parts) || v.parts[pi] == nil {
		return nil, fmt.Errorf("psrt: variable %q partition %d not hosted here", v.name, pi)
	}
	return v.parts[pi], nil
}

// waitVersion parks until p's version reaches minVersion (pass the
// iteration number for synchronous training; 0 never waits) or v's
// server is aborted. The caller holds p.mu.
func (v *servedVar) waitVersion(p *part, minVersion int64) error {
	for p.version < minVersion {
		if err := v.srv.aborted(); err != nil {
			return err
		}
		p.cond.Wait()
	}
	return nil
}

// push parks one source's gradient for a partition, in
// partition-local coordinates (the full tensor for unpartitioned
// variables): dense or sparse, whichever the variable is, the other
// nil. It keeps the step's pushes sorted by rank, and the step's last
// push folds them (completeLocked).
func (v *servedVar) push(pi, rank int, dense *tensor.Dense, sparse *tensor.Sparse) error {
	p, err := v.partAt(pi)
	if err != nil {
		return err
	}
	switch {
	case v.sparse && sparse == nil:
		return fmt.Errorf("psrt: dense push to sparse variable %q", v.name)
	case !v.sparse && dense == nil:
		return fmt.Errorf("psrt: sparse push to dense variable %q", v.name)
	case dense != nil && dense.NumElements() != v.ranges[pi].Len()*v.width:
		return fmt.Errorf("psrt: dense push to %s/%d has %d elements, partition wants %d",
			v.name, pi, dense.NumElements(), v.ranges[pi].Len()*v.width)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := len(p.ranks)
	for k > 0 && p.ranks[k-1] > rank {
		k--
	}
	p.ranks = slices.Insert(p.ranks, k, rank)
	if v.sparse {
		p.sparse = slices.Insert(p.sparse, k, sparse)
	} else {
		p.dense = slices.Insert(p.dense, k, dense)
	}
	if len(p.ranks) == v.srv.cfg.Sources {
		v.completeLocked(pi, p)
	}
	return nil
}

// completeLocked folds the parked pushes in rank order; with
// DeferUpdates it parks the aggregated gradient for the chief, otherwise
// applies immediately.
func (v *servedVar) completeLocked(pi int, p *part) {
	cfg := &v.srv.cfg
	if v.sparse {
		agg := tensor.SumSparse(p.sparse)
		optim.FinalizeSparse(agg, cfg.meanDiv())
		p.aggSparse = agg
		clear(p.sparse)
		p.sparse = p.sparse[:0]
	} else {
		optim.FinalizeDense(tensor.SumDenseInto(p.accDense, p.dense), cfg.meanDiv())
		p.aggDense = p.accDense
		clear(p.dense)
		p.dense = p.dense[:0]
	}
	p.ranks = p.ranks[:0]
	p.aggregated = true
	p.aggSeq++
	if !cfg.DeferUpdates {
		v.applyLocked(pi, p, 1)
		return
	}
	// The aggregated norm is only read through WaitAggregatedNormSquared,
	// which the chief-clipping path uses; the plain sync path skips the
	// O(elements) computation.
	if v.sparse {
		p.aggNorm2 = p.aggSparse.L2NormSquared()
	} else {
		p.aggNorm2 = p.aggDense.L2NormSquared()
	}
	p.cond.Broadcast() // wake WaitAggregated
}

func (v *servedVar) applyLocked(pi int, p *part, scale float32) {
	if v.sparse {
		g := p.aggSparse
		if scale != 1 {
			g.Scale(scale)
		}
		v.srv.cfg.Optimizer.ApplySparse(v.keys[pi], p.value, g)
	} else {
		g := p.aggDense
		if scale != 1 {
			g.Scale(scale)
		}
		v.srv.cfg.Optimizer.ApplyDense(v.keys[pi], p.value, g)
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
		if aerr := v.srv.aborted(); aerr != nil {
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
	v.applyLocked(pi, p, scale)
	return nil
}

// checkRows reports whether rows is a well-formed row list for a
// partition of n rows: strictly ascending — hence duplicate-free — and
// inside [0, n).
func checkRows(rows []int, n int) error {
	for k, r := range rows {
		if r < 0 || r >= n {
			return fmt.Errorf("row %d out of range [0,%d)", r, n)
		}
		if k > 0 && r <= rows[k-1] {
			return fmt.Errorf("row list not strictly ascending (%d after %d)", r, rows[k-1])
		}
	}
	return nil
}

// pullRows is the number of rows a pull of partition pi reads: the
// listed ones, or the whole partition (none for a partition out of
// range, which pullInto refuses).
func (v *servedVar) pullRows(pi int, rows []int) int {
	switch {
	case rows != nil:
		return len(rows)
	case pi >= 0 && pi < len(v.ranges):
		return v.ranges[pi].Len()
	}
	return 0
}

// pullInto copies the partition's value into dst once its version is at
// least minVersion: all of it into a dst shaped like the partition, or
// with a row list just those rows, packed — dst row k receives partition
// row rows[k].
func (v *servedVar) pullInto(pi int, minVersion int64, rows []int, dst *tensor.Dense) error {
	p, err := v.partAt(pi)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := v.waitVersion(p, minVersion); err != nil {
		return err
	}
	want := p.value.NumElements()
	if rows != nil {
		if err := checkRows(rows, p.value.Dim(0)); err != nil {
			return fmt.Errorf("psrt: pull of %s/%d: %w", v.name, pi, err)
		}
		want = len(rows) * v.width
	}
	if dst.NumElements() != want {
		return fmt.Errorf("psrt: pull of %s/%d: dst has %d elements, want %d", v.name, pi, dst.NumElements(), want)
	}
	if rows == nil {
		copy(dst.Data(), p.value.Data())
		return nil
	}
	w, src, out := v.width, p.value.Data(), dst.Data()
	for k, r := range rows {
		copy(out[k*w:(k+1)*w], src[r*w:(r+1)*w])
	}
	return nil
}

// PullReq is one partition read of a batched PullManyInto: copy partition
// Part of variable Name into the caller-owned view Dst, which is shaped
// like the partition. A non-nil Rows makes the read row-addressed: only
// the listed partition-local rows (strictly ascending) are copied,
// packed — Dst has len(Rows) rows, and row k receives partition row
// Rows[k] — what a worker asks for when its batch gathers a few rows of
// an embedding and its replica holds just those (§3.1: a sparse
// variable on PS moves αw, not w). Rows is borrowed for the call.
type PullReq struct {
	Name string
	Part int
	Dst  *tensor.Dense
	Rows []int
}

// DensePush is one partition write of a batched PushDenseMany: Grad is
// borrowed until the partition has folded the step, and Rank, the
// pushing worker's rank, places it in the fold.
type DensePush struct {
	Name string
	Part int
	Rank int
	Grad *tensor.Dense
}

// SparsePush is one partition write of a batched PushSparseMany: Grad's
// ownership transfers to the server, and Rank places it in the fold.
type SparsePush struct {
	Name string
	Part int
	Rank int
	Grad *tensor.Sparse
}

// varFor resolves a batch item's variable, reusing the previous item's
// when the name repeats: requests for the same variable should be
// adjacent, so the lookup is amortized across them.
func (s *Server) varFor(prev *servedVar, name string) (*servedVar, error) {
	if prev != nil && prev.name == name {
		return prev, nil
	}
	return s.lookupVar(name)
}

// PullManyInto performs a batch of versioned partition reads with one
// call — the per-server pull a worker issues at the top of a step. Each
// read blocks until that partition's version reaches minVersion.
func (s *Server) PullManyInto(minVersion int64, reqs []PullReq) (err error) {
	var v *servedVar
	for i := range reqs {
		r := &reqs[i]
		if v, err = s.varFor(v, r.Name); err != nil {
			return err
		}
		if err = v.pullInto(r.Part, minVersion, r.Rows, r.Dst); err != nil {
			return err
		}
	}
	return nil
}

// PushDenseMany delivers a batch of dense partition gradients with one
// call (one call per server per route).
func (s *Server) PushDenseMany(reqs []DensePush) (err error) {
	var v *servedVar
	for i := range reqs {
		r := &reqs[i]
		if v, err = s.varFor(v, r.Name); err != nil {
			return err
		}
		if err = v.push(r.Part, r.Rank, r.Grad, nil); err != nil {
			return err
		}
	}
	return nil
}

// PushSparseMany is PushDenseMany for sparse partitions.
func (s *Server) PushSparseMany(reqs []SparsePush) (err error) {
	var v *servedVar
	for i := range reqs {
		r := &reqs[i]
		if v, err = s.varFor(v, r.Name); err != nil {
			return err
		}
		if err = v.push(r.Part, r.Rank, nil, r.Grad); err != nil {
			return err
		}
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
	v, p, err := s.lookup(name, pi)
	if err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := v.waitVersion(p, minVersion); err != nil {
		return nil, nil, err
	}
	val := p.value.Clone()
	var slots []*tensor.Dense
	if ss, ok := v.srv.cfg.Optimizer.(optim.SlotState); ok {
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
