// Package optim implements the optimizers and gradient utilities used by
// the training runtimes: plain SGD and momentum SGD, each supporting both
// dense gradients and sparse (IndexedSlices) gradients, plus global-norm
// clipping and the mean that finalizes a gradient aggregated over workers
// (§4.1 lets ParallaxConfig choose "the average of gradients ... or the
// sum"; every job here takes the average).
package optim

import (
	"fmt"
	"slices"
	"sync"

	"parallax/internal/graph"
	"parallax/internal/tensor"
)

// Optimizer applies a gradient to a variable's storage. Implementations
// keep per-variable state keyed by name, so one optimizer instance serves a
// whole model.
type Optimizer interface {
	// ApplyDense performs an in-place update of v with dense gradient g.
	ApplyDense(name string, v *tensor.Dense, g *tensor.Dense)
	// ApplySparse performs an in-place update of v with sparse gradient g,
	// touching only the referenced rows.
	ApplySparse(name string, v *tensor.Dense, g *tensor.Sparse)
}

// SlotState is implemented by optimizers that keep per-key slot state
// (momentum velocity, Adam moments). The parameter-server runtime uses it
// to migrate accumulated state when a variable's partitioning changes at
// runtime (live resharding, DESIGN.md §9): the state of the old partition
// keys is exported row-by-row, reassembled, and imported under the new
// keys, so a resharded run continues bit-identically.
//
// Stateless optimizers (SGD) simply do not implement the interface; the
// migration then moves variable values only.
type SlotState interface {
	// Slots names the per-key state slots in a fixed order ("velocity").
	Slots() []string
	// SlotValue returns the live state tensor for (slot, key), nil if the
	// key has never been updated. The caller must not mutate or retain it
	// across updates; snapshot paths clone it while the key is quiescent.
	SlotValue(slot, key string) *tensor.Dense
	// SetSlot installs state for (slot, key), replacing any existing
	// tensor. The optimizer takes ownership of v.
	SetSlot(slot, key string, v *tensor.Dense)
	// DeleteKey drops all slot state of key (the old partition keys of a
	// resharded variable).
	DeleteKey(key string)
}

// SGD is stateless stochastic gradient descent: v -= lr * g.
type SGD struct {
	LR float32
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float32) *SGD { return &SGD{LR: lr} }

// ApplyDense implements Optimizer.
func (s *SGD) ApplyDense(_ string, v *tensor.Dense, g *tensor.Dense) {
	v.AXPY(-s.LR, g)
}

// ApplySparse implements Optimizer. Duplicate rows accumulate, matching
// TensorFlow's scatter-sub semantics for IndexedSlices.
func (s *SGD) ApplySparse(_ string, v *tensor.Dense, g *tensor.Sparse) {
	tensor.ScatterAddSparse(v, -s.LR, g)
}

// Momentum is SGD with classical momentum. Sparse gradients update only the
// touched rows' velocity, the behaviour of TF's sparse momentum apply.
type Momentum struct {
	LR, Mu float32
	mu     sync.Mutex // guards the vel map (keys are updated under the
	// caller's per-key locks — psrt partition locks — but different keys'
	// applies run concurrently and must not race on the map itself)
	vel map[string]*tensor.Dense
}

// NewMomentum returns a momentum optimizer.
func NewMomentum(lr, mu float32) *Momentum {
	return &Momentum{LR: lr, Mu: mu, vel: make(map[string]*tensor.Dense)}
}

func (m *Momentum) velocity(name string, shape []int) *tensor.Dense {
	m.mu.Lock()
	v, ok := m.vel[name]
	if !ok {
		v = tensor.NewDense(shape...)
		m.vel[name] = v
	}
	m.mu.Unlock()
	return v
}

// Slots implements SlotState: momentum keeps one velocity slot per key.
func (m *Momentum) Slots() []string { return []string{"velocity"} }

// SlotValue implements SlotState.
func (m *Momentum) SlotValue(slot, key string) *tensor.Dense {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.vel[key]
}

// SetSlot implements SlotState.
func (m *Momentum) SetSlot(slot, key string, v *tensor.Dense) {
	m.mu.Lock()
	m.vel[key] = v
	m.mu.Unlock()
}

// DeleteKey implements SlotState.
func (m *Momentum) DeleteKey(key string) {
	m.mu.Lock()
	delete(m.vel, key)
	m.mu.Unlock()
}

// ApplyDense implements Optimizer.
func (m *Momentum) ApplyDense(name string, v *tensor.Dense, g *tensor.Dense) {
	vel := m.velocity(name, v.Shape())
	vel.Scale(m.Mu)
	vel.AddInto(g)
	v.AXPY(-m.LR, vel)
}

// ApplySparse implements Optimizer.
func (m *Momentum) ApplySparse(name string, v *tensor.Dense, g *tensor.Sparse) {
	vel := m.velocity(name, v.Shape())
	co := g.Coalesce()
	w := co.RowWidth()
	for i, r := range co.Rows {
		vrow := vel.Data()[r*w : (r+1)*w]
		grow := co.Values.Data()[i*w : (i+1)*w]
		dst := v.Data()[r*w : (r+1)*w]
		for j := range vrow {
			vrow[j] = m.Mu*vrow[j] + grow[j]
			dst[j] -= m.LR * vrow[j]
		}
	}
}

// FinalizeDense turns a dense gradient summed over workers into their
// mean in place (the synchronous-SGD convention).
func FinalizeDense(g *tensor.Dense, workers int) {
	if workers > 1 {
		g.Scale(1 / float32(workers))
	}
}

// FinalizeSparse turns a concatenated/summed sparse gradient over
// workers into their mean in place.
func FinalizeSparse(g *tensor.Sparse, workers int) {
	if workers > 1 {
		g.Scale(1 / float32(workers))
	}
}

// ClipByGlobalNorm scales all gradients in gs so their joint L2 norm does
// not exceed maxNorm, returning the pre-clip norm. This is the operation
// whose need for *aggregated* gradients forces the chief-worker read-back
// path in §5.
func ClipByGlobalNorm(gs *graph.GradSet, maxNorm float64) float64 {
	if maxNorm <= 0 {
		panic(fmt.Sprintf("optim: maxNorm %v", maxNorm))
	}
	// Collect in sorted-name order: GlobalNorm folds the squared norms
	// in slice order, and a map-ordered fold would make the clip scale
	// — and therefore every clipped bit — differ run to run.
	var denseNames, sparseNames []string
	for name := range gs.Dense {
		denseNames = append(denseNames, name)
	}
	slices.Sort(denseNames)
	for name := range gs.Sparse {
		sparseNames = append(sparseNames, name)
	}
	slices.Sort(sparseNames)
	dense := make([]*tensor.Dense, 0, len(denseNames))
	for _, name := range denseNames {
		dense = append(dense, gs.Dense[name])
	}
	sparse := make([]*tensor.Sparse, 0, len(sparseNames))
	for _, name := range sparseNames {
		sparse = append(sparse, gs.Sparse[name])
	}
	norm := tensor.GlobalNorm(dense, sparse)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, d := range dense {
			d.Scale(scale)
		}
		for _, s := range sparse {
			s.Scale(scale)
		}
	}
	return norm
}
