package engine

import (
	"parallax/internal/cluster"
	"parallax/internal/core"
	"parallax/internal/models"
)

// This file schedules per-variable gradient synchronization. Three paths,
// matching core.Method:
//
//   - ring AllReduce   (dense gradients, NCCL protocol)    — §2.1/Fig 2(c)
//   - ring AllGatherv  (sparse gradients, MPI protocol)    — §2.1/Fig 2(d)
//   - parameter server (pull/push, RPC protocol)           — §2.1/Fig 2(a,b)
//
// The PS path implements the paper's optimized PS when
// Config.LocalAggregation is set: gradients are merged inside each machine
// first and one per-machine push flows to each server ("local aggregation
// reduces the amount of data communication between workers and servers",
// §4.3); aggregation and update ops execute on the server that owns the
// variable partition (smart placement). Pulls are always per worker: each
// replica fetches the rows its own next batch needs.
//
// Because workers pipeline across iterations (a fast worker may start
// iteration i+1 while a slow one still synchronizes iteration i), per-
// variable communication state is keyed by iteration.

// varIterState tracks one variable's synchronization for one iteration.
type varIterState struct {
	// fan-in counters
	machineLeft []int // workers yet to produce grad, per machine
	ready       []bool
	recvCount   []int // ring rounds received, per machine
	nextSend    []int // next ring round to send, per machine
	partsLeft   []int // pushes outstanding per partition
	pullsLeft   []int // partition pulls outstanding per worker
	delivered   int   // workers that completed delivery
}

// varComm is the per-variable communication driver.
type varComm struct {
	vi    int
	a     core.Assignment
	iters map[int]*varIterState
}

func (r *runner) initComm() {
	r.comm = make([]*varComm, len(r.cfg.Model.Vars))
	for vi := range r.comm {
		r.comm[vi] = &varComm{vi: vi, a: r.cfg.Plan.Assignments[vi], iters: map[int]*varIterState{}}
	}
}

func (vc *varComm) state(r *runner, iter int) *varIterState {
	st, ok := vc.iters[iter]
	if !ok {
		st = &varIterState{
			machineLeft: make([]int, r.cfg.Machines),
			ready:       make([]bool, r.cfg.Machines),
			recvCount:   make([]int, r.cfg.Machines),
			nextSend:    make([]int, r.cfg.Machines),
			partsLeft:   make([]int, vc.a.Partitions),
			pullsLeft:   make([]int, r.workers),
		}
		for m := range st.machineLeft {
			st.machineLeft[m] = r.cfg.GPUsPerMachine
		}
		nSources := r.workers
		if r.cfg.LocalAggregation && vc.a.Method == core.MethodPS {
			nSources = r.cfg.Machines
		}
		for p := range st.partsLeft {
			st.partsLeft[p] = nSources
		}
		for w := range st.pullsLeft {
			st.pullsLeft[w] = vc.a.Partitions
		}
		vc.iters[iter] = st
	}
	return st
}

// gradProduced is invoked (at the current event time) when worker w's
// gradient for variable vi becomes ready in iteration w.iter.
func (r *runner) gradProduced(w *worker, vi int) {
	vc := r.comm[vi]
	iter := w.iter
	switch vc.a.Method {
	case core.MethodAllReduce, core.MethodAllGatherv:
		r.collectiveGrad(vc, iter, w)
	case core.MethodPS:
		if r.cfg.LocalAggregation {
			r.psMachineGrad(vc, iter, w)
		} else {
			r.psPush(vc, iter, w.machine, vc.a.Alpha)
		}
	}
}

// varDelivered finishes variable vc for one worker; when every worker has
// its fresh value the iteration state is garbage-collected.
func (r *runner) varDelivered(vc *varComm, iter, wid int) {
	st := vc.iters[iter]
	st.delivered++
	if st.delivered == r.workers {
		delete(vc.iters, iter)
	}
	r.deliverVar(wid, vc.vi)
}

// ---- collective paths (AllReduce / AllGatherv) ----

// collectiveGrad counts down a machine's workers; when all have produced
// their gradient, the machine-local merge is staged over the local bus and
// the machine joins the ring.
func (r *runner) collectiveGrad(vc *varComm, iter int, w *worker) {
	st := vc.state(r, iter)
	m := w.machine
	st.machineLeft[m]--
	if st.machineLeft[m] > 0 {
		return
	}
	stage := vc.blockBytes(r)
	if r.cfg.GPUsPerMachine > 1 && stage > 0 {
		r.fab.Local(m, stage, func() { r.machineReady(vc, iter, m) })
	} else {
		r.machineReady(vc, iter, m)
	}
}

// blockBytes is the per-machine payload circulating the ring: the full
// gradient for AllReduce (chunked by N inside the ring), or the machine's
// G·αw concatenated slices for AllGatherv.
func (vc *varComm) blockBytes(r *runner) int64 {
	if vc.a.Method == core.MethodAllGatherv {
		b := int64(vc.a.Alpha * float64(vc.a.Bytes()) * float64(r.cfg.GPUsPerMachine))
		if b < 1 {
			b = 1
		}
		return b
	}
	return vc.a.Bytes()
}

func (vc *varComm) ringRounds(r *runner) int {
	n := r.cfg.Machines
	if vc.a.Method == core.MethodAllGatherv {
		return n - 1
	}
	return 2 * (n - 1)
}

// chunkBytes is the per-round transfer size: w/N for the AllReduce ring
// (reduce-scatter + all-gather), a full machine block for AllGatherv.
func (vc *varComm) chunkBytes(r *runner) int64 {
	if vc.a.Method == core.MethodAllGatherv {
		return vc.blockBytes(r)
	}
	c := vc.a.Bytes() / int64(r.cfg.Machines)
	if c < 1 {
		c = 1
	}
	return c
}

func (vc *varComm) proto() cluster.Protocol {
	if vc.a.Method == core.MethodAllGatherv {
		return cluster.ProtoMPI
	}
	return cluster.ProtoNCCL
}

func (r *runner) machineReady(vc *varComm, iter, m int) {
	st := vc.state(r, iter)
	st.ready[m] = true
	if r.cfg.Machines == 1 {
		r.collectiveFinish(vc, iter, m)
		return
	}
	r.ringPump(vc, iter, m)
}

// ringPump issues machine m's next ring sends while their prerequisites
// hold: m has staged its gradient, sends go in round order, and round k
// requires round k-1 to have arrived.
func (r *runner) ringPump(vc *varComm, iter, m int) {
	st := vc.state(r, iter)
	rounds := vc.ringRounds(r)
	for st.ready[m] && st.nextSend[m] < rounds &&
		(st.nextSend[m] == 0 || st.recvCount[m] >= st.nextSend[m]) {
		k := st.nextSend[m]
		st.nextSend[m] = k + 1
		dst := (m + 1) % r.cfg.Machines
		r.fab.Transfer(m, dst, vc.chunkBytes(r), vc.proto(), func() {
			r.ringRecv(vc, iter, dst, k)
		})
	}
}

func (r *runner) ringRecv(vc *varComm, iter, d, k int) {
	st := vc.state(r, iter)
	st.recvCount[d]++
	if k == vc.ringRounds(r)-1 {
		r.collectiveFinish(vc, iter, d)
		return
	}
	r.ringPump(vc, iter, d)
}

// collectiveFinish broadcasts the aggregated gradient inside machine m and
// applies the update on each of its GPUs.
func (r *runner) collectiveFinish(vc *varComm, iter, m int) {
	hw := r.cfg.HW
	g := r.cfg.GPUsPerMachine
	var applyDur vtime
	if vc.a.Method == core.MethodAllGatherv {
		gathered := vc.a.Alpha * float64(g*r.cfg.Machines)
		applyDur = vtime(gathered*float64(vc.a.Elements())/hw.GPULocalReduceRate) +
			vtime(gathered*float64(vc.a.Rows)*hw.GPURowCost)
	} else {
		applyDur = vtime(float64(vc.a.Elements()) / hw.GPULocalReduceRate)
	}
	finish := func() {
		for gi := 0; gi < g; gi++ {
			wid := m*g + gi
			r.gpus[wid].Use(applyDur, func() { r.varDelivered(vc, iter, wid) })
		}
	}
	if g > 1 {
		bcast := vc.blockBytes(r)
		if vc.a.Method == core.MethodAllGatherv {
			bcast *= int64(r.cfg.Machines)
		}
		r.fab.Local(m, bcast, finish)
	} else {
		finish()
	}
}

// ---- parameter-server path ----

// psMachineGrad implements local aggregation: a machine's workers merge
// their gradients over the local bus, then one push per partition leaves
// the machine carrying the union of its workers' rows.
func (r *runner) psMachineGrad(vc *varComm, iter int, w *worker) {
	st := vc.state(r, iter)
	m := w.machine
	st.machineLeft[m]--
	if st.machineLeft[m] > 0 {
		return
	}
	g := r.cfg.GPUsPerMachine
	stage := int64(vc.a.Alpha * float64(vc.a.Bytes()) * float64(g))
	ua := models.UnionAlpha(vc.a.Alpha, g)
	if g > 1 && stage > 0 {
		r.fab.Local(m, stage, func() { r.psPush(vc, iter, m, ua) })
	} else {
		r.psPush(vc, iter, m, ua)
	}
}

// psPush sends one source's gradient slice to every partition's server.
func (r *runner) psPush(vc *varComm, iter, srcMachine int, alpha float64) {
	p := vc.a.Partitions
	for part := 0; part < p; part++ {
		part := part
		bytes := int64(alpha * float64(vc.a.Bytes()) / float64(p))
		if bytes < 1 {
			bytes = 1
		}
		r.fab.Transfer(srcMachine, vc.a.Servers[part], bytes, cluster.ProtoRPC, func() {
			r.psPushArrived(vc, iter, part, alpha)
		})
	}
}

// psPushArrived counts pushes into a partition; the last one triggers
// aggregation + update on the owning server's CPU streams.
func (r *runner) psPushArrived(vc *varComm, iter, part int, srcAlpha float64) {
	st := vc.state(r, iter)
	st.partsLeft[part]--
	if st.partsLeft[part] > 0 {
		return
	}
	hw := r.cfg.HW
	p := float64(vc.a.Partitions)
	nSources := r.workers
	if r.cfg.LocalAggregation {
		nSources = r.cfg.Machines
	}
	incomingElems := float64(nSources) * srcAlpha * float64(vc.a.Elements()) / p
	uniq := models.UnionAlpha(vc.a.Alpha, r.workers)
	work := vtime(incomingElems/hw.CPUAggRate) +
		vtime(uniq*float64(vc.a.Elements())/p/hw.UpdateRate) +
		vtime(float64(nSources+r.workers)*hw.RPCOverhead) +
		vtime(hw.PartitionOverhead)
	if vc.a.Sparse {
		work += vtime(uniq * float64(vc.a.Rows) / p * hw.RowUpdateCost)
	}
	server := vc.a.Servers[part]
	r.pickCPU(server).Use(work, func() { r.psUpdated(vc, iter, part) })
}

// psUpdated sends the partition's fresh values to every worker (pulls for
// the next iteration).
func (r *runner) psUpdated(vc *varComm, iter, part int) {
	server := vc.a.Servers[part]
	bytes := int64(vc.a.Alpha * float64(vc.a.Bytes()) / float64(vc.a.Partitions))
	if bytes < 1 {
		bytes = 1
	}
	for w := 0; w < r.workers; w++ {
		w := w
		r.fab.Transfer(server, r.ws[w].machine, bytes, cluster.ProtoRPC, func() {
			r.psPullArrived(vc, iter, w)
		})
	}
}

// psPullArrived counts partition arrivals at a worker; the last one pays
// the stitch cost (θ₂·P of Eq. 1) and unblocks the worker.
func (r *runner) psPullArrived(vc *varComm, iter, wid int) {
	st := vc.state(r, iter)
	st.pullsLeft[wid]--
	if st.pullsLeft[wid] > 0 {
		return
	}
	if p := vc.a.Partitions; p > 1 {
		stitch := vtime(float64(p) * r.cfg.HW.StitchCost)
		r.gpus[wid].Use(stitch, func() { r.varDelivered(vc, iter, wid) })
	} else {
		r.varDelivered(vc, iter, wid)
	}
}
