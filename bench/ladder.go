package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"parallax"
	"parallax/internal/cluster"
	"parallax/internal/collective"
	"parallax/internal/core"
	"parallax/internal/engine"
	"parallax/internal/graph"
	"parallax/internal/models"
	"parallax/internal/optim"
	"parallax/internal/psrt"
	"parallax/internal/tensor"
	"parallax/internal/transport"
)

// rungReps is how many samples stand behind every rung's median.
const rungReps = 15

// fusionCapBytes is transform's default fusion-bucket cap (no workload
// overrides it).
const fusionCapBytes = 4 << 20

// shapes are the sizes a workload's own graph and plan give the rungs:
// each rung then costs what the step pays for that layer, and a rung's
// move times its share of the step predicts the end-to-end move.
type shapes struct {
	g    *graph.Graph
	spec *models.Spec
	arch core.Arch
	plan *core.Plan

	bucket  int             // elements of the largest fusion bucket
	m, k, n int             // the largest matmul
	feeds   []parallax.Feed // a few steps of worker feeds

	// The partitioned sparse variable, when the plan has one.
	table   *graph.Variable
	indices string            // name of the input its Gather reads
	ranges  []tensor.RowRange // its partitions
	owned   []int             // the partitions machine 0 serves
	// machineGrad[m] is machine m's locally aggregated gradient split by
	// partition, in partition-local rows: what it pushes each step.
	machineGrad [][]*tensor.Sparse
	perGPU      []*tensor.Sparse // one gradient per worker
}

func newShapes(w *workload, seed int64) (*shapes, error) {
	g := w.build(seed)
	batch := 1
	for _, nd := range g.Nodes() {
		if nd.Kind == graph.OpInput && len(nd.Shape) > 0 {
			batch = nd.Shape[0]
			break
		}
	}
	sh := &shapes{g: g, spec: models.SpecFromGraph(g, nil, batch), arch: core.ArchAR}
	if w.ps {
		sh.arch = core.ArchHybrid
	}
	var err error
	sh.plan, err = core.BuildPlan(engine.PlanVars(sh.spec), core.Options{
		Arch: sh.arch, NumMachines: machines, SparsePartitions: partitions,
		SmartPlacement: sh.arch == core.ArchHybrid,
	})
	if err != nil {
		return nil, err
	}

	// Fusion buckets pack the AllReduce variables in declaration order
	// under the byte cap, as transform.buildFusion does.
	var cur int
	for i, as := range sh.plan.Assignments {
		if as.Method != core.MethodAllReduce {
			continue
		}
		e := int(g.Variables()[i].Elements())
		if cur > 0 && (cur+e)*4 > fusionCapBytes {
			cur = 0
		}
		cur += e
		sh.bucket = max(sh.bucket, cur)
	}
	for _, nd := range g.Nodes() {
		if nd.Kind != graph.OpMatMul {
			continue
		}
		a, b := nd.Inputs[0].Shape, nd.Inputs[1].Shape
		if a[0]*a[1]*b[1] > sh.m*sh.k*sh.n {
			sh.m, sh.k, sh.n = a[0], a[1], b[1]
		}
	}

	next := w.feeds(seed)
	for i := 0; i < 2*workers; i++ {
		f, err := next(i/workers, i%workers)
		if err != nil {
			return nil, err
		}
		sh.feeds = append(sh.feeds, f)
	}
	if !w.ps {
		return sh, nil
	}

	for i, as := range sh.plan.Assignments {
		if as.Method == core.MethodPS && as.Sparse && as.Partitions > 1 {
			sh.table = g.Variables()[i]
			sh.ranges = tensor.PartitionRows(sh.table.Shape[0], as.Partitions)
			for pi, srv := range as.Servers {
				if srv == 0 {
					sh.owned = append(sh.owned, pi)
				}
			}
			break
		}
	}
	if sh.table == nil {
		return nil, fmt.Errorf("%s: no partitioned sparse variable in the plan", w.name)
	}
	for _, nd := range g.Nodes() {
		if nd.Kind == graph.OpGather && nd.Inputs[0].Var == sh.table {
			sh.indices = nd.Inputs[1].Name
		}
	}
	ex, err := graph.NewExec(g)
	if err != nil {
		return nil, err
	}
	for wk := 0; wk < workers; wk++ {
		_, gs, err := ex.Step(sh.feeds[wk])
		if err != nil {
			return nil, err
		}
		sh.perGPU = append(sh.perGPU, gs.Sparse[sh.table.Name])
	}
	for m := 0; m < machines; m++ {
		agg := tensor.SumSparse(sh.perGPU[m*gpusPerMachine : (m+1)*gpusPerMachine])
		sh.machineGrad = append(sh.machineGrad, tensor.SplitSparse(agg, sh.ranges))
	}
	return sh, nil
}

// pushes builds machine m's push to server 0: fresh clones, because a
// direct push hands ownership of the tensors to the server.
func (sh *shapes) pushes(m int) []psrt.SparsePush {
	reqs := make([]psrt.SparsePush, len(sh.owned))
	for i, pi := range sh.owned {
		reqs[i] = psrt.SparsePush{Name: sh.table.Name, Part: pi, Grad: sh.machineGrad[m][pi].Clone()}
	}
	return reqs
}

// pulls builds the pull of server 0's partitions into a replica table.
func (sh *shapes) pulls(dst *tensor.Dense) []psrt.PullReq {
	reqs := make([]psrt.PullReq, len(sh.owned))
	for i, pi := range sh.owned {
		reqs[i] = psrt.PullReq{Name: sh.table.Name, Part: pi, Dst: dst.SliceRows(sh.ranges[pi].Start, sh.ranges[pi].End)}
	}
	return reqs
}

// server returns a synchronous parameter server holding machine 0's
// partitions of the table, configured as the hybrid plan configures it:
// one push per machine, mean over all workers.
func (sh *shapes) server() (*psrt.Server, error) {
	s, err := psrt.NewServer(psrt.Config{Sources: machines, Optimizer: optim.NewSGD(0.1), MeanDivisor: workers})
	if err != nil {
		return nil, err
	}
	return s, s.AddVar(sh.table.Name, sh.table.Init, sh.ranges, sh.owned, true)
}

// lad is one workload's ladder run.
type lad struct {
	res  *runResult
	w    *workload
	sh   *shapes
	reps int // samples per rung
}

// kernel times a single-goroutine call. Each of the samples
// repeats f until about a millisecond has passed, so that the clock's
// grain and the span's cost vanish; it returns per-call nanoseconds.
func (l *lad) kernel(name string, f func()) []float64 {
	f()
	start := time.Now()
	f()
	inner := int(time.Millisecond/(time.Since(start)+1)) + 1
	return l.sampled(name, inner, func() {
		for i := 0; i < inner; i++ {
			f()
		}
	})
}

// sampled times l.reps runs of f, each doing calls calls, and
// returns per-call nanoseconds.
func (l *lad) sampled(name string, calls int, f func()) []float64 {
	out := make([]float64, l.reps)
	for i := range out {
		start := time.Now()
		f()
		end := time.Now()
		l.res.tracer.add(0, "ladder", name, start, end, map[string]float64{"calls": float64(calls)})
		out[i] = float64(end.Sub(start).Nanoseconds()) / float64(calls)
	}
	return out
}

func (l *lad) set(name string, s sample) { l.res.set(name, s) }

// perNs maps per-call nanoseconds to a rate: units of work per call
// over the time, so units per nanosecond (giga-units per second).
func perNs(ns []float64, units float64) sample {
	return summarizeBy(ns, func(t float64) float64 { return units / t })
}

func scale(ns []float64, by float64) sample {
	return summarizeBy(ns, func(t float64) float64 { return t * by })
}

// mallocs returns the heap objects allocated while f runs.
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// ladder runs every rung the workload uses.
func ladder(res *runResult, cfg runConfig) error {
	sh, err := newShapes(cfg.w, cfg.seed)
	if err != nil {
		return err
	}
	l := &lad{res: res, w: cfg.w, sh: sh, reps: cfg.reps}
	l.tensorRungs()
	if err := l.graphRungs(); err != nil {
		return err
	}
	l.optimRungs()
	l.collectiveRungs()
	l.inprocRung()
	if cfg.w.ps {
		if err := l.psrtRungs(); err != nil {
			return err
		}
	}
	if cfg.w.tcp {
		if err := l.tcpRungs(); err != nil {
			return err
		}
	}
	return l.engineRungs()
}

func (l *lad) tensorRungs() {
	sh := l.sh
	rng := tensor.NewRNG(1)
	a, b := rng.RandN(1, sh.m, sh.k), rng.RandN(1, sh.k, sh.n)
	l.set("tensor.matmul_gflops", perNs(l.kernel("tensor.matmul", func() { tensor.MatMul(a, b) }), 2*float64(sh.m*sh.k*sh.n)))

	// Bytes of a vector kernel: one read of src and one write of dst.
	src, dst := rng.RandN(1, sh.bucket).Data(), rng.RandN(1, sh.bucket).Data()
	bytes := 8 * float64(sh.bucket)
	l.set("tensor.axpy_gbps", perNs(l.kernel("tensor.axpy", func() { tensor.Axpy(0.5, src, dst) }), bytes))
	l.set("tensor.addto_gbps", perNs(l.kernel("tensor.addto", func() { tensor.AddTo(src, dst) }), bytes))
	if l.w.f16 {
		q := rng.RandN(1, sh.bucket).Data()
		l.set("tensor.quantize_f16_gbps", perNs(l.kernel("tensor.quantize_f16", func() { tensor.QuantizeF16(q) }), 4*float64(sh.bucket)))
	}
	if l.w.ps {
		local := sh.perGPU[:gpusPerMachine]
		l.set("tensor.sum_sparse_us", scale(l.kernel("tensor.sum_sparse", func() { tensor.SumSparse(local) }), 1e-3))
		pi, grad := sh.largestPart()
		part := tensor.NewDense(sh.ranges[pi].Len(), sh.table.Shape[1])
		l.set("tensor.scatter_add_us", scale(l.kernel("tensor.scatter_add", func() { tensor.ScatterAddSparse(part, -0.1, grad) }), 1e-3))
	}
}

// largestPart returns the partition with the most touched rows in the
// cluster-wide aggregated gradient, and that gradient.
func (sh *shapes) largestPart() (int, *tensor.Sparse) {
	best, bestRows := 0, -1
	var grad *tensor.Sparse
	for pi := range sh.ranges {
		agg := tensor.SumSparse([]*tensor.Sparse{sh.machineGrad[0][pi], sh.machineGrad[1][pi]})
		if agg.NNZRows() > bestRows {
			best, bestRows, grad = pi, agg.NNZRows(), agg
		}
	}
	return best, grad
}

// graphRungs times one replica alone: the single-worker baseline of the
// same task, with no synchronisation at all.
func (l *lad) graphRungs() error {
	ex, err := graph.NewExec(l.sh.g)
	if err != nil {
		return err
	}
	feeds := l.sh.feeds
	i := 0
	var stepErr error
	step := func() {
		if _, _, err := ex.Step(feeds[i%len(feeds)]); err != nil {
			stepErr = err
		}
		i++
	}
	l.set("graph.exec_step_us", scale(l.kernel("graph.exec_step", step), 1e-3))
	l.set("graph.exec_step_allocs", point(mallocs(func() {
		for j := 0; j < l.reps; j++ {
			step()
		}
	})/float64(l.reps)))

	// Time from the start of a step to the first finished gradient: the
	// earliest moment synchronisation can begin to overlap compute.
	first := make([]float64, l.reps)
	for j := range first {
		start := time.Now()
		var at time.Time
		_, _, err := ex.StepStream(feeds[j%len(feeds)], func(string, *tensor.Dense, *tensor.Sparse) {
			if at.IsZero() {
				at = time.Now()
			}
		})
		if err != nil {
			return err
		}
		l.res.tracer.add(0, "ladder", "graph.stream_first_grad", start, at, nil)
		first[j] = us(at.Sub(start))
	}
	l.set("graph.stream_first_grad_us", summarize(first))
	return stepErr
}

func (l *lad) optimRungs() {
	sh := l.sh
	rng := tensor.NewRNG(2)
	sgd := optim.NewSGD(0.1)
	v, g := rng.RandN(1, sh.bucket), rng.RandN(1, sh.bucket)
	l.set("optim.apply_dense_gbps", perNs(l.kernel("optim.apply_dense", func() { sgd.ApplyDense("v", v, g) }), 8*float64(sh.bucket)))
	if l.w.ps {
		pi, grad := sh.largestPart()
		part := tensor.NewDense(sh.ranges[pi].Len(), sh.table.Shape[1])
		l.set("optim.apply_sparse_us", scale(l.kernel("optim.apply_sparse", func() { sgd.ApplySparse("v", part, grad) }), 1e-3))
	}
}

// ranks runs one goroutine per rank of an in-process collective group
// for the length of a rung, so that no rung pays goroutine start-up.
type ranks struct {
	work []chan func(*collective.Comm)
	done chan struct{}
}

func newRanks(n int) *ranks {
	w := collective.NewWorld(n)
	r := &ranks{work: make([]chan func(*collective.Comm), n), done: make(chan struct{})}
	for i := range r.work {
		r.work[i] = make(chan func(*collective.Comm))
		go func(c *collective.Comm, ch chan func(*collective.Comm)) {
			for f := range ch {
				f(c)
				r.done <- struct{}{}
			}
		}(w.Comm(i), r.work[i])
	}
	return r
}

// all runs f on every rank and waits for all of them.
func (r *ranks) all(f func(*collective.Comm)) {
	for _, ch := range r.work {
		ch <- f
	}
	for range r.work {
		<-r.done
	}
}

func (r *ranks) stop() {
	for _, ch := range r.work {
		close(ch)
	}
}

func (l *lad) collectiveRungs() {
	const calls = 10
	r := newRanks(workers)
	defer r.stop()
	rung := func(name string, f func(c *collective.Comm)) []float64 {
		r.all(f)
		return l.sampled(name, calls, func() {
			for i := 0; i < calls; i++ {
				r.all(f)
			}
		})
	}
	bucket, small := make([]*tensor.Dense, workers), make([]*tensor.Dense, workers)
	for i := range bucket {
		// Small values: the sums of repeated reductions stay finite.
		bucket[i], small[i] = tensor.NewDense(l.sh.bucket), tensor.NewDense(64)
	}
	tags, smallTags, f16Tags := collective.TagsFor("bucket"), collective.TagsFor("small"), collective.TagsFor("f16")
	reduce := func(c *collective.Comm) { collective.AllReduceTagged(c, tags, bucket[c.Rank()]) }
	l.set("collective.allreduce_us", scale(rung("collective.allreduce", reduce), 1e-3))
	l.set("collective.allreduce_allocs", point(mallocs(func() {
		for i := 0; i < calls; i++ {
			r.all(reduce)
		}
	})/calls))
	l.set("collective.allreduce_small_us", scale(rung("collective.allreduce_small", func(c *collective.Comm) {
		collective.AllReduceTagged(c, smallTags, small[c.Rank()])
	}), 1e-3))
	if l.w.f16 {
		l.set("collective.allreduce_f16_us", scale(rung("collective.allreduce_f16", func(c *collective.Comm) {
			collective.AllReduceCodecTagged(c, f16Tags, bucket[c.Rank()], transport.CodecF16)
		}), 1e-3))
	}
	outs := make([][]float64, workers)
	for i := range outs {
		outs[i] = make([]float64, workers)
	}
	l.set("collective.scalar_exchange_us", scale(rung("collective.scalar_exchange", func(c *collective.Comm) {
		collective.AllGatherScalarsInto(c, "loss", 1, outs[c.Rank()])
	}), 1e-3))
}

// pingPong times round trips of one scalar between endpoints 0 and 1.
func (l *lad) pingPong(name string, c0, c1 transport.Conduit) []float64 {
	const trips = 50
	return l.sampled(name, trips, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < trips; i++ {
				c1.SendScalar(0, "pp", c1.RecvScalar(0, "pp"))
			}
		}()
		for i := 0; i < trips; i++ {
			c0.SendScalar(1, "pp", 1)
			c0.RecvScalar(1, "pp")
		}
		wg.Wait()
	})
}

func (l *lad) inprocRung() {
	f := transport.NewInproc(transport.WorkersOnly(2))
	defer f.Close()
	l.set("transport.inproc_rtt_us", scale(l.pingPong("transport.inproc_rtt", f.Conduit(0), f.Conduit(1)), 1e-3))
}

// pairTopo is two machines with one worker each: worker endpoints 0
// and 1, server endpoints 2 (machine 0) and 3 (machine 1).
var pairTopo = transport.Topology{Workers: 2, Machines: 2, MachineOfWorker: []int{0, 1}}

// dialPair brings up the two TCP fabrics of pairTopo in this process
// over loopback and returns them with the time the rendezvous took.
func dialPair() (f [2]*transport.TCP, took time.Duration, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, 0, err
	}
	addrs := []string{ln.Addr().String(), "127.0.0.1:0"}
	var errs [2]error
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cfg := transport.TCPConfig{Topo: pairTopo, Process: p, Addrs: addrs}
			if p == 0 {
				cfg.Listener = ln
			}
			f[p], errs[p] = transport.DialTCP(context.Background(), cfg)
		}(p)
	}
	wg.Wait()
	took = time.Since(start)
	for _, e := range errs {
		if e != nil {
			closePair(f)
			return f, 0, e
		}
	}
	return f, took, nil
}

func closePair(f [2]*transport.TCP) {
	for _, x := range f {
		if x != nil {
			x.Close()
		}
	}
}

// oneWay times sends of calls messages from one side, received on the
// other and acknowledged once: throughput of a single direction.
func (l *lad) oneWay(name string, calls int, ack0, ack1 transport.Conduit, send, recv func()) []float64 {
	return l.sampled(name, calls, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				recv()
			}
			ack1.SendScalar(0, "ack", 1)
		}()
		for i := 0; i < calls; i++ {
			send()
		}
		ack0.RecvScalar(1, "ack")
		wg.Wait()
	})
}

func (l *lad) tcpRungs() error {
	sh := l.sh
	dial := make([]float64, l.reps)
	for i := range dial {
		f, took, err := dialPair()
		if err != nil {
			return err
		}
		closePair(f)
		dial[i] = ms(took)
	}
	l.set("transport.dial_ms", summarize(dial))

	f, _, err := dialPair()
	if err != nil {
		return err
	}
	defer closePair(f)
	c0, c1 := f[0].Conduit(0), f[1].Conduit(1)
	l.set("transport.tcp_rtt_us", scale(l.pingPong("transport.tcp_rtt", c0, c1), 1e-3))

	// Messages per sample: enough bytes to outlast connection noise.
	chunk := tensor.NewRNG(3).RandN(1, sh.bucket).Data()
	tensor.QuantizeF16(chunk) // on the f16 grid, so both codecs may carry it
	calls := max(4, (8<<20)/(4*len(chunk)))
	mb := 4 * float64(len(chunk)) / 1e6 * 1e9 // MB per call, over ns
	sendF32 := func() { c0.SendF32(1, "f32", chunk) }
	recvF32 := func() { c1.PutBuf(c1.RecvF32(0, "f32")) }
	l.set("transport.tcp_f32_mbps", perNs(l.oneWay("transport.tcp_f32", calls, c0, c1, sendF32, recvF32), mb))
	l.set("transport.tcp_allocs_per_msg", point(mallocs(func() {
		l.oneWay("transport.tcp_f32", calls, c0, c1, sendF32, recvF32)
	})/float64(calls*l.reps)))
	if l.w.f16 {
		l.set("transport.tcp_f16_mbps", perNs(l.oneWay("transport.tcp_f16", calls, c0, c1,
			func() { c0.SendF32C(1, "f16", chunk, transport.CodecF16) },
			func() { c1.PutBuf(c1.RecvF32(0, "f16")) }), mb))
	}

	var buf []byte
	out := make([]float32, len(chunk))
	var decErr error
	l.set("transport.codec_f32_gbps", perNs(l.kernel("transport.codec_f32", func() {
		buf = transport.AppendF32s(buf[:0], chunk)
		decErr = transport.NewDecoder(buf).F32s(len(out), out)
	}), 4*float64(len(chunk))))
	if l.w.f16 {
		l.set("transport.codec_f16_gbps", perNs(l.kernel("transport.codec_f16", func() {
			buf = transport.AppendF16s(buf[:0], chunk)
			decErr = transport.NewDecoder(buf).F16s(len(out), out)
		}), 4*float64(len(chunk))))
	}
	if decErr != nil {
		return decErr
	}
	if !l.w.ps {
		return nil
	}

	// A machine's sparse push, and a server's pull reply at partition
	// size, each one way.
	grad := tensor.SumSparse(sh.perGPU[:gpusPerMachine])
	gradMB := float64(grad.Bytes()+4*int64(grad.NNZRows())) / 1e6 * 1e9
	l.set("transport.tcp_sparse_mbps", perNs(l.oneWay("transport.tcp_sparse", 64, c0, c1,
		func() { c0.SendSparse(1, "sp", grad) },
		func() { c1.RecvSparse(0, "sp") }), gradMB))
	var parts []*tensor.Dense
	var replyBytes int64
	for _, pi := range sh.owned {
		p := sh.table.Init.SliceRows(sh.ranges[pi].Start, sh.ranges[pi].End)
		parts = append(parts, p)
		replyBytes += p.Bytes()
	}
	srv, wk := f[0].Conduit(pairTopo.ServerEndpoint(0)), f[1].Conduit(1)
	replies := max(4, int((8<<20)/replyBytes))
	l.set("transport.tcp_ps_mbps", perNs(l.oneWay("transport.tcp_ps", replies, c0, c1,
		func() { srv.SendPS(1, psrt.Tag, &transport.PSMsg{Op: transport.PSReply, Dense: parts}) },
		func() { wk.RecvPS(pairTopo.ServerEndpoint(0), psrt.Tag) }), float64(replyBytes)/1e6*1e9))

	return l.clientRungs(f)
}

// rounds times full synchronous rounds on server s: machine 0 pushes its
// aggregated sparse gradient directly, machine 1 pushes through remote
// (the second push aggregates and applies), then machine 0's partitions
// are pulled through remote. remote is the server itself, or a Client
// reaching it over a socket.
func (l *lad) rounds(push, pull string, s *psrt.Server, remote psrt.Endpoint) error {
	sh := l.sh
	pulls := sh.pulls(sh.table.Init.Clone())
	pushUs, pullUs := make([]float64, l.reps), make([]float64, l.reps)
	for i := range pushUs {
		local, far := sh.pushes(0), sh.pushes(1)
		var err error
		pushUs[i] = us(l.res.tracer.timed(0, "ladder", push, func() {
			if err = s.PushSparseMany(local); err == nil {
				err = remote.PushSparseMany(far)
			}
		}))
		if err != nil {
			return err
		}
		pullUs[i] = us(l.res.tracer.timed(0, "ladder", pull, func() { err = remote.PullManyInto(int64(i+1), pulls) }))
		if err != nil {
			return err
		}
	}
	l.set(push+"_us", summarize(pushUs))
	l.set(pull+"_us", summarize(pullUs))
	return nil
}

// psrtRungs times the round on a server called directly, and counts
// what a worker pulls each step against what its batch reads: every
// worker pulls every partition whole, and gathers a few rows.
func (l *lad) psrtRungs() error {
	sh := l.sh
	s, err := sh.server()
	if err != nil {
		return err
	}
	if err := l.rounds("psrt.push_sparse", "psrt.pull_many", s, s); err != nil {
		return err
	}
	rows := sh.table.Shape[0]
	l.set("psrt.pull_bytes_per_step", point(float64(sh.table.Bytes())))
	useful := make([]float64, len(sh.feeds))
	for i, f := range sh.feeds {
		useful[i] = tensor.AlphaOf(f.Ints[sh.indices], rows)
	}
	l.set("psrt.pull_useful_ratio", summarize(useful))
	return nil
}

// clientRungs is the same round with machine 1's half through
// psrt.Client and ServeConduit over loopback.
func (l *lad) clientRungs(f [2]*transport.TCP) error {
	s, err := l.sh.server()
	if err != nil {
		return err
	}
	srvEnd := pairTopo.ServerEndpoint(0)
	served := make(chan struct{})
	go func() {
		defer close(served)
		psrt.ServeConduit(s, f[0].Conduit(srvEnd), 1)
	}()
	// The serving loop ends when its fabric closes; wait for it so the
	// rung leaves no goroutine behind.
	defer func() {
		f[0].Close()
		<-served
	}()
	return l.rounds("psrt.client_push_sparse", "psrt.client_pull_many", s, psrt.NewClient(f[1].Conduit(1), srvEnd))
}

// engineRungs asks the paper's cost model (§3.2) for the same plan, so
// that its prediction stands next to what the run measured.
func (l *lad) engineRungs() error {
	sh := l.sh
	r, err := engine.RunArch(sh.spec, sh.arch, machines, gpusPerMachine, partitions, cluster.DefaultHardware())
	if err != nil {
		return err
	}
	l.set("engine.predicted_step_ms", point(r.StepTime*1e3))
	l.set("engine.predicted_bytes_per_machine", point(r.AvgMachineBytes()))
	l.set("engine.predicted_comm_share", point(1-(sh.spec.FwdTime+sh.spec.BwdTime)/r.StepTime))
	if l.w.tcp {
		l.set("engine.wire_model_ratio", point(l.res.wirePerMachine/r.AvgMachineBytes()))
	}
	return nil
}
