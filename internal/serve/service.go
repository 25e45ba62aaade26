package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"

	"parallax"
	"parallax/internal/cluster"
	"parallax/internal/jobspec"
)

// ErrRejected marks admission failures: the job can never run on this
// cluster (HTTP 409 at the API). Validation failures are plain errors
// (HTTP 400).
var ErrRejected = errors.New("admission rejected")

// Service hosts many training jobs, each with its own parameter
// servers. One Service per daemon; all methods are safe for concurrent
// use.
type Service struct {
	inv *cluster.Inventory
	met *serviceMetrics

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // registry in admission order, for GET /jobs
	queue  []*Job   // admitted, waiting for free share
	alloc  map[string]int
	seq    int
	closed bool
	wg     sync.WaitGroup
}

// New creates a service for a cluster of machines × gpusPerMachine:
// that shape bounds every admission decision.
func New(machines, gpusPerMachine int) (*Service, error) {
	inv, err := cluster.NewInventory(machines, gpusPerMachine)
	if err != nil {
		return nil, err
	}
	s := &Service{
		inv: inv, met: newServiceMetrics(),
		jobs: map[string]*Job{}, alloc: map[string]int{},
	}
	s.met.capacityGPUs.Set(float64(inv.CapacityGPUs()))
	s.met.freeGPUs.Set(float64(inv.FreeGPUs()))
	return s, nil
}

// tenantName is what a tenant may be. A tenant labels every per-tenant
// metrics series, so it stays short and needs no escaping in the
// exposition format.
var tenantName = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// Submit validates and admits one job for tenant ("" means "default").
// A tenant outside [A-Za-z0-9._-]{1,64} or an invalid spec is an error;
// a spec that can never fit the cluster returns ErrRejected; an
// admissible one is queued (and started immediately when the free share
// covers it).
func (s *Service) Submit(tenant string, spec jobspec.Spec) (*Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	if !tenantName.MatchString(tenant) {
		return nil, fmt.Errorf("tenant of %d bytes does not match %s", len(tenant), tenantName)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := cluster.DemandOf(spec.Machines, spec.GPUs)
	if err := s.inv.Admits(d); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRejected, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("service is shutting down")
	}
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), tenant, spec, s.seq)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.queue = append(s.queue, j)
	s.met.submitted.Inc(j.Tenant)
	s.scheduleLocked()
	return j, nil
}

// Job looks up a job by ID (terminal jobs included).
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Views snapshots every job in admission order.
func (s *Service) Views() []View {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	views := make([]View, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	return views
}

// Cancel stops a job: a queued job leaves the queue immediately, a
// running one is context-cancelled and drains at the next step
// boundary. Cancelling a terminal job is an error.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("no such job %s", id)
	}
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.mu.Unlock()
			j.finish(Cancelled, nil, 0, 0)
			s.met.jobsDone.Inc(string(Cancelled), j.Tenant)
			return nil
		}
	}
	s.mu.Unlock()

	j.mu.Lock()
	cancel, state := j.cancel, j.state
	j.mu.Unlock()
	if state.Terminal() {
		return fmt.Errorf("job %s already %s", id, state)
	}
	if cancel != nil {
		cancel()
	}
	return nil
}

// Checkpoint saves a running job's session under dir, between steps.
func (s *Service) Checkpoint(ctx context.Context, id, dir string) (int, error) {
	j, ok := s.Job(id)
	if !ok {
		return 0, fmt.Errorf("no such job %s", id)
	}
	if dir == "" {
		return 0, errors.New("checkpoint dir required")
	}
	return j.requestCheckpoint(ctx, dir)
}

// MetricsText renders the Prometheus exposition.
func (s *Service) MetricsText() string {
	s.updateGauges()
	return s.met.reg.Text()
}

// Shutdown cancels every job and waits for the runners to drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	queued := append([]*Job(nil), s.queue...)
	s.queue = nil
	var cancels []context.CancelFunc
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == Running && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range queued {
		j.finish(Cancelled, nil, 0, 0)
		s.met.jobsDone.Inc(string(Cancelled), j.Tenant)
	}
	for _, c := range cancels {
		c()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// scheduleLocked starts as many queued jobs as the free share covers.
// Order: the tenant with the least GPUs currently allocated goes
// first, FIFO within a tenant; a job that does not fit is skipped so
// smaller jobs may backfill behind it. Caller holds s.mu.
func (s *Service) scheduleLocked() {
	if s.closed {
		return
	}
	for {
		cands := append([]*Job(nil), s.queue...)
		sort.SliceStable(cands, func(a, b int) bool {
			aa, ba := s.alloc[cands[a].Tenant], s.alloc[cands[b].Tenant]
			if aa != ba {
				return aa < ba
			}
			return cands[a].seq < cands[b].seq
		})
		started := false
		for _, j := range cands {
			if !s.inv.TryAcquire(j.Demand) {
				continue
			}
			for i, q := range s.queue {
				if q == j {
					s.queue = append(s.queue[:i], s.queue[i+1:]...)
					break
				}
			}
			s.alloc[j.Tenant] += j.Demand.GPUs
			ctx, cancel := context.WithCancel(context.Background())
			j.setRunning(cancel)
			s.wg.Add(1)
			go s.run(ctx, j)
			started = true
			break // re-sort: allocations changed
		}
		if !started {
			return
		}
	}
}

// jobDone releases a finished job's resources and reschedules.
func (s *Service) jobDone(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inv.Release(j.Demand)
	s.alloc[j.Tenant] -= j.Demand.GPUs
	if s.alloc[j.Tenant] <= 0 {
		delete(s.alloc, j.Tenant)
	}
	s.scheduleLocked()
}

// run drives one job's Session to completion on its own goroutine.
// Panics are confined to the job: the service and its other tenants
// keep running.
func (s *Service) run(ctx context.Context, j *Job) {
	defer s.wg.Done()
	// The outcome is published last: a job turns terminal only once its
	// GPUs are back in the inventory, so whoever sees it finished also
	// sees the capacity it held as free.
	var outcome func()
	finish := func(st State, err error, loss float64, bits uint64) {
		outcome = func() {
			j.finish(st, err, loss, bits)
			s.met.jobsDone.Inc(string(st), j.Tenant)
		}
	}
	defer func() {
		if r := recover(); r != nil && outcome == nil {
			finish(Failed, fmt.Errorf("runner panic: %v", r), 0, 0)
		}
		s.jobDone(j)
		if outcome != nil {
			outcome()
		}
		s.drainCheckpoints(j)
	}()

	spec := j.Spec
	opts, err := spec.Options()
	if err != nil {
		finish(Failed, err, 0, 0)
		return
	}
	sess, err := parallax.Open(ctx, spec.Graph(), spec.Resources(), opts...)
	if err != nil {
		finish(Failed, fmt.Errorf("open: %w", err), 0, 0)
		return
	}
	defer sess.Close()

	ds := spec.Dataset()
	var stats parallax.LoopStats
	var runErr error
	cancelled := false
	for st, err := range sess.Steps(ctx, ds) {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				cancelled = true
			} else {
				runErr = err
			}
			break
		}
		stats.Observe(st)
		s.met.observeStep(j, st)
		s.met.observeSession(j, sess.Epoch(), sess.Recoveries())
		j.observe(stepEvent(st))
		s.answerCheckpoints(j, sess)
		if st.Step >= spec.Steps-1 {
			break
		}
	}

	bits := math.Float64bits(stats.LastLoss)
	switch {
	case runErr != nil:
		finish(Failed, runErr, 0, 0)
	case cancelled:
		finish(Cancelled, nil, stats.LastLoss, bits)
	default:
		finish(Succeeded, nil, stats.LastLoss, bits)
	}
}

// answerCheckpoints serves any parked checkpoint requests at a step
// boundary (Save must run on the goroutine driving the session).
func (s *Service) answerCheckpoints(j *Job, sess *parallax.Session) {
	for {
		select {
		case req := <-j.ckpt:
			err := sess.Save(req.dir)
			if err == nil {
				s.met.checkpoints.Inc(j.ID, j.Tenant)
			}
			req.done <- checkpointResp{step: sess.StepCount(), err: err}
		default:
			return
		}
	}
}

// drainCheckpoints fails requests that arrived too late to be served.
func (s *Service) drainCheckpoints(j *Job) {
	for {
		select {
		case req := <-j.ckpt:
			req.done <- checkpointResp{err: fmt.Errorf("job %s finished before the checkpoint ran", j.ID)}
		default:
			return
		}
	}
}

// updateGauges refreshes the whole-service gauges from current state.
func (s *Service) updateGauges() {
	s.mu.Lock()
	queued, running := 0, 0
	for _, j := range s.jobs {
		switch j.State() {
		case Queued:
			queued++
		case Running:
			running++
		}
	}
	s.mu.Unlock()
	s.met.jobsQueued.Set(float64(queued))
	s.met.jobsRunning.Set(float64(running))
	s.met.freeGPUs.Set(float64(s.inv.FreeGPUs()))
}

func stepEvent(st parallax.StepStats) StepEvent {
	return StepEvent{
		Step:             st.Step,
		Loss:             st.Loss,
		StepMillis:       float64(st.StepTime.Microseconds()) / 1000,
		BytesPushed:      st.BytesPushed,
		WireSentBytes:    st.WireSentBytes,
		WireRecvBytes:    st.WireRecvBytes,
		Overlap:          st.OverlapFraction(),
		CompressionRatio: st.CompressionRatio(),
	}
}
