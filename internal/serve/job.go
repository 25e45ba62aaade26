// Package serve is the multi-tenant training service: a long-running
// daemon hosting many concurrent Sessions (DESIGN.md §13). Jobs arrive
// as jobspec.Spec documents, pass admission control against the cluster
// inventory, train on their own goroutine with their own parameter
// servers — one per machine, as the paper's runtime launches them
// (§4.2) — and expose their step stream, checkpoints, and Prometheus
// metrics over HTTP. The per-job graph transformation runs at admission
// time instead of process start.
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"parallax/internal/cluster"
	"parallax/internal/jobspec"
)

// State is a job lifecycle state.
type State string

const (
	// Queued: admitted (fits total capacity) but waiting for free share.
	Queued State = "queued"
	// Running: resources acquired, the Session is training.
	Running State = "running"
	// Succeeded: reached its step horizon and closed cleanly.
	Succeeded State = "succeeded"
	// Failed: the Session returned an error or the runner panicked.
	Failed State = "failed"
	// Cancelled: stopped by DELETE /jobs/{id} or daemon shutdown.
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final. Terminal jobs stay in
// the registry so their outcome (and final loss bits) remain queryable.
func (s State) Terminal() bool {
	return s == Succeeded || s == Failed || s == Cancelled
}

// StepEvent is one completed training step as streamed over NDJSON and
// recorded in the job's history.
type StepEvent struct {
	Step             int     `json:"step"`
	Loss             float64 `json:"loss"`
	StepMillis       float64 `json:"step_ms"`
	BytesPushed      int64   `json:"bytes_pushed"`
	WireSentBytes    int64   `json:"wire_sent_bytes,omitempty"`
	WireRecvBytes    int64   `json:"wire_recv_bytes,omitempty"`
	Overlap          float64 `json:"overlap"`
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
}

// checkpointReq is one POST /jobs/{id}/checkpoint, handed to the
// runner goroutine and answered between steps (Save must run from the
// goroutine driving the session).
type checkpointReq struct {
	dir  string
	done chan checkpointResp
}

type checkpointResp struct {
	step int
	err  error
}

// Job is one training job: its immutable identity plus mutable
// lifecycle state guarded by mu. Methods on Job never call back into
// the Service (lock order: Service.mu may be held while taking Job.mu,
// never the reverse).
type Job struct {
	ID     string
	Tenant string
	Spec   jobspec.Spec
	Demand cluster.Demand
	seq    int // admission order, for FIFO-within-tenant

	mu     sync.Mutex
	cond   *sync.Cond // broadcast on step append and state change
	state  State
	err    string
	steps  []StepEvent
	cancel context.CancelFunc

	submitted time.Time
	started   time.Time
	finished  time.Time

	finalLoss     float64
	finalLossBits uint64

	// ckpt carries checkpoint requests to the runner; buffered so a
	// request can park while a step is in flight.
	ckpt chan checkpointReq
}

func newJob(id, tenant string, spec jobspec.Spec, seq int) *Job {
	j := &Job{
		ID: id, Tenant: tenant, Spec: spec,
		Demand:    cluster.DemandOf(spec.Machines, spec.GPUs),
		seq:       seq,
		state:     Queued,
		submitted: time.Now(),
		ckpt:      make(chan checkpointReq, 4),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setRunning transitions queued → running.
func (j *Job) setRunning(cancel context.CancelFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = Running
	j.cancel = cancel
	j.started = time.Now()
	j.cond.Broadcast()
}

// finish transitions to a terminal state, recording the failure cause
// (if any) and the final loss. No-op if already terminal (a cancel
// racing a natural completion keeps the first outcome).
func (j *Job) finish(s State, err error, finalLoss float64, finalBits uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	if err != nil {
		j.err = err.Error()
	}
	j.finalLoss = finalLoss
	j.finalLossBits = finalBits
	j.finished = time.Now()
	j.cond.Broadcast()
}

// observe appends one completed step to the history.
func (j *Job) observe(ev StepEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.steps = append(j.steps, ev)
	j.cond.Broadcast()
}

// waitSteps blocks until the history grows past from, the job reaches
// a terminal state, or ctx is cancelled; it returns the new events and
// whether the job is terminal. The caller resumes from from+len(events).
func (j *Job) waitSteps(ctx context.Context, from int) (events []StepEvent, terminal bool) {
	// A cond can't select on ctx: a watcher goroutine turns cancellation
	// into a broadcast, and the wait loop rechecks ctx on every wake.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.steps) <= from && !j.state.Terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	if from < len(j.steps) {
		events = append(events, j.steps[from:]...)
	}
	return events, j.state.Terminal()
}

// View is the JSON shape of a job in GET /jobs and GET /jobs/{id}.
type View struct {
	ID        string       `json:"id"`
	Tenant    string       `json:"tenant"`
	State     State        `json:"state"`
	Error     string       `json:"error,omitempty"`
	Spec      jobspec.Spec `json:"spec"`
	GPUs      int          `json:"gpus"`
	Submitted time.Time    `json:"submitted"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	StepsDone int          `json:"steps_done"`
	// FinalLoss and FinalLossBits are set on terminal states;
	// FinalLossBits is the hex float64 bit pattern — the same value a
	// direct parallax run prints, so service-vs-direct equivalence is
	// checkable from the API alone.
	FinalLoss     float64 `json:"final_loss,omitempty"`
	FinalLossBits string  `json:"final_loss_bits,omitempty"`
}

// View snapshots the job.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.ID, Tenant: j.Tenant,
		State: j.state, Error: j.err, Spec: j.Spec,
		GPUs: j.Demand.GPUs, Submitted: j.submitted,
		StepsDone: len(j.steps),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.state.Terminal() && j.finalLossBits != 0 {
		v.FinalLoss = j.finalLoss
		v.FinalLossBits = fmt.Sprintf("%016x", j.finalLossBits)
	}
	return v
}

// requestCheckpoint hands a checkpoint request to the runner and waits
// for the between-steps save. It fails fast when the job is not
// running.
func (j *Job) requestCheckpoint(ctx context.Context, dir string) (int, error) {
	if s := j.State(); s != Running {
		return 0, fmt.Errorf("job %s is %s, not running", j.ID, s)
	}
	req := checkpointReq{dir: dir, done: make(chan checkpointResp, 1)}
	select {
	case j.ckpt <- req:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	select {
	case resp := <-req.done:
		return resp.step, resp.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}
