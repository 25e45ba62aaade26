package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parallax"
)

// agents is one opened cluster: a single Session on the channel fabric,
// or two Sessions in this process joined over loopback sockets.
type agents struct {
	w        *workload
	sessions []*parallax.Session
	// listeners are the socket-byte counters, one per agent (TCP only).
	listeners []*countingListener
}

// openAgents builds the graph once per agent, as separate processes
// would, and opens the sessions concurrently: the TCP rendezvous needs
// both sides present. ckptDir is the auto-checkpoint root of guarded
// workloads; restoreFrom, when set, resumes from that checkpoint.
func openAgents(w *workload, seed int64, ckptDir, restoreFrom string) (*agents, error) {
	n := 1
	if w.tcp {
		n = machines
	}
	a := &agents{w: w, sessions: make([]*parallax.Session, n)}
	var addrs []string
	if w.tcp {
		for p := 0; p < n; p++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				a.close()
				return nil, err
			}
			a.listeners = append(a.listeners, &countingListener{Listener: ln})
			addrs = append(addrs, ln.Addr().String())
		}
	}
	res := parallax.Uniform(machines, gpusPerMachine)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			g := w.build(seed)
			opts := w.options(ckptDir)
			if w.tcp {
				opts = append(opts, parallax.WithDistConfig(parallax.DistConfig{
					Machine: p, Addrs: addrs, Listener: a.listeners[p], DialTimeout: 10 * time.Second,
				}))
			}
			if restoreFrom != "" {
				a.sessions[p], errs[p] = parallax.OpenFromCheckpoint(context.Background(), restoreFrom, g, res, opts...)
			} else {
				a.sessions[p], errs[p] = parallax.Open(context.Background(), g, res, opts...)
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			a.close()
			return nil, fmt.Errorf("open agent %d: %w", p, err)
		}
	}
	return a, nil
}

// close closes every agent at once, as two processes would: a
// sequential close parks the first agent in the 30 s close barrier
// waiting for the second.
func (a *agents) close() {
	var wg sync.WaitGroup
	for _, s := range a.sessions {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func(s *parallax.Session) {
			defer wg.Done()
			s.Close()
		}(s)
	}
	wg.Wait()
	for _, l := range a.listeners {
		l.Close() // no-op error once the fabric took and closed it
	}
}

// each runs f for every agent concurrently and returns the first error.
func (a *agents) each(f func(p int, s *parallax.Session) error) error {
	errs := make([]error, len(a.sessions))
	var wg sync.WaitGroup
	for p, s := range a.sessions {
		wg.Add(1)
		go func(p int, s *parallax.Session) {
			defer wg.Done()
			errs[p] = f(p, s)
		}(p, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// socketBytes is the total counted on every accepted connection.
func (a *agents) socketBytes() int64 {
	var n int64
	for _, l := range a.listeners {
		n += l.total()
	}
	return n
}

// stepRec is what the benchmark sees of one step from outside.
type stepRec struct {
	st parallax.StepStats
	// prevAt and at are when the previous and this step were yielded;
	// feedStart and feedEnd bracket the feed callbacks of this step, and
	// feed is the time spent inside them.
	prevAt, feedStart, feedEnd, at time.Time
	feed                           time.Duration
	socket                         int64 // socket bytes counted so far (agent 0 only)
	traced                         bool
}

// gap is the wall time this step took end to end: yield to yield.
func (r *stepRec) gap() time.Duration { return r.at.Sub(r.prevAt) }

// boundary is the Session's own work around the step: agreement and
// membership rounds before the feeds, the periodic save after the step.
func (r *stepRec) boundary() time.Duration {
	return r.gap() - r.st.StepTime - r.feedEnd.Sub(r.feedStart)
}

// traceBlock is the length of the alternating traced and untraced
// blocks of a traced run: interleaving them finely lets one window give
// both sides of the tracing overhead under the same conditions of the
// box. Three does not divide the auto-save period, so saves fall on
// both sides.
const traceBlock = 3

// window is the parameters of one measured run of steps.
type window struct {
	warmup    int
	lossSteps int           // timed steps the window never stops before
	duration  time.Duration // timed wall time the window aims for
}

// drive runs warm-up and the timed window on every agent, one
// closed-loop feeder goroutine per agent, and returns what each saw.
// All agents break at the same step: the first to see the window full
// publishes the stop step two ahead, which no agent can have passed
// because a synchronous step completes nowhere before it started
// everywhere.
func drive(a *agents, seed int64, win window, tr *tracer) ([][]stepRec, []error) {
	n := len(a.sessions)
	recs := make([][]stepRec, n)
	errs := make([]error, n)
	var stopAt atomic.Int64
	stopAt.Store(math.MaxInt64)

	ctx := context.Background()
	if a.w.guarded {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			runID := fmt.Sprintf("%s/agent%d", a.w.name, p)
			inner := a.w.feeds(seed)
			var cur stepRec
			traced := func(step int) bool {
				return tr != nil && step >= win.warmup && ((step-win.warmup)/traceBlock)%2 == 1
			}
			next := func(step, worker int) (parallax.Feed, error) {
				t0 := time.Now()
				if worker == 0 {
					cur.feedStart, cur.feed = t0, 0
				}
				f, err := inner(step, worker)
				t1 := time.Now()
				cur.feed += t1.Sub(t0)
				cur.feedEnd = t1
				if traced(step) {
					tr.add(0, runID, "data.feed", t0, t1, nil)
				}
				return f, err
			}
			cur.prevAt = time.Now()
			start := cur.prevAt // reset at the yield of the last warm-up step
			for st, err := range a.sessions[p].StepsFeeds(ctx, next) {
				now := time.Now()
				if err != nil {
					errs[p] = err
					return
				}
				cur.st, cur.at, cur.traced = st, now, traced(st.Step)
				if p == 0 {
					cur.socket = a.socketBytes()
				}
				recs[p] = append(recs[p], cur)
				if cur.traced {
					traceStep(tr, runID, &cur)
				}
				if st.Step == win.warmup-1 {
					start = now
				}
				timed := st.Step - win.warmup + 1
				if timed >= win.lossSteps && now.Sub(start) >= win.duration {
					stopAt.CompareAndSwap(math.MaxInt64, int64(st.Step)+2)
				}
				if int64(st.Step) >= stopAt.Load() {
					break
				}
				cur.prevAt = now
			}
		}(p)
	}
	wg.Wait()
	return recs, errs
}

// traceStep records one step's spans: the boundary before the feeds,
// the step with the phases StepStats reports as children, and the
// boundary after it. The feeds were recorded as they ran.
func traceStep(tr *tracer, runID string, r *stepRec) {
	stepEnd := r.feedEnd.Add(r.st.StepTime)
	tr.add(0, runID, "session.boundary", r.prevAt, r.feedStart, nil)
	id := tr.add(0, runID, "session.step", r.feedEnd, stepEnd, map[string]float64{
		"step": float64(r.st.Step), "bytes_pushed": float64(r.st.BytesPushed),
		"wire_sent": float64(r.st.WireSentBytes), "wire_recv": float64(r.st.WireRecvBytes),
	})
	// Compute starts with the step; the exchange ends with it, and its
	// unhidden tail is the sync wait.
	tr.add(id, runID, "transform.compute", r.feedEnd, r.feedEnd.Add(r.st.ComputeTime), nil)
	comm := tr.add(id, runID, "transform.comm", stepEnd.Add(-r.st.CommTime), stepEnd, nil)
	tr.add(comm, runID, "transform.syncwait", stepEnd.Add(-r.st.SyncWait), stepEnd, nil)
	tr.add(0, runID, "session.boundary", stepEnd, r.at, nil)
}
