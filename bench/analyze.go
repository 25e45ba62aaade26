package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	win     window
	setups  int    // how many set-ups stand behind setup_s
	reps    int    // samples behind every ladder rung
	trace   bool   // alternate traced blocks and run the ladder
	scratch string // directory the run may write under
}

// runResult is what one run reports.
type runResult struct {
	attempted, failed int
	// problems lists the correctness checks that failed; empty means the
	// run is correct.
	problems []string
	metrics  map[string]metric
	tracer   *tracer
	// wirePerMachine is the socket bytes one machine sent and received
	// per timed step, kept for the cost-model rung to compare against.
	wirePerMachine float64
}

func (r *runResult) set(name string, s sample) {
	r.metrics[name] = metric{Unit: unitOf(name), sample: s}
}

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setUp is one set-up: graph build, Open and the first setupSteps
// steps, where whatever the program puts off until first use is paid.
// With win's floor and duration zeroed the steps stop after warm-up;
// otherwise they run on into the timed window.
type setUp struct {
	a       *agents
	recs    [][]stepRec
	errs    []error
	open    time.Duration
	seconds float64 // Open + the first steps; 0 when one of them failed
	// before and after bracket the steps, for the allocator's deltas.
	before, after runtime.MemStats
}

func (cfg runConfig) setUp(i int, win window, tr *tracer) (*setUp, error) {
	var su setUp
	var err error
	dir := filepath.Join(cfg.scratch, fmt.Sprintf("auto-%d", i))
	su.open = tr.timed(0, cfg.w.name, "session.open", func() { su.a, err = openAgents(cfg.w, cfg.seed, dir, "") })
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&su.before)
	start := time.Now()
	su.recs, su.errs = drive(su.a, cfg.seed, win, tr)
	runtime.ReadMemStats(&su.after)
	if len(su.recs[0]) >= setupSteps {
		su.seconds = (su.open + su.recs[0][setupSteps-1].at.Sub(start)).Seconds()
	}
	return &su, nil
}

// runWorkload measures one workload: the set-up whose steps run on into
// the timed window, the correctness checks, in a traced run the session
// extras and the ladder, and then the repeat set-ups for setup_s.
//
// The measured session comes first, in a process that has done nothing
// else, as a user's would: peak RSS is then that session's, and not
// whatever the discarded set-ups happened to leave mapped.
func runWorkload(cfg runConfig) (*runResult, error) {
	w := cfg.w
	res := &runResult{metrics: make(map[string]metric)}
	if cfg.trace {
		res.tracer = newTracer()
	}
	tr := res.tracer

	su, err := cfg.setUp(0, cfg.win, tr)
	if err != nil {
		return nil, err
	}
	a, recs := su.a, su.recs
	closed := false
	closeMs := []float64{}
	closeMain := func() {
		if !closed {
			closeMs = append(closeMs, ms(tr.timed(0, w.name, "session.close", a.close)))
			closed = true
		}
	}
	defer closeMain()

	res.attempted = len(recs[0])
	for p, err := range su.errs {
		if err != nil {
			res.attempted++ // the step that yielded the error
			res.failed++
			res.problem("agent %d: step failed: %v", p, err)
		}
	}
	timed := timedSteps(recs, cfg.win.warmup)
	if res.failed == 0 {
		checkLosses(res, recs[0], timed, cfg.win)
	}
	if len(res.problems) > 0 {
		return res, nil
	}
	if cfg.trace {
		fromStream(res, a, recs, timed, cfg.win, &su.before, &su.after)
		if err := sessionExtras(res, a, cfg); err != nil {
			return nil, err
		}
	}
	closeMain()
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.set("peak_rss_mb", point(rss))
	}

	// The repeat set-ups: the first steps only, then closed.
	setupS, openMs := []float64{su.seconds}, []float64{ms(su.open)}
	for i := 1; i < cfg.setups; i++ {
		r, err := cfg.setUp(i, window{warmup: setupSteps}, tr)
		if err != nil {
			return nil, err
		}
		closeMs = append(closeMs, ms(tr.timed(0, w.name, "session.close", r.a.close)))
		if r.seconds == 0 {
			res.failed++
			res.problem("set-up %d: a step failed: %v", i, r.errs)
			return res, nil
		}
		setupS, openMs = append(setupS, r.seconds), append(openMs, ms(r.open))
	}
	if !cfg.trace {
		endToEnd(res, a, recs, timed, setupS, cfg.win)
		return res, nil
	}
	res.set("session.open_ms", summarize(openMs))
	res.set("session.close_ms", summarize(closeMs))
	return res, ladder(res, cfg)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timedSteps drops warm-up and trims every agent to the steps all of
// them completed.
func timedSteps(recs [][]stepRec, warmup int) [][]stepRec {
	n := math.MaxInt
	for _, r := range recs {
		n = min(n, len(r))
	}
	out := make([][]stepRec, len(recs))
	for p, r := range recs {
		if n > warmup {
			out[p] = r[warmup:n]
		}
	}
	return out
}

// checkLosses runs the correctness checks that guard every number: a
// speed that came from broken arithmetic must not be reported.
func checkLosses(res *runResult, all []stepRec, timed [][]stepRec, win window) {
	if len(timed[0]) < win.lossSteps {
		res.problem("only %d timed steps, need %d", len(timed[0]), win.lossSteps)
		return
	}
	for i := range timed[0] {
		l0 := timed[0][i].st.Loss
		if math.IsNaN(l0) || math.IsInf(l0, 0) {
			res.failed++
			res.problem("step %d: loss %v is not finite", timed[0][i].st.Step, l0)
			return
		}
		for p := 1; p < len(timed); p++ {
			if lp := timed[p][i].st.Loss; math.Float64bits(lp) != math.Float64bits(l0) {
				res.problem("step %d: agent %d loss %x differs from agent 0 loss %x",
					timed[0][i].st.Step, p, math.Float64bits(lp), math.Float64bits(l0))
				return
			}
		}
	}
	// Training must have trained: the loss at the fixed step is below the
	// loss the run began with. The first steps of the whole run, warm-up
	// included, are the baseline, because a small model has all but
	// converged by the end of warm-up.
	if first, final := meanLoss(all[:min(firstLossSteps, len(all))]), lossFinal(timed[0], win); !(final < first) {
		res.problem("loss did not fall: first %v, final %v", first, final)
	}
}

func meanLoss(rs []stepRec) float64 {
	var sum float64
	for i := range rs {
		sum += rs[i].st.Loss
	}
	return sum / float64(len(rs))
}

// lossFinal is the mean loss of the lossWindow steps that end at the
// fixed timed step lossSteps.
func lossFinal(timed []stepRec, win window) float64 {
	return meanLoss(timed[max(0, win.lossSteps-lossWindow):win.lossSteps])
}

// quietSteps is the length of the stretch both timings are taken over:
// two auto-save periods, so that it holds exactly two saves where the
// workload saves, wherever it starts.
const quietSteps = 2 * autosaveEvery

// endToEnd computes the metrics a user of the system sees. The slower
// agent sets the pace of a synchronous cluster, so each timing is taken
// per agent and the worse one reported.
//
// Both timings are read over the quiet stretch: the quietSteps
// consecutive timed steps that took the least wall time, yield to yield.
// The box this runs on slows down for seconds and minutes at a time, by
// a quarter and more, and only ever adds time; over the whole window the
// median step and the wall throughput move by 12-40 % between runs of
// the same code (README.md has the measurements), which no bound the
// driver allows can hold. The quiet stretch is throughput that happened:
// every feed, boundary round, step, save, collection and stall of twenty
// steps in a row is in it, so a change that slows some steps and not
// others shows, unless it strikes less than once in twenty steps. The
// whole window's numbers are the traced run's transform.step_ms_p50,
// transform.step_ms_p99 and session.steps_per_s.
func endToEnd(res *runResult, a *agents, recs, timed [][]stepRec, setupS []float64, win window) {
	var step, rate sample
	for p := range timed {
		q := quietStretch(timed[p])
		s := summarize(stepTimesMs(q))
		if s.Value > step.Value {
			step = s
		}
		// The rate of each step of the stretch gives the quartiles; the
		// value is the stretch's steps over its wall time.
		g := summarize(field(q, func(r *stepRec) float64 { return r.gap().Seconds() }))
		wall := q[len(q)-1].at.Sub(q[0].prevAt).Seconds()
		r := sample{N: g.N, Value: float64(len(q)) / wall, Q1: 1 / g.Q3, Q3: 1 / g.Q1}
		if p == 0 || r.Value < rate.Value {
			rate = r
		}
	}
	// The lower quartile: a quarter of the set-ups ran at least this fast.
	// The box's slow stretches move the median of thirty set-ups by a
	// fifth between one ten minutes and the next, the lower quartile by
	// less (README.md).
	setup := summarize(setupS)
	setup.Value = setup.Q1
	res.set("setup_s", setup)
	res.set("step_ms_p50_best20", step)
	res.set("steps_per_s_best20", rate)
	res.set("loss_final", point(lossFinal(timed[0], win)))
	if a.w.tcp {
		res.set("wire_bytes_per_step", point(socketPerStep(recs[0], win.warmup, win.lossSteps)))
	}
}

// quietStretch returns the quietSteps consecutive steps of t with the
// least wall time, or all of t when it is no longer than that.
func quietStretch(t []stepRec) []stepRec {
	if len(t) <= quietSteps {
		return t
	}
	best, bestAt := time.Duration(math.MaxInt64), 0
	for i := 0; i+quietSteps <= len(t); i++ {
		if d := t[i+quietSteps-1].at.Sub(t[i].prevAt); d < best {
			best, bestAt = d, i
		}
	}
	return t[bestAt : bestAt+quietSteps]
}

// socketPerStep is the bytes read and written on every accepted socket
// per step, over the first steps timed steps: the count agent 0 sampled
// at each yield, from the yield of the last warm-up step on. all is
// agent 0's steps, warm-up included. Counting a fixed prefix makes it
// repeat for a seed, whatever the window's length.
func socketPerStep(all []stepRec, warmup, steps int) float64 {
	return float64(all[warmup+steps-1].socket-all[warmup-1].socket) / float64(steps)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, ok := statusField(string(b), "VmHWM:")
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	return kb / 1024, nil
}
