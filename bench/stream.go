package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"parallax"
	"parallax/internal/checkpoint"
)

// fromStream computes the per-layer metrics that come from the
// workload run itself: the StepStats stream the Session yields (public
// output), the time the benchmark spent in its own feed callback, the
// yield-to-yield gaps, the socket counters and the allocator's deltas.
func fromStream(res *runResult, a *agents, recs, timed [][]stepRec, win window, before, after *runtime.MemStats) {
	// Phase medians come from the slower agent, like the end-to-end
	// timings. These are the whole window's numbers, the box's slow
	// stretches included.
	slow := 0
	var slowMed float64
	for p := range timed {
		if m := median(stepTimesMs(timed[p])); m > slowMed {
			slow, slowMed = p, m
		}
	}
	t := timed[slow]
	res.set("transform.compute_ms_p50", summarize(field(t, func(r *stepRec) float64 { return ms(r.st.ComputeTime) })))
	res.set("transform.comm_ms_p50", summarize(field(t, func(r *stepRec) float64 { return ms(r.st.CommTime) })))
	res.set("transform.syncwait_ms_p50", summarize(field(t, func(r *stepRec) float64 { return ms(r.st.SyncWait) })))
	res.set("transform.overlap_fraction", summarize(field(t, func(r *stepRec) float64 { return r.st.OverlapFraction() })))
	stepMs := stepTimesMs(t)
	step := summarize(stepMs)
	res.set("transform.step_ms_p50", step)
	step.Value = slices.Min(stepMs)
	res.set("transform.step_ms_min", step)
	if v, err := percentile(stepMs, 99); err == nil {
		step.Value = v
		res.set("transform.step_ms_p99", step)
	}
	// The allocator's deltas span warm-up too; it is a twentieth of the
	// run or less and allocates like any other step.
	steps := float64(len(recs[0]))
	res.set("transform.allocs_per_step", point(float64(after.Mallocs-before.Mallocs)/steps))
	res.set("transform.alloc_bytes_per_step", point(float64(after.TotalAlloc-before.TotalAlloc)/steps))

	res.set("transform.bytes_pushed_per_step", point(pushedPerStep(timed, win.lossSteps)))

	res.set("data.feed_us_p50", summarize(field(t, func(r *stepRec) float64 { return us(r.feed) })))

	// Timed steps over the wall time of the window, yield to yield.
	gaps := summarize(field(t, func(r *stepRec) float64 { return r.gap().Seconds() }))
	wall := t[len(t)-1].at.Sub(t[0].prevAt).Seconds()
	res.set("session.steps_per_s", sample{N: gaps.N, Value: float64(len(t)) / wall, Q1: 1 / gaps.Q3, Q3: 1 / gaps.Q1})
	bound := field(t, func(r *stepRec) float64 { return us(r.boundary()) })
	res.set("session.boundary_us_p50", summarize(bound))
	if a.w.guarded {
		var save, plain []float64
		for i := range t {
			if (t[i].st.Step+1)%autosaveEvery == 0 {
				save = append(save, bound[i]/1e3)
			} else {
				plain = append(plain, bound[i]/1e3)
			}
		}
		s := summarize(save)
		base := median(plain)
		s.Value, s.Q1, s.Q3 = s.Value-base, s.Q1-base, s.Q3-base
		res.set("session.autosave_stall_ms_p50", s)
	}

	if a.w.tcp {
		// Socket bytes over the timed window, from the counter agent 0
		// sampled at every yield. With two machines each one sends or
		// receives every byte on the link.
		socket := float64(timed[0][len(timed[0])-1].socket - recs[0][win.warmup-1].socket)
		res.wirePerMachine = socket / float64(len(timed[0]))
		var sent int64
		for p := range timed {
			for i := range timed[p] {
				sent += timed[p][i].st.WireSentBytes
			}
		}
		res.set("session.wire_accounting_gap", point(1-float64(sent)/socket))
	}

	// Tracing overhead: the traced and untraced blocks of this one
	// window, compared yield to yield.
	var on, off []float64
	for i := range t {
		if t[i].traced {
			on = append(on, ms(t[i].gap()))
		} else {
			off = append(off, ms(t[i].gap()))
		}
	}
	if len(on) > 0 && len(off) > 0 {
		res.set("trace.overhead_pct", point(100*(median(on)-median(off))/median(off)))
		res.set("trace.coverage_pct", point(traceCoverage(res.tracer, a.w.name, slow, len(on), off)))
	}
}

// traceCoverage is how much of the untraced wall time per step the
// traced steps' spans account for. Boundaries, feeds and steps are root
// spans that tile a traced step yield to yield, and a root span's time
// is its self time plus what its children cover, so the sum of the
// agent's root spans per traced step is set against the untraced mean.
func traceCoverage(tr *tracer, name string, agent, tracedSteps int, untracedGapMs []float64) float64 {
	runID := fmt.Sprintf("%s/agent%d", name, agent)
	tr.mu.Lock()
	var total int64
	for _, s := range tr.spans {
		if s.RunID == runID && s.Parent == 0 {
			total += s.End - s.Start
		}
	}
	tr.mu.Unlock()
	var mean float64
	for _, g := range untracedGapMs {
		mean += g
	}
	mean /= float64(len(untracedGapMs))
	return 100 * float64(total) / 1e6 / float64(tracedSteps) / mean
}

// pushedPerStep is the mean, over the fixed first steps of the window,
// of the gradient payload bytes every agent's workers handed to the
// synchronisation layer: the program's own count.
func pushedPerStep(timed [][]stepRec, steps int) float64 {
	var sum int64
	for p := range timed {
		for i := 0; i < steps; i++ {
			sum += timed[p][i].st.BytesPushed
		}
	}
	return float64(sum) / float64(steps)
}

func stepTimesMs(rs []stepRec) []float64 {
	return field(rs, func(r *stepRec) float64 { return ms(r.st.StepTime) })
}

func field(rs []stepRec, f func(*stepRec) float64) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = f(&rs[i])
	}
	return out
}

// sessionExtras times what a session can do besides stepping, after the
// timed window so that none of it is in an end-to-end number: a full
// Save, the codec on the saved shards, a restore into fresh agents, and
// a live repartition to twice the partitions and back.
func sessionExtras(res *runResult, a *agents, cfg runConfig) error {
	tr, w := res.tracer, cfg.w
	dir := filepath.Join(cfg.scratch, "save")
	var saveMs []float64
	for i := 0; i < cfg.reps; i++ {
		var err error
		d := tr.timed(0, w.name, "session.save", func() {
			err = a.each(func(_ int, s *parallax.Session) error { return s.Save(dir) })
		})
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		saveMs = append(saveMs, ms(d))
	}
	var bytes int64
	for m := 0; m < machines; m++ {
		fi, err := os.Stat(checkpoint.ShardPath(dir, m))
		if err != nil {
			return err
		}
		bytes += fi.Size()
	}
	res.set("session.save_mbps", rate(saveMs, float64(bytes)/1e6))
	if err := checkpointRungs(res, dir, cfg.reps); err != nil {
		return err
	}

	if w.ps {
		var reMs []float64
		for i := 0; i < cfg.reps; i++ {
			var err error
			d := tr.timed(0, w.name, "session.repartition", func() {
				for _, p := range []int{2 * partitions, partitions} {
					if err == nil {
						err = a.each(func(_ int, s *parallax.Session) error { return s.Repartition(p) })
					}
				}
			})
			if err != nil {
				return fmt.Errorf("repartition: %w", err)
			}
			reMs = append(reMs, ms(d)/2)
		}
		res.set("session.repartition_ms", summarize(reMs))
	}

	var restoreMs []float64
	for i := 0; i < cfg.setups; i++ {
		var b *agents
		var err error
		auto := filepath.Join(cfg.scratch, fmt.Sprintf("restore-%d", i))
		d := tr.timed(0, w.name, "session.restore", func() { b, err = openAgents(w, cfg.seed, auto, dir) })
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		restoreMs = append(restoreMs, ms(d))
		b.close()
	}
	res.set("session.restore_ms", summarize(restoreMs))
	return nil
}

// rate turns per-call times in ms into MB/s for a payload of mb.
func rate(timesMs []float64, mb float64) sample {
	return summarizeBy(timesMs, func(t float64) float64 { return mb / (t / 1e3) })
}

// checkpointRungs times the checkpoint codec on machine 0's shard of
// the run's own save: the largest one, since it also holds the
// replicated variables, and so the one a save waits for.
func checkpointRungs(res *runResult, dir string, reps int) error {
	tr := res.tracer
	meta, recs, err := checkpoint.ReadShard(dir, 0)
	if err != nil {
		return err
	}
	b, err := checkpoint.Encode(meta, recs)
	if err != nil {
		return err
	}
	var encMs, decMs []float64
	for i := 0; i < reps; i++ {
		encMs = append(encMs, ms(tr.timed(0, "ladder", "checkpoint.encode", func() { _, err = checkpoint.Encode(meta, recs) })))
		if err != nil {
			return err
		}
		decMs = append(decMs, ms(tr.timed(0, "ladder", "checkpoint.decode", func() { _, _, err = checkpoint.Decode(b) })))
		if err != nil {
			return err
		}
	}
	mb := float64(len(b)) / 1e6
	res.set("checkpoint.encode_mbps", rate(encMs, mb))
	res.set("checkpoint.decode_mbps", rate(decMs, mb))
	res.set("checkpoint.shard_bytes", point(float64(len(b))))
	return nil
}
