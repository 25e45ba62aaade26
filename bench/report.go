package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// runRecord is one run of one workload as the -out file keeps it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// SelfMs is, for a traced run, the self time of every span name in
	// ms: where the run's wall time went, layer by layer.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
}

// runSet is the JSON form of one invocation: every run it made, on
// which box.
type runSet struct {
	Box     box         `json:"box"`
	Seconds int         `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

func record(w *workload, seed int64, trace bool, r *runResult) runRecord {
	rec := runRecord{
		Workload: w.name, Seed: seed, Trace: trace,
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Problems: r.problems, Metrics: r.metrics,
	}
	if r.tracer != nil {
		rec.SelfMs = make(map[string]float64)
		for name, d := range selfTimes(r.tracer.spans) {
			rec.SelfMs[name] = ms(d)
		}
	}
	return rec
}

func (s *runSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func printBox(out io.Writer, b box) {
	fmt.Fprintf(out, "box: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", b.CPU, b.NProc, b.GOMAXPROCS, b.GoVersion, b.Commit)
}

// printRun prints every metric of one run by name, with its unit, the
// number of samples behind it, their quartiles, and the value reported:
// their median, or the percentile the metric is named after.
func printRun(out io.Writer, r runRecord) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(out, "\n%s seed %d, %s: %d steps attempted, %d failed\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  INCORRECT: %s\n", p)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tn\tvalue\tq1\tq3")
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%.6g\t%.6g\t%.6g\n", name, m.Unit, m.N, m.Value, m.Q1, m.Q3)
	}
	tw.Flush()
	if len(r.SelfMs) == 0 {
		return
	}
	fmt.Fprintln(out, "  self time by span, the span minus what its children cover:")
	for _, name := range sortedKeys(r.SelfMs) {
		fmt.Fprintf(tw, "  %s\tms\t%.3f\n", name, r.SelfMs[name])
	}
	tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// across gathers, per workload and metric, the values of the runs of
// one kind in a set: one value per run, the run's own median.
func (s *runSet) across(trace bool) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range s.Runs {
		if r.Trace != trace || !r.Correct {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound has to stay above.
func spread(s sample) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}

// printSpreads summarises the repeated end-to-end runs of a set: the
// spread of each metric next to its bound.
func printSpreads(out io.Writer, s *runSet) {
	byWorkload := s.across(false)
	fmt.Fprintln(out, "\nend-to-end, across runs:")
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  workload\tmetric\tunit\tn\tmedian\tq1\tq3\tspread\tbound")
	for _, w := range workloads {
		for _, d := range endToEndDecls {
			vals := byWorkload[w.name][d.name]
			if len(vals) == 0 {
				continue
			}
			sm := summarize(vals)
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.2f%%\t%.0f%%\n",
				w.name, d.name, d.unit, sm.N, sm.Value, sm.Q1, sm.Q3, 100*spread(sm), 100*d.bound)
		}
	}
	tw.Flush()
}

// compare prints one row per metric and workload: both medians, the
// ratio with its base, and a verdict. An end-to-end metric is judged
// against its bound, and is unresolved when either side's run-to-run
// spread is wider than the bound; one that repeats for a seed is judged
// seed by seed against its tighter paired bound. A per-layer rung has
// no bound: it is unresolved while the two sides' quartile ranges
// overlap.
func compare(out io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("%s ran for %d s and %s for %d s: run length must be the same on both sides", pathA, a.Seconds, pathB, b.Seconds)
	}
	fmt.Fprint(out, "A ")
	printBox(out, a.Box)
	fmt.Fprint(out, "B ")
	printBox(out, b.Box)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median (n)\tB median (n)\tB/A\tverdict")
	for _, trace := range []bool{false, true} {
		av, bv := a.across(trace), b.across(trace)
		decls := endToEndDecls
		if trace {
			decls = perLayerDecls
		}
		for _, w := range workloads {
			for _, d := range decls {
				xa, xb := av[w.name][d.name], bv[w.name][d.name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				sa, sb := summarize(xa), summarize(xb)
				if trace && len(xa) == 1 && len(xb) == 1 {
					// One traced run a side: fall back on the quartiles of
					// the samples inside each run.
					sa, sb = traced(a, w.name, d.name), traced(b, w.name, d.name)
				}
				ratio := "n/a"
				if sa.Value != 0 {
					ratio = fmt.Sprintf("%.3fx of %.6g", sb.Value/sa.Value, sa.Value)
				}
				v := verdict(d, sa, sb)
				if d.paired > 0 {
					v = pairedVerdict(d, a.bySeed(w.name, d.name), b.bySeed(w.name, d.name))
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%s\t%s\n",
					w.name, d.name, d.unit, sa.Value, sa.N, sb.Value, sb.N, ratio, v)
			}
		}
	}
	return tw.Flush()
}

// traced returns the within-run summary of a rung from a set's traced
// run of a workload.
func traced(s *runSet, workload, name string) sample {
	for _, r := range s.Runs {
		if r.Trace && r.Correct && r.Workload == workload {
			return r.Metrics[name].sample
		}
	}
	return sample{}
}

// bySeed returns a metric's value in each correct untraced run of a
// workload, keyed by the run's seed.
func (s *runSet) bySeed(workload, name string) map[int64]float64 {
	out := make(map[int64]float64)
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && !r.Trace && r.Correct && r.Workload == workload {
			out[r.Seed] = m.Value
		}
	}
	return out
}

// worsening is how far b moved from a in the metric's bad direction, as
// a share of a.
func worsening(d decl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	w := (b - a) / math.Abs(a)
	if d.better == "higher" {
		w = -w
	}
	return w
}

// pairedVerdict judges a metric that repeats for a seed by the seeds
// both sets ran: the median of the seed-by-seed moves against the
// paired bound. Unchanged arithmetic moves no seed at all.
func pairedVerdict(d decl, a, b map[int64]float64) string {
	var moves []float64
	for seed, va := range a {
		if vb, ok := b[seed]; ok {
			moves = append(moves, worsening(d, va, vb))
		}
	}
	if len(moves) == 0 {
		return "unresolved (no seed in both sets)"
	}
	m := summarize(moves)
	note := fmt.Sprintf(" (%d seeds paired, median move %+.3f%%, bound %.1f%%)", m.N, 100*m.Value, 100*d.paired)
	switch {
	case m.Q3-m.Q1 > d.paired:
		return fmt.Sprintf("unresolved (%d seeds paired, moves spread %.2f%% over bound %.1f%%)", m.N, 100*(m.Q3-m.Q1), 100*d.paired)
	case m.Value > d.paired:
		return "worse" + note
	case m.Value < -d.paired:
		return "better" + note
	}
	return "same" + note
}

func verdict(d decl, a, b sample) string {
	worse := worsening(d, a.Value, b.Value)
	if d.bound > 0 {
		switch {
		case spread(a) > d.bound || spread(b) > d.bound:
			return fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% over bound %.0f%%)", 100*spread(a), 100*spread(b), 100*d.bound)
		case worse > d.bound:
			return "worse"
		case worse < -d.bound:
			return "better"
		}
		return "same"
	}
	switch {
	case a.Value == b.Value:
		return "same"
	case a.Q1 <= b.Q3 && b.Q1 <= a.Q3:
		return "unresolved (quartile ranges overlap)"
	case worse > 0:
		return "worse"
	}
	return "better"
}
