package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeSteps is long enough for every correctness check and short
// enough for tier-1.
const smokeSteps = 20

// smoke runs a workload for a few timed steps.
func smoke(t *testing.T, w *workload, seed int64, trace bool) *runResult {
	t.Helper()
	res, err := runWorkload(runConfig{
		w: w, seed: seed, trace: trace, scratch: t.TempDir(), setups: 1, reps: 2,
		win: window{warmup: 3, lossSteps: smokeSteps},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Errorf("%s: %s", w.name, p)
	}
	return res
}

// A traced 20-step run of every workload passes its correctness checks
// and reports exactly the rungs declared for it.
func TestSmokeTraced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res := smoke(t, w, 1, true)
			want := namesFor(perLayerDecls, w)
			// Twenty steps cannot support a 99th percentile.
			want = slices.DeleteFunc(want, func(n string) bool { return n == "transform.step_ms_p99" })
			sort.Strings(want)
			if got := sortedKeys(res.metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("reported %v\nwant     %v", got, want)
			}
			for name := range res.metrics {
				if strings.HasPrefix(name, "psrt.") && !w.ps {
					t.Errorf("%s reported for a workload without parameter servers", name)
				}
			}
			if len(res.tracer.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// The untraced run reports every end-to-end metric the workload has and
// nothing else, and none of them is zero. Socket bytes are a metric of
// the workloads with sockets only.
func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range []string{"lm_inproc", "emb_tcp"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		want := namesFor(endToEndDecls, w)
		sort.Strings(want)
		if has := slices.Contains(want, "wire_bytes_per_step"); has != w.tcp {
			t.Errorf("%s: wire_bytes_per_step declared %v with tcp=%v", name, has, w.tcp)
		}
		res := smoke(t, w, 1, false)
		if got := sortedKeys(res.metrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s reported %v, want %v", name, got, want)
		}
		for n, m := range res.metrics {
			if m.Value <= 0 || math.IsNaN(m.Value) {
				t.Errorf("%s: %s = %v", name, n, m.Value)
			}
		}
	}
}

// The seed is the only source of randomness: the same seed gives the
// same loss to the bit, another seed another loss.
func TestSeedDecidesLoss(t *testing.T) {
	w, err := findWorkload("lm_inproc")
	if err != nil {
		t.Fatal(err)
	}
	loss := func(seed int64) uint64 {
		return math.Float64bits(smoke(t, w, seed, false).metrics["loss_final"].Value)
	}
	a, b, c := loss(1), loss(1), loss(2)
	if a != b {
		t.Errorf("seed 1 gave loss bits %x then %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same loss bits %x", a)
	}
}

// Generators are deterministic per seed and differ across seeds, for
// the model's initial values and for the data.
func TestGeneratorsFollowSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		draw := func(seed int64) (init []float32, feeds any) {
			next := w.feeds(seed)
			var fs []any
			for s := 0; s < 3; s++ {
				f, err := next(s, 0)
				if err != nil {
					t.Fatal(err)
				}
				fs = append(fs, f)
			}
			return w.build(seed).Variables()[0].Init.Data(), fs
		}
		i1, f1 := draw(1)
		i1b, f1b := draw(1)
		i2, f2 := draw(2)
		if !reflect.DeepEqual(i1, i1b) || !reflect.DeepEqual(f1, f1b) {
			t.Errorf("%s: seed 1 drew different inputs twice", w.name)
		}
		if reflect.DeepEqual(i1, i2) {
			t.Errorf("%s: seeds 1 and 2 initialise the model alike", w.name)
		}
		if reflect.DeepEqual(f1, f2) {
			t.Errorf("%s: seeds 1 and 2 draw the same data", w.name)
		}
	}
}

// Quartiles follow Python's statistics.quantiles(values, n=4), which
// the driver applies to repeated runs; the expected values are its.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want sample
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, sample{N: 10, Value: 5.5, Q1: 2.75, Q3: 8.25}},
		{[]float64{3, 1, 4, 1, 5}, sample{N: 5, Value: 3, Q1: 1, Q3: 4.5}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples accepted with nine samples beyond it")
	}
	if _, err := percentile(xs, 99.9); err == nil {
		t.Error("p99.9 of 1000 samples accepted with one sample beyond it")
	}
}

// Self time is a span minus the union of what its children cover.
func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "compute", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "comm", Start: 40, End: 90}, // overlaps compute
		{ID: 4, Parent: 3, Name: "wait", Start: 70, End: 90},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"step": 10, "compute": 60, "comm": 30, "wait": 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := decl{better: "lower", bound: 0.10}
	higher := decl{better: "higher", bound: 0.10}
	rung := decl{better: "lower"}
	s := func(v, q1, q3 float64) sample { return sample{N: 10, Value: v, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		d    decl
		a, b sample
		want string
	}{
		{lower, s(100, 99, 101), s(105, 104, 106), "same"},
		{lower, s(100, 99, 101), s(115, 114, 116), "worse"},
		{lower, s(100, 99, 101), s(85, 84, 86), "better"},
		{higher, s(100, 99, 101), s(85, 84, 86), "worse"},
		{lower, s(100, 90, 110), s(80, 79, 81), "unresolved"},
		{rung, s(100, 99, 101), s(110, 109, 111), "worse"},
		{rung, s(100, 95, 108), s(105, 100, 111), "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b); !strings.HasPrefix(got, c.want) {
			t.Errorf("verdict(%v, %v, %v) = %q, want %q", c.d.better, c.a, c.b, got, c.want)
		}
	}
}

// A metric that repeats for a seed is judged seed by seed against its
// paired bound, whatever the spread between seeds.
func TestPairedVerdict(t *testing.T) {
	d := decl{better: "lower", bound: 0.05, paired: 0.005}
	a := map[int64]float64{1: 5.0, 2: 5.5, 3: 6.0}
	scaled := func(f float64) map[int64]float64 {
		b := make(map[int64]float64)
		for seed, v := range a {
			b[seed] = v * f
		}
		return b
	}
	for _, c := range []struct {
		b    map[int64]float64
		want string
	}{
		{scaled(1), "same"},
		{scaled(1.01), "worse"},
		{scaled(0.99), "better"},
		{map[int64]float64{1: 5.0, 2: 5.6, 3: 5.9}, "unresolved"},
		{map[int64]float64{7: 5.0}, "unresolved"},
	} {
		if got := pairedVerdict(d, a, c.b); !strings.HasPrefix(got, c.want) {
			t.Errorf("pairedVerdict(%v) = %q, want %q", c.b, got, c.want)
		}
	}
}

// The quiet stretch is the run of consecutive steps with the least wall
// time, and a stall that strikes inside every such run is in it.
func TestQuietStretch(t *testing.T) {
	steps := func(gapMs func(i int) int) []stepRec {
		at := time.Unix(0, 0)
		rs := make([]stepRec, 100)
		for i := range rs {
			rs[i].prevAt = at
			at = at.Add(time.Duration(gapMs(i)) * time.Millisecond)
			rs[i].at = at
		}
		return rs
	}
	wall := func(q []stepRec) time.Duration { return q[len(q)-1].at.Sub(q[0].prevAt) }

	// The box is slow but for steps 37..56.
	q := quietStretch(steps(func(i int) int {
		if i >= 37 && i < 37+quietSteps {
			return 10
		}
		return 15
	}))
	if len(q) != quietSteps || q[0].prevAt != time.Unix(0, 0).Add(37*15*time.Millisecond) {
		t.Errorf("quiet stretch of %d steps starts at %v", len(q), q[0].prevAt)
	}
	even := wall(q)
	// A stall of 20 ms every seventh step cannot be stepped around.
	stalled := wall(quietStretch(steps(func(i int) int {
		if i%7 == 0 {
			return 30
		}
		return 10
	})))
	if want := even + 2*20*time.Millisecond; stalled < want {
		t.Errorf("quiet stretch with a stall every 7th step took %v, want at least %v", stalled, want)
	}
}

// The run length is the benchmark's, not the caller's: -seconds is
// accepted because the driver passes it, and must name the fixed value.
func TestSecondsIsFixed(t *testing.T) {
	if err := run(options{seconds: runSeconds + 1, repeat: 1}, nil); err == nil || !strings.Contains(err.Error(), "fixed") {
		t.Errorf("-seconds %d accepted: %v", runSeconds+1, err)
	}
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := (&runSet{Seconds: 20}).write(pa); err != nil {
		t.Fatal(err)
	}
	if err := (&runSet{Seconds: 30}).write(pb); err != nil {
		t.Fatal(err)
	}
	if err := compare(io.Discard, pa, pb); err == nil {
		t.Error("sets of different run lengths compared")
	}
}

// BENCHMARK.json at the repository root and the tables in metrics.go
// and workload.go say the same thing.
func TestManifestMatchesDeclarations(t *testing.T) {
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the command runs for %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q, code %q", i, m.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []decl, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d defined", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			e := got[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s %d: manifest %+v, code %s %s %s", kind, i, e, d.name, d.unit, d.better)
			}
			if bounded != (e.Bound != nil) || (bounded && *e.Bound != d.bound) {
				t.Errorf("%s %s: bound in manifest %v, in code %v", kind, d.name, e.Bound, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDecls, true)
	check("per_layer", m.PerLayer, perLayerDecls, false)
}

// Every relative link in README.md resolves, by the rule of the root
// package's TestMarkdownLinks (whose file list this directory cannot
// extend).
func TestReadmeLinks(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\]\(([^)\s]+)\)`).FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		target, _, _ = strings.Cut(target, "#")
		if target == "" {
			continue
		}
		if _, err := os.Stat(target); err != nil {
			t.Errorf("README.md: broken link %q", m[1])
		}
	}
}
