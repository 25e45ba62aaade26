// Command bench is the repository's benchmark: four training workloads
// driven from outside through the public Session API, six end-to-end
// metrics, and a ladder of per-layer rungs timed by calling each
// module's exported functions at the sizes the workload's own graph and
// plan give them. See README.md in this directory; BENCHMARK.json at
// the repository root declares what this command reports.
//
//	go run ./bench                       every workload, untraced and traced
//	go run ./bench -workload lm_inproc   one workload
//	go run ./bench -repeat 10 -out F     ten untraced runs a workload, as JSON
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the timed window
// of every run lasts. The benchmark fixes it, so that two commits are
// always measured over the same window.
const runSeconds = 20

// setupRepeats is how many times a run sets up. A set-up is short, so
// that thirty fit in a few seconds and some of them miss the box's slow
// stretches.
const setupRepeats = 30

// runLimit ends a run that hangs, with a failure, inside the 180 s the
// driver allows: a step that fails on one agent of a TCP pair leaves the
// other waiting for it.
const runLimit = 170 * time.Second

// outDir is where a run writes: scratch checkpoints and trace files.
// It is relative to the repository root, where the command runs.
var outDir = filepath.Join("bench", "out")

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string // "", "0" or "1"
	repeat   int
	out      string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of randomness: model init and data derive from it")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "the driver passes BENCHMARK.json's run_seconds; the run length is fixed and another value is refused")
	flag.StringVar(&o.trace, "trace", "", "0: untraced end-to-end run, 1: traced per-layer run (default: both)")
	flag.IntVar(&o.repeat, "repeat", 1, "untraced runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "", "write the runs as JSON to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare takes two files")
		}
		return compare(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected argument %q", args[0])
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return fmt.Errorf("-trace %q: want 0 or 1", o.trace)
	}
	if o.seconds != runSeconds {
		return fmt.Errorf("-seconds %d: the run length is fixed at %d", o.seconds, runSeconds)
	}
	if o.repeat < 1 {
		return errors.New("-repeat must be at least 1")
	}
	if _, err := os.Stat("bench"); err != nil {
		return errors.New("run from the repository root: go run ./bench")
	}
	if o.workload != "" && o.trace != "" && o.repeat == 1 {
		return leaf(o.workload, o.seed, o.trace == "1", o.out)
	}
	return parent(o)
}

// leaf is one run of one workload in this process: what the driver
// invokes, and what parent re-executes the binary for, so that peak
// RSS, GC state and goroutines never leak from one run into the next.
func leaf(name string, seed int64, trace bool, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	scratch := filepath.Join(outDir, "tmp", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded", runLimit)
		os.Exit(2)
	})

	res, err := runWorkload(runConfig{
		w: w, seed: seed, trace: trace, scratch: scratch, setups: setupRepeats, reps: rungReps,
		win: window{warmup: warmupSteps, lossSteps: w.lossSteps, duration: runSeconds * time.Second},
	})
	if err != nil {
		return err
	}
	if trace {
		if err := res.tracer.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			return err
		}
	}
	set := runSet{Box: fingerprint(), Seconds: runSeconds, Runs: []runRecord{record(w, seed, trace, res)}}
	printBox(os.Stdout, set.Box)
	printRun(os.Stdout, set.Runs[0])
	if out != "" {
		if err := set.write(out); err != nil {
			return err
		}
	}
	if err := printResultLine(w, trace, res); err != nil {
		return err
	}
	if len(res.problems) > 0 {
		return errIncorrect
	}
	return nil
}

// printResultLine prints the driver's contract: one JSON object as the
// last line of standard output. An untraced run carries every
// end-to-end metric and a traced run every per-layer metric. A metric
// the workload does not have, which the report omits, is carried by a
// placeholder: 0 for a rung, and 1 for wire_bytes_per_step on a workload
// without sockets, because the contract refuses an end-to-end 0.
func printResultLine(w *workload, trace bool, res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls, placeholder := endToEndDecls, 1.0
	if trace {
		decls, placeholder = perLayerDecls, 0
	}
	metrics := make(map[string]value, len(decls))
	for _, d := range decls {
		v := placeholder
		if m, ok := res.metrics[d.name]; ok {
			v = m.Value
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// parent runs several leaves, each in a fresh child process, and
// gathers what they report.
func parent(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := findWorkload(o.workload); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(outDir, "tmp", "leaf-"+strconv.Itoa(os.Getpid())+".json")
	defer os.Remove(tmp)

	set := runSet{Box: fingerprint(), Seconds: runSeconds}
	incorrect := false
	child := func(w string, s int64, tr string) error {
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(s, 10), "-trace", tr, "-out", tmp)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return err
		}
		leafSet, rerr := readSet(tmp)
		if rerr != nil {
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			return rerr
		}
		os.Remove(tmp)
		incorrect = incorrect || err != nil
		set.Runs = append(set.Runs, leafSet.Runs...)
		return nil
	}
	for _, w := range names {
		if o.trace != "1" {
			for i := 0; i < o.repeat; i++ {
				if err := child(w, o.seed+int64(i), "0"); err != nil {
					return err
				}
			}
		}
		if o.trace != "0" {
			if err := child(w, o.seed, "1"); err != nil {
				return err
			}
		}
	}
	if o.repeat > 1 {
		printSpreads(os.Stdout, &set)
	}
	if o.out != "" {
		if err := set.write(o.out); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}
