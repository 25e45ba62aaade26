package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// agentEnv, set in a child's environment, makes the test binary the
// agent: TestMain hands the child's arguments to main, so the scenarios
// drive real agent processes without building one.
const agentEnv = "PARALLAX_AGENT_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(agentEnv) == "1" {
		main()
	}
	os.Exit(m.Run())
}

// pinned is the final-loss bits of the standard job every scenario runs
// (common's flags, two machines unless the key says otherwise): each
// in-process reference must print its entry, and each agent its
// reference's bits.
var pinned = map[string]string{
	"none":      "4017c06869b5ad18", // -partitions 0 searches its way to the same bits
	"f16":       "4017c06810d86f1c",
	"topk":      "4017c3f51e5cc21e",
	"optps":     "4017c068695adbe3", // -arch optps -clip 1.0
	"ps":        "4017c0686949eb94",
	"machines3": "4017445586ddd8cd",
}

const (
	// common leads every process's flags; a later flag overrides it.
	common = "-gpus 2 -steps 30 -vocab 500"
	// recoverable is a run that survives a peer's death.
	recoverable = "-auto-checkpoint {root} -auto-checkpoint-every 10 -recover"
	elastic     = recoverable + " -elastic -allow-shrink"
)

// A scenario is one cross-process check: an in-process reference run,
// then phases of agent processes (a phase's agents run together, the
// phases one after another), then what they must have printed. Every
// agent of the last phase that exits 0 must print the reference's bits,
// or, with no reference, the same bits as the others.
type scenario struct {
	name     string
	ref      string // the reference run's flags ("" = none)
	pin      string // the pinned entry the reference must print
	machines int    // addresses in {addrs}
	phases   [][]proc
	// members: afterwards the root holds MEMBERS, its one record of the
	// epoch, and no EPOCH file.
	members bool
	// compressed: the reference's loss is within 5 % of the exact
	// pinned loss, and the first agent reports a wire ratio above 2.
	compressed bool
}

// A proc is one agent process of a scenario. In its flags {addrs},
// {join} and {root} stand for the scenario's member addresses, a spare
// address and its checkpoint directory.
type proc struct {
	flags  string
	exit   int      // the status it must exit with
	stdout []string // lines its stdout must contain
	stderr string   // what its stderr must contain
	// restart is run, as by a supervisor, once this process has exited.
	restart *proc
	// cue holds the start back until the phase's first process prints it.
	cue string
}

// member is the proc hosting machine m of the cluster at {addrs}.
func member(m int, flags string, stdout ...string) proc {
	return proc{flags: fmt.Sprintf("-machine %d -addrs {addrs} %s", m, flags), stdout: stdout}
}

// agents returns the procs of an n-machine cluster, all with the same
// flags and expectations.
func agents(n int, flags string, stdout ...string) []proc {
	ps := make([]proc, n)
	for m := range ps {
		ps[m] = member(m, flags, stdout...)
	}
	return ps
}

var scenarios = []scenario{
	{name: "loopback/fixed-P", ref: "-machines 2", pin: "none", machines: 2,
		phases: [][]proc{agents(2, "")}},
	// Each process measures its own step times and may probe other
	// partition counts; resharding is lossless, so the bits still match.
	{name: "loopback/search-P", ref: "-machines 2 -partitions 0", pin: "none", machines: 2,
		phases: [][]proc{agents(2, "-partitions 0")}},
	// No local aggregation: every partition folds four pushes, in
	// worker-rank order.
	{name: "loopback/ps", ref: "-machines 2 -arch ps", pin: "ps", machines: 2,
		phases: [][]proc{agents(2, "-arch ps")}},
	// Three pushes a partition, folded in machine order, whatever the
	// partition count the search settles on.
	{name: "loopback/three", ref: "-machines 3", pin: "machines3", machines: 3,
		phases: [][]proc{agents(3, "-partitions 0")}},
	{name: "loopback/optps-clip", ref: "-machines 2 -arch optps -clip 1.0", pin: "optps", machines: 2,
		phases: [][]proc{agents(2, "-arch optps -clip 1.0")}},
	{name: "compression/f16", ref: "-machines 2 -compression f16", pin: "f16", machines: 2,
		phases: [][]proc{agents(2, "-compression f16")}},
	{name: "compression/topk", ref: "-machines 2 -compression topk", pin: "topk", machines: 2,
		phases: [][]proc{agents(2, "-compression topk")}, compressed: true},
	// Values, optimizer slots, the step counter and the dataset position
	// all survive a stop at step 12 and a restart of every agent.
	{name: "resume", ref: "-machines 2", pin: "none", machines: 2, phases: [][]proc{
		agents(2, "-steps 12 -checkpoint {root}", "checkpoint saved"),
		agents(2, "-checkpoint {root} -resume", "resumed from {root} at step 12"),
	}},
	// Agent 1's fabric is torn down at step 17; both agents recover in
	// place from the step-10 auto-checkpoint.
	{name: "chaos/kill", ref: "-machines 2", pin: "none", machines: 2, members: true, phases: [][]proc{{
		member(0, recoverable, "recoveries 1"),
		member(1, recoverable+" -chaos kill@17", "recoveries 1"),
	}}},
	// Agent 1 hard-exits at step 17 and is restarted without the fault
	// (a fresh process must not re-fire it); agent 0 waits out the
	// restart in its re-rendezvous.
	{name: "chaos/crash", ref: "-machines 2", pin: "none", machines: 2, members: true, phases: [][]proc{{
		member(0, recoverable, "recoveries 1"),
		{flags: "-machine 1 -addrs {addrs} " + recoverable + " -chaos crash@17", exit: 137,
			restart: &proc{flags: "-machine 1 -addrs {addrs} " + recoverable, stdout: []string{"auto-resumed"}}},
	}}},
	// A joiner that names only its own address grows the cluster to
	// three once agent 0 is stepping; agent 1 then hard-exits at step 20
	// and is shed. The survivors finish with one recovery each and equal
	// bits. Agent 0's pace holds the joiner's window open; the loss
	// stream is step-indexed, so the pace cannot change the bits.
	{name: "elastic", machines: 2, members: true, phases: [][]proc{{
		member(0, elastic+" -chaos slow@0:150ms", "recoveries 1"),
		{flags: "-machine 1 -addrs {addrs} " + elastic + " -chaos crash@20", exit: 137},
		{flags: "-join {join} " + elastic, cue: "step    0 ", stdout: []string{"recoveries 1"}},
	}}},
	// What Open refuses, the agent does not re-check: Open's message
	// reaches stderr and the agent exits 1.
	{name: "refuses/recover-without-root", machines: 2, phases: [][]proc{{
		{flags: "-machine 0 -addrs {addrs} -recover", exit: 1, stderr: "WithRecovery requires WithAutoCheckpoint"},
	}}},
	{name: "refuses/shrink-without-recover", machines: 2, phases: [][]proc{{
		{flags: "-machine 0 -addrs {addrs} -auto-checkpoint {root} -allow-shrink", exit: 1, stderr: "RecoveryPolicy.AllowShrink requires Enabled"},
	}}},
	{name: "refuses/join-without-elastic", machines: 2, phases: [][]proc{{
		{flags: "-join {join} -auto-checkpoint {root}", exit: 1, stderr: "DistConfig.JoinAddr requires WithElastic"},
	}}},
}

// TestAgentScenarios runs every scenario as real agent processes on
// loopback: `go test ./cmd/parallax-agent -run 'TestAgentScenarios/chaos'`
// runs one group.
func TestAgentScenarios(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			sc.check(t)
		})
	}
}

var bitsLine = regexp.MustCompile(`final loss bits=([0-9a-f]{16})`)

// check runs the scenario and reports every expectation it misses.
func (sc scenario) check(t *testing.T) {
	ctx := t.Context()
	if d, ok := t.Deadline(); ok {
		// Leave the test time to report what the agents printed.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, d.Add(-10*time.Second))
		defer cancel()
	}
	root := t.TempDir()
	addrs := freeAddrs(t, sc.machines+1)
	expand := strings.NewReplacer("{addrs}", strings.Join(addrs[:sc.machines], ","),
		"{join}", addrs[sc.machines], "{root}", root)

	var mu sync.Mutex
	var started []*agent
	start := func(name, flags string) *agent {
		a := startAgent(ctx, name, strings.Fields(expand.Replace(common+" "+flags)))
		mu.Lock()
		started = append(started, a)
		mu.Unlock()
		return a
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range started {
			if t.Failed() {
				t.Logf("%s (exit %d) stdout:\n%s\nstderr:\n%s", a.name, a.code, a.stdout.String(), a.stderr.String())
			}
			for _, line := range strings.Split(a.stdout.String(), "\n") {
				if strings.Contains(line, "last recovery") {
					t.Logf("%s: %s", a.name, line)
				}
			}
		}
	}()

	want := ""
	if sc.ref != "" {
		ref := start("reference", sc.ref)
		if ref.wait() != 0 {
			t.Fatal("the reference run failed")
		}
		want = bits(ref)
		if want != pinned[sc.pin] {
			t.Errorf("reference bits=%s, pinned %q bits=%s", want, sc.pin, pinned[sc.pin])
		}
	}
	var last []*agent
	for i, phase := range sc.phases {
		last = runPhase(t, ctx, fmt.Sprintf("phase %d ", i), phase, start, expand)
	}
	for _, a := range last {
		if a.code != 0 {
			continue
		}
		got := bits(a)
		if want == "" {
			want = got
		}
		if got == "" || got != want {
			t.Errorf("%s bits=%q, want %q", a.name, got, want)
		}
	}
	if sc.members {
		if fi, err := os.Stat(filepath.Join(root, "MEMBERS")); err != nil || fi.Size() == 0 {
			t.Errorf("the root has no MEMBERS record: %v", err)
		}
		if _, err := os.Stat(filepath.Join(root, "EPOCH")); !os.IsNotExist(err) {
			t.Errorf("the root has an EPOCH file (%v); MEMBERS is the one record of the epoch", err)
		}
	}
	if sc.compressed {
		exact := lossOf(t, pinned["none"])
		if drift := math.Abs(exact-lossOf(t, want)) / exact; drift > 0.05 {
			t.Errorf("compressed loss %g drifts %.1f%% from the exact %g", lossOf(t, want), 100*drift, exact)
		}
		m := regexp.MustCompile(`compressed ([0-9.]+)x`).FindStringSubmatch(last[0].stdout.String())
		if m == nil {
			t.Errorf("%s reports no wire compression ratio", last[0].name)
		} else if r, _ := strconv.ParseFloat(m[1], 64); r <= 2 {
			t.Errorf("wire compression ratio %gx, want above 2x", r)
		}
	}
}

// runPhase starts a phase's processes together, waits for every one of
// them and for the restarts they call for, and checks how each ended.
// It returns the processes it ran, in the phase's order.
func runPhase(t *testing.T, ctx context.Context, prefix string, phase []proc,
	start func(name, flags string) *agent, expand *strings.Replacer) []*agent {
	runs := make([][]*agent, len(phase))
	var wg sync.WaitGroup
	var first *agent
	for i, p := range phase {
		name := fmt.Sprintf("%sagent %d", prefix, i)
		var a *agent
		if p.cue == "" {
			a = start(name, p.flags)
		}
		if i == 0 {
			first = a
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a == nil {
				if !first.waitFor(ctx, p.cue) {
					t.Errorf("%s: %s never printed %q", name, first.name, p.cue)
					return
				}
				a = start(name, p.flags)
			}
			for q := &p; ; {
				runs[i] = append(runs[i], a)
				if code := a.wait(); code != q.exit {
					t.Errorf("%s exited %d, want %d", a.name, code, q.exit)
				}
				for _, s := range q.stdout {
					if s = expand.Replace(s); !strings.Contains(a.stdout.String(), s) {
						t.Errorf("%s printed no %q", a.name, s)
					}
				}
				if !strings.Contains(a.stderr.String(), q.stderr) {
					t.Errorf("%s: stderr lacks %q", a.name, q.stderr)
				}
				if q = q.restart; q == nil {
					return
				}
				a = start(a.name+", restarted", q.flags)
			}
		}()
	}
	wg.Wait()
	var ran []*agent
	for _, r := range runs {
		ran = append(ran, r...)
	}
	return ran
}

func bits(a *agent) string {
	if m := bitsLine.FindStringSubmatch(a.stdout.String()); m != nil {
		return m[1]
	}
	return ""
}

func lossOf(t *testing.T, hexBits string) float64 {
	u, err := strconv.ParseUint(hexBits, 16, 64)
	if err != nil {
		t.Fatalf("bits %q: %v", hexBits, err)
	}
	return math.Float64frombits(u)
}

var (
	portsMu sync.Mutex
	given   = map[string]bool{}
)

// freeAddrs returns n loopback addresses, none given to another scenario
// of this process, each from a 127.0.0.1:0 listener that is closed
// before an agent binds it.
func freeAddrs(t *testing.T, n int) []string {
	portsMu.Lock()
	defer portsMu.Unlock()
	var addrs []string
	for len(addrs) < n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		a := l.Addr().String()
		l.Close()
		if !given[a] {
			given[a] = true
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// An agent is one started agent process: the test binary re-executed
// with agentEnv set.
type agent struct {
	name           string
	stdout, stderr output
	exited         chan struct{}
	code           int
}

// startAgent starts one agent process with args. A process that cannot
// start counts as one that exited -1, with the reason on its stderr.
func startAgent(ctx context.Context, name string, args []string) *agent {
	a := &agent{name: name, exited: make(chan struct{})}
	var cmd *exec.Cmd
	self, err := os.Executable()
	if err == nil {
		cmd = exec.CommandContext(ctx, self, args...)
		cmd.Env = append(os.Environ(), agentEnv+"=1")
		cmd.Stdout, cmd.Stderr = &a.stdout, &a.stderr
		cmd.WaitDelay = time.Second
		err = cmd.Start()
	}
	if err != nil {
		fmt.Fprintln(&a.stderr, err)
		a.code = -1
		close(a.exited)
		return a
	}
	go func() {
		// The exit status is the verdict; any other error from Wait (a
		// kill at the deadline, a failed output copy) joins its stderr.
		if err := cmd.Wait(); err != nil && !errors.As(err, new(*exec.ExitError)) {
			fmt.Fprintln(&a.stderr, err)
		}
		a.code = cmd.ProcessState.ExitCode()
		close(a.exited)
	}()
	return a
}

// wait returns the exit status (-1 for a process killed by a signal,
// such as one past the test's deadline).
func (a *agent) wait() int {
	<-a.exited
	return a.code
}

// waitFor reports whether the agent's stdout shows s before it exits or
// ctx ends.
func (a *agent) waitFor(ctx context.Context, s string) bool {
	for {
		grew, ok := a.stdout.contains(s)
		if ok {
			return true
		}
		select {
		case <-grew:
		case <-a.exited:
			_, ok := a.stdout.contains(s)
			return ok
		case <-ctx.Done():
			return false
		}
	}
}

// output collects what a process writes to one stream and lets a
// reader wait for it to grow.
type output struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	grew chan struct{} // closed by the next Write
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.grew != nil {
		close(o.grew)
		o.grew = nil
	}
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// contains reports whether the output holds s, and otherwise returns a
// channel closed by the next write.
func (o *output) contains(s string) (<-chan struct{}, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if strings.Contains(o.buf.String(), s) {
		return nil, true
	}
	if o.grew == nil {
		o.grew = make(chan struct{})
	}
	return o.grew, false
}

// maxFlags caps the agent's flags: the public knob surface is the
// knobs the entry points set, so a new flag makes room by deleting one.
const maxFlags = 24

// TestAgentUsage: -h lists the flags, at most maxFlags of them, and
// exits 0; an unknown flag exits 2.
func TestAgentUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.Context(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "  -") {
			listed[f[0]] = true
		}
	}
	for _, f := range []string{"-addrs", "-chaos", "-join", "-vocab", "-version"} {
		if !listed[f] {
			t.Errorf("-h does not list %s:\n%s", f, stderr.String())
		}
	}
	if len(listed) > maxFlags {
		t.Errorf("-h lists %d flags, over the budget of %d: delete one to make room", len(listed), maxFlags)
	}
	if code := run(t.Context(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("an unknown flag exited %d, want 2", code)
	}
}
