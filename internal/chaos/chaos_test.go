package chaos

import (
	"errors"
	"testing"
	"time"

	"parallax/internal/errs"
	"parallax/internal/transport"
)

func testTopo() transport.Topology {
	return transport.Topology{Workers: 2, Machines: 2, MachineOfWorker: []int{0, 1}}
}

func TestParseSpecs(t *testing.T) {
	good := []string{
		"kill@17",
		"sever@3:1",
		"crash@5",
		"crash-before-save@10",
		"crash-after-save@10",
		"delay@2:50ms",
		"slow@4:10ms",
		"kill@1,sever@2:0,delay@3:1ms",
		"join@5",
		"leave@5:2",
		"join@3,leave@7:0",
		"", // empty spec = no faults
		"  kill@1 , crash@2  ",
	}
	for _, spec := range good {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q) = %v, want ok", spec, err)
		}
	}
	bad := []string{
		"kill",            // missing @step
		"kill@x",          // bad step
		"kill@-1",         // negative step
		"sever@3",         // missing peer
		"sever@3:p",       // bad peer
		"delay@2",         // missing duration
		"delay@2:fast",    // bad duration
		"explode@1",       // unknown fault
		"kill@1,crash@zz", // one bad part poisons the spec
		"leave@5",         // missing machine
		"leave@5:x",       // bad machine
		"leave@5:-1",      // negative machine
		"join@x",          // bad step
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// A kill must record a rank-attributed ErrPeerFailed on the fabric —
// the in-process one included — and tear it down.
func TestKillAttributesAndCloses(t *testing.T) {
	inj, err := Parse("kill@2")
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewInproc(testTopo())
	inj.Step(0, fab)
	inj.Step(1, fab)
	if fab.Err() != nil {
		t.Fatalf("fault fired early: %v", fab.Err())
	}
	inj.Step(2, fab)
	e := fab.Err()
	if !errors.Is(e, errs.ErrPeerFailed) {
		t.Fatalf("after kill, Err() = %v, want ErrPeerFailed", e)
	}
	var pf *errs.PeerFailure
	if !errors.As(e, &pf) {
		t.Fatalf("after kill, Err() = %v, want *errs.PeerFailure", e)
	}
	select {
	case <-fab.Done():
	case <-time.After(time.Second):
		t.Fatal("fabric not closed by the kill")
	}
}

// crash faults call the injector's Exit hook (os.Exit in production,
// recorded here) with status 137.
func TestCrashCallsExit(t *testing.T) {
	inj, err := Parse("crash@3")
	if err != nil {
		t.Fatal(err)
	}
	code := -1
	inj.Exit = func(c int) { code = c }
	fab := transport.NewInproc(testTopo())
	defer fab.Close()
	inj.Step(2, fab)
	if code != -1 {
		t.Fatalf("crash fired at step 2, want step 3")
	}
	inj.Step(3, fab)
	if code != 137 {
		t.Fatalf("crash exit code %d, want 137", code)
	}
	// Fired once: the replayed step after a recovery must not crash again.
	code = -1
	inj.Step(3, fab)
	if code != -1 {
		t.Fatalf("crash re-fired on a replayed step")
	}
}

// crash-before-save / crash-after-save fire through the checkpoint
// hooks, not Step, and each fires exactly once.
func TestCrashAroundSaveHooks(t *testing.T) {
	inj, err := Parse("crash-before-save@10,crash-after-save@20")
	if err != nil {
		t.Fatal(err)
	}
	var codes []int
	inj.Exit = func(c int) { codes = append(codes, c) }
	fab := transport.NewInproc(testTopo())
	defer fab.Close()

	inj.Step(10, fab) // step hook must NOT fire save faults
	if len(codes) != 0 {
		t.Fatalf("save fault fired from Step")
	}
	inj.BeforeSave(9)
	inj.AfterSave(9)
	if len(codes) != 0 {
		t.Fatalf("save fault fired at the wrong step")
	}
	inj.BeforeSave(10)
	if len(codes) != 1 || codes[0] != 137 {
		t.Fatalf("crash-before-save codes %v, want [137]", codes)
	}
	inj.AfterSave(20)
	if len(codes) != 2 {
		t.Fatalf("crash-after-save codes %v, want two exits", codes)
	}
	inj.BeforeSave(10)
	inj.AfterSave(20)
	if len(codes) != 2 {
		t.Fatalf("save faults re-fired: %v", codes)
	}
}

// The injector outlives fabric generations: a fault that fired on one
// fabric must not fire again when the session hands the injector a
// fresh fabric after recovery and the replayed steps pass its index a
// second time.
func TestFiredFaultsSurviveRewrap(t *testing.T) {
	inj, err := Parse("kill@2")
	if err != nil {
		t.Fatal(err)
	}
	fab1 := transport.NewInproc(testTopo())
	inj.Step(2, fab1)
	if !errors.Is(fab1.Err(), errs.ErrPeerFailed) {
		t.Fatalf("kill did not fire on the first generation: %v", fab1.Err())
	}

	// New fabric generation, same injector: the fresh fabric carries no
	// recorded kill, and the injector keeps the fired-state.
	fab2 := transport.NewInproc(testTopo())
	defer fab2.Close()
	inj.Step(2, fab2) // the replayed step crosses the fault's index again
	if err := fab2.Err(); err != nil {
		t.Fatalf("fired fault re-triggered on a new fabric generation: %v", err)
	}
	select {
	case <-fab2.Done():
		t.Fatal("fired fault closed the second-generation fabric")
	default:
	}
}

// join@K and leave@K:P fire their hooks exactly once at step K, carry
// the right arguments, and never mark the fabric failed — membership
// churn is not a fault in the failure-attribution sense.
func TestJoinLeaveHooksFireOnce(t *testing.T) {
	inj, err := Parse("join@2,leave@4:1")
	if err != nil {
		t.Fatal(err)
	}
	var joins []int
	var leaves [][2]int
	inj.OnJoin = func(step int) { joins = append(joins, step) }
	inj.OnLeave = func(step, machine int) { leaves = append(leaves, [2]int{step, machine}) }
	fab := transport.NewInproc(testTopo())
	defer fab.Close()
	for s := 0; s < 6; s++ {
		inj.Step(s, fab)
	}
	if len(joins) != 1 || joins[0] != 2 {
		t.Fatalf("OnJoin fired at %v, want exactly [2]", joins)
	}
	if len(leaves) != 1 || leaves[0] != [2]int{4, 1} {
		t.Fatalf("OnLeave fired with %v, want exactly [[4 1]]", leaves)
	}
	if err := fab.Err(); err != nil {
		t.Fatalf("join/leave marked the fabric failed: %v", err)
	}
	// Replayed steps after a rebuild must not re-fire membership cues —
	// a second join request for an already-admitted agent would be
	// rejected as a stale rejoin, but there is no reason to send one.
	fab2 := transport.NewInproc(testTopo())
	defer fab2.Close()
	for s := 0; s < 6; s++ {
		inj.Step(s, fab2)
	}
	if len(joins) != 1 || len(leaves) != 1 {
		t.Fatalf("membership cues re-fired on a new fabric generation: joins %v leaves %v", joins, leaves)
	}
}

// Nil hooks are legal: an agent without an elastic harness parses and
// runs a join/leave spec as a no-op instead of panicking.
func TestJoinLeaveNilHooks(t *testing.T) {
	inj, err := Parse("join@1,leave@1:0")
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewInproc(testTopo())
	defer fab.Close()
	inj.Step(1, fab)
	if err := fab.Err(); err != nil {
		t.Fatalf("nil-hook join/leave failed the fabric: %v", err)
	}
}

// delay and slow faults only sleep — the schedule is deterministic in
// the spec, and neither marks the fabric failed.
func TestDelayAndSlowDoNotFail(t *testing.T) {
	inj, err := Parse("delay@1:1ms,slow@2:1ms")
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewInproc(testTopo())
	defer fab.Close()
	for s := 0; s < 5; s++ {
		inj.Step(s, fab)
	}
	if err := fab.Err(); err != nil {
		t.Fatalf("delay/slow marked the fabric failed: %v", err)
	}
}
