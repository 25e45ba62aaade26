package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeStep fabricates an auto-checkpoint step directory with shard
// files for the given machines (content is irrelevant to the directory
// protocol under test).
func writeStep(t *testing.T, root string, step int, machines ...int) string {
	t.Helper()
	dir := StepDir(root, step)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, m := range machines {
		if err := os.WriteFile(ShardPath(dir, m), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestStepDirFormat(t *testing.T) {
	got := StepDir("/auto", 17)
	want := filepath.Join("/auto", "step-00000017")
	if got != want {
		t.Fatalf("StepDir = %q, want %q", got, want)
	}
}

func TestLatestCompleteEmpty(t *testing.T) {
	root := t.TempDir()
	step, _, err := LatestComplete(root, 2)
	if err != nil || step != -1 {
		t.Fatalf("empty root: step %d err %v, want -1 nil", step, err)
	}
	// A missing root is the same as an empty one (first run).
	step, _, err = LatestComplete(filepath.Join(root, "absent"), 2)
	if err != nil || step != -1 {
		t.Fatalf("missing root: step %d err %v, want -1 nil", step, err)
	}
}

// LatestComplete must skip directories missing any machine's shard — a
// save a peer died in the middle of is not a restore point.
func TestLatestCompleteSkipsIncomplete(t *testing.T) {
	root := t.TempDir()
	writeStep(t, root, 10, 0, 1)
	writeStep(t, root, 20, 0, 1)
	writeStep(t, root, 30, 0) // machine 1's shard never landed

	step, dir, err := LatestComplete(root, 2)
	if err != nil {
		t.Fatal(err)
	}
	if step != 20 || dir != StepDir(root, 20) {
		t.Fatalf("latest complete = step %d dir %q, want 20 %q", step, dir, StepDir(root, 20))
	}
	// Junk that is not a step directory is ignored.
	if err := os.WriteFile(filepath.Join(root, "EPOCH"), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	if step, _, err = LatestComplete(root, 2); err != nil || step != 20 {
		t.Fatalf("with junk: step %d err %v, want 20 nil", step, err)
	}
}

// PruneAuto keeps the newest `keep` complete saves and sweeps both the
// older complete ones and incomplete debris left by crashed saves.
func TestPruneAuto(t *testing.T) {
	root := t.TempDir()
	for _, s := range []int{10, 20, 30, 40} {
		writeStep(t, root, s, 0, 1)
	}
	writeStep(t, root, 25, 0) // incomplete debris older than step 40

	if err := PruneAuto(root, 2, 2); err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{30, 40} {
		if !stepComplete(StepDir(root, s), 2) {
			t.Fatalf("step %d pruned or truncated, want kept complete", s)
		}
	}
	for _, s := range []int{10, 20, 25} {
		if _, err := os.Stat(StepDir(root, s)); !os.IsNotExist(err) {
			t.Fatalf("step %d survived the prune (err %v)", s, err)
		}
	}
}

// An in-flight save (incomplete but NEWER than every complete save)
// must survive the prune: the peer writing it may still finish.
func TestPruneAutoKeepsNewestIncomplete(t *testing.T) {
	root := t.TempDir()
	writeStep(t, root, 10, 0, 1)
	writeStep(t, root, 20, 0) // a peer is mid-save right now

	if err := PruneAuto(root, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(StepDir(root, 20)); err != nil {
		t.Fatalf("in-flight save at step 20 was pruned: %v", err)
	}
	if _, err := os.Stat(StepDir(root, 10)); err != nil {
		t.Fatalf("only complete save at step 10 was pruned: %v", err)
	}
}

// The fabric epoch lives in MEMBERS alone: ReadEpoch reads the record's
// Epoch, 0 before any record exists, and a leftover EPOCH file from an
// older build does not count.
func TestEpochRoundtrip(t *testing.T) {
	root := t.TempDir()
	// Absent record reads as epoch 0 — a fresh cluster.
	if e, err := ReadEpoch(root); err != nil || e != 0 {
		t.Fatalf("fresh root epoch %d err %v, want 0 nil", e, err)
	}
	if err := os.WriteFile(filepath.Join(root, "EPOCH"), []byte("5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if e, err := ReadEpoch(root); err != nil || e != 0 {
		t.Fatalf("root with only an EPOCH file reads epoch %d err %v, want 0 nil", e, err)
	}
	for _, e := range []int{1, 2, 7} {
		m := &Membership{Epoch: e, Step: 10, Cursor: 40, Parts: 2, Joiner: -1,
			Members: []Member{{Addr: "127.0.0.1:7751", GPUs: 2}, {Addr: "127.0.0.1:7752", GPUs: 2}}}
		if err := WriteMembers(root, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEpoch(root)
		if err != nil || got != e {
			t.Fatalf("epoch roundtrip: got %d err %v, want %d", got, err, e)
		}
	}
}
