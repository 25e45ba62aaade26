package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"parallax"
	"parallax/internal/checkpoint"
	"parallax/internal/jobspec"
)

// tinySpec is a fast 1×1 job so scheduler tests stay quick.
func tinySpec(steps int) jobspec.Spec {
	s := jobspec.Default()
	s.Machines, s.GPUs = 1, 1
	s.Vocab, s.Batch, s.Steps = 200, 8, steps
	s.Partitions = 4
	return s
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
}

func waitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s := j.State(); s.Terminal() {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never terminal (state %s)", j.ID, j.State())
	return ""
}

func TestAdmissionRejectsOverCapacity(t *testing.T) {
	s, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(5)
	spec.Machines, spec.GPUs = 4, 4 // 16 GPUs on a 4-GPU cluster
	if _, err := s.Submit("acme", spec); !errors.Is(err, ErrRejected) {
		t.Fatalf("over-capacity submit: got %v, want ErrRejected", err)
	}
	spec = tinySpec(5)
	spec.Machines, spec.GPUs = 3, 1 // 3 machines on a 2-machine cluster
	if _, err := s.Submit("acme", spec); !errors.Is(err, ErrRejected) {
		t.Fatalf("over-machines submit: got %v, want ErrRejected", err)
	}
	spec = tinySpec(5)
	spec.Arch = "bogus"
	if _, err := s.Submit("acme", spec); err == nil || errors.Is(err, ErrRejected) {
		t.Fatalf("invalid spec: got %v, want plain validation error", err)
	}
}

func TestQueueDrainsAsCapacityFrees(t *testing.T) {
	s, err := New(1, 1) // 1 GPU: strictly serial
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit("acme", tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit("acme", tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	// b is admissible (fits total capacity) so it queues behind a.
	waitState(t, a, Running)
	if st := b.State(); st != Queued {
		t.Fatalf("second job should queue while first runs, got %s", st)
	}
	if got := waitTerminal(t, a); got != Succeeded {
		t.Fatalf("first job: %s (%s)", got, a.View().Error)
	}
	if got := waitTerminal(t, b); got != Succeeded {
		t.Fatalf("queued job never drained: %s (%s)", got, b.View().Error)
	}
	if free := 1; s.inv.FreeGPUs() != free {
		t.Fatalf("inventory leaked: free=%d want %d", s.inv.FreeGPUs(), free)
	}
}

func TestFairShareOrdersTenants(t *testing.T) {
	s, err := New(1, 2) // two 1-GPU slots
	if err != nil {
		t.Fatal(err)
	}
	// acme fills both slots with long jobs, then queues a third; zeta
	// queues one after it. When a slot frees, acme still holds the
	// other slot while zeta holds nothing — fair share starts zeta's
	// job before acme's third despite its later arrival.
	long := tinySpec(100000)
	a1, _ := s.Submit("acme", long)
	a2, _ := s.Submit("acme", long)
	a3, _ := s.Submit("acme", long)
	z1, _ := s.Submit("zeta", long)
	for _, j := range []*Job{a1, a2, a3, z1} {
		if j == nil {
			t.Fatal("submit failed")
		}
	}
	waitState(t, a1, Running)
	waitState(t, a2, Running)
	if a3.State() != Queued || z1.State() != Queued {
		t.Fatalf("a3=%s z1=%s, want both queued", a3.State(), z1.State())
	}
	if err := s.Cancel(a1.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, a1)
	// The freed slot must go to zeta, not to acme's earlier-queued a3.
	waitState(t, z1, Running)
	if st := a3.State(); st != Queued {
		t.Fatalf("fair-share violated: acme's third job started (%s) before zeta's", st)
	}
	// Now acme and zeta hold one slot each; the next free slot goes to
	// a3 (only candidate).
	if err := s.Cancel(z1.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, z1)
	waitState(t, a3, Running)
	for _, j := range []*Job{a2, a3} {
		if err := s.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
}

func TestConcurrentTenantsIsolatedAndBitIdentical(t *testing.T) {
	// Two same-shaped jobs with identical variable names train
	// concurrently under different tenants; a third run of the same spec
	// via direct parallax.Open is the reference. All three must land on
	// identical final-loss bits — proof both that the tenants'
	// same-named state stayed disjoint and that serving adds no numeric
	// drift.
	s, err := New(2, 4) // room for both 2x2 jobs at once
	if err != nil {
		t.Fatal(err)
	}
	spec := jobspec.Default()
	spec.Vocab, spec.Batch, spec.Steps = 500, 16, 12
	spec.Partitions = 8

	a, err := s.Submit("acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	z, err := s.Submit("zeta", spec)
	if err != nil {
		t.Fatal(err)
	}
	// Both jobs must hold the cluster at once, each with its own
	// servers; a run that serialized them would prove nothing about
	// isolation.
	sawBoth := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if a.State() == Running && z.State() == Running {
			sawBoth = true
			break
		}
		if a.State().Terminal() || z.State().Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawBoth {
		t.Fatal("never observed both tenants' jobs running concurrently")
	}
	if st := waitTerminal(t, a); st != Succeeded {
		t.Fatalf("job a: %s (%s)", st, a.View().Error)
	}
	if st := waitTerminal(t, z); st != Succeeded {
		t.Fatalf("job z: %s (%s)", st, z.View().Error)
	}

	// Reference: the identical spec, straight through the library.
	ref := directBits(t, spec)
	av, zv := a.View(), z.View()
	if av.FinalLossBits != ref || zv.FinalLossBits != ref {
		t.Errorf("final loss bits diverged: a=%s z=%s direct=%s",
			av.FinalLossBits, zv.FinalLossBits, ref)
	}
}

func directBits(t *testing.T, spec jobspec.Spec) string {
	t.Helper()
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := parallax.Open(context.Background(), spec.Graph(), spec.Resources(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var stats parallax.LoopStats
	for st, err := range sess.Steps(context.Background(), spec.Dataset()) {
		if err != nil {
			t.Fatal(err)
		}
		stats.Observe(st)
		if st.Step >= spec.Steps-1 {
			break
		}
	}
	return fmt.Sprintf("%016x", math.Float64bits(stats.LastLoss))
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	long := tinySpec(100000) // effectively endless
	a, err := s.Submit("acme", long)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit("acme", tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, Running)
	// Cancel the queued job: immediate, no resources were held.
	if err := s.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	if st := b.State(); st != Cancelled {
		t.Fatalf("queued cancel: %s", st)
	}
	// Cancel the running job: drains at the next step boundary and
	// frees the GPU.
	if err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, a); st != Cancelled {
		t.Fatalf("running cancel: %s", st)
	}
	if s.inv.FreeGPUs() != 1 {
		t.Fatalf("cancel leaked inventory: free=%d", s.inv.FreeGPUs())
	}
	if err := s.Cancel(a.ID); err == nil {
		t.Error("cancelling a terminal job should error")
	}
	if err := s.Cancel("job-999999"); err == nil {
		t.Error("cancelling an unknown job should error")
	}
}

// wantCompleteHistory checks a finished job's step history holds every
// step of its spec exactly once, in order.
func wantCompleteHistory(t *testing.T, j *Job) {
	t.Helper()
	events, terminal := j.waitSteps(context.Background(), 0)
	if !terminal || len(events) != j.Spec.Steps {
		t.Fatalf("history: %d events terminal=%v, want %d", len(events), terminal, j.Spec.Steps)
	}
	for i, ev := range events {
		if ev.Step != i {
			t.Fatalf("history out of order at %d: %+v", i, ev)
		}
	}
}

func TestCheckpointAndStepHistory(t *testing.T) {
	s, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(2000) // long enough to still be running when the checkpoint request lands
	j, err := s.Submit("acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Running)
	dir := t.TempDir()
	step, err := s.Checkpoint(context.Background(), j.ID, dir)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if step < 1 || step > spec.Steps {
		t.Errorf("checkpoint step %d out of range", step)
	}
	if st := waitTerminal(t, j); st != Succeeded {
		t.Fatalf("job: %s (%s)", st, j.View().Error)
	}
	// The saved state resumes through the library and finishes the
	// remaining steps without error.
	opts, _ := spec.Options()
	sess, err := parallax.OpenFromCheckpoint(context.Background(), dir, spec.Graph(), spec.Resources(), opts...)
	if err != nil {
		t.Fatalf("resume from service checkpoint: %v", err)
	}
	if got := sess.StepCount(); got != step {
		t.Errorf("resumed at step %d, checkpoint said %d", got, step)
	}
	sess.Close()

	wantCompleteHistory(t, j)
	// Checkpointing a finished job fails cleanly.
	if _, err := s.Checkpoint(context.Background(), j.ID, dir); err == nil {
		t.Error("checkpoint on terminal job should error")
	}
}

// TestJobWithoutPartitionsSearchesOnTheFleet: a job posted with
// partitions unset runs the partition search on its first steps, every
// probe resharding the job's own servers. The job must settle, yield
// every step once, and — the reshards being lossless — finish on the
// bits of a direct run fixed at one partition per machine.
func TestJobWithoutPartitionsSearchesOnTheFleet(t *testing.T) {
	s, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(400)
	spec.Machines, spec.Partitions = 2, 0
	j, err := s.Submit("acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	// The search takes at most 5 probes × 3 steps; a checkpoint asked for
	// after that is answered at a later step boundary, search settled.
	for deadline := time.Now().Add(30 * time.Second); j.View().StepsDone < 15; {
		if j.State().Terminal() || time.Now().After(deadline) {
			t.Fatalf("job in state %s after %d steps (%s)", j.State(), j.View().StepsDone, j.View().Error)
		}
		time.Sleep(time.Millisecond)
	}
	dir := t.TempDir()
	if _, err := s.Checkpoint(context.Background(), j.ID, dir); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	meta, _, err := checkpoint.ReadShard(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.DecisionSource != "online" || meta.DecisionPending || meta.Parts < 1 {
		t.Fatalf("decision at step %d: source %q pending %v P=%d, want a settled online search",
			meta.Step, meta.DecisionSource, meta.DecisionPending, meta.Parts)
	}
	if st := waitTerminal(t, j); st != Succeeded {
		t.Fatalf("job: %s (%s)", st, j.View().Error)
	}
	wantCompleteHistory(t, j)
	spec.Partitions = spec.Machines
	if got, want := j.View().FinalLossBits, directBits(t, spec); got != want {
		t.Errorf("final loss bits %s, direct run at P=%d has %s", got, spec.Partitions, want)
	}
}

func TestMetricsExposePerJobSeries(t *testing.T) {
	s, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit("acme", tinySpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	text := s.MetricsText()
	for _, want := range []string{
		"# TYPE parallax_steps_total counter",
		fmt.Sprintf(`parallax_steps_total{job=%q,tenant="acme"} 5`, j.ID),
		"# TYPE parallax_step_seconds histogram",
		fmt.Sprintf(`parallax_step_seconds_count{job=%q,tenant="acme"} 5`, j.ID),
		`parallax_jobs_done_total{state="succeeded",tenant="acme"} 1`,
		"parallax_gpus_capacity 1",
		"parallax_gpus_free 1",
	} {
		if !containsLine(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func containsLine(text, line string) bool {
	for len(text) > 0 {
		i := 0
		for i < len(text) && text[i] != '\n' {
			i++
		}
		if text[:i] == line {
			return true
		}
		if i == len(text) {
			break
		}
		text = text[i+1:]
	}
	return false
}

func TestShutdownDrainsEverything(t *testing.T) {
	s, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Submit("acme", tinySpec(100000))
	b, _ := s.Submit("acme", tinySpec(3))
	waitState(t, a, Running)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := a.State(); st != Cancelled {
		t.Errorf("running job after shutdown: %s", st)
	}
	if st := b.State(); st != Cancelled {
		t.Errorf("queued job after shutdown: %s", st)
	}
	if _, err := s.Submit("acme", tinySpec(3)); err == nil {
		t.Error("submit after shutdown should fail")
	}
}
