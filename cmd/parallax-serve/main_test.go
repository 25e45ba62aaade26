package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"parallax"
	"parallax/internal/jobspec"
	"parallax/internal/serve"
)

// pinnedNone is cmd/parallax-agent's pinned["none"]: the final-loss
// bits of `parallax-agent -machines 2 -gpus 2 -steps 30 -vocab 500`,
// which a service job of the same spec must reproduce beside a
// concurrent neighbour.
const pinnedNone = "4017c06869b5ad18"

// TestServe drives the service end to end through run on a
// 127.0.0.1:0 listener: two tenants train at once on a 2×4 cluster.
// Tenant A's job streams its 30 steps and ends with the pinned bits;
// tenant B's endless job is checkpointed into a relative directory,
// cancelled, and its checkpoint restores through the library; the metrics carry both jobs' series;
// and cancelling the context drains the service.
func TestServe(t *testing.T) {
	t.Chdir(t.TempDir()) // the daemon's working directory, where checkpoints land
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	var stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-listen", "127.0.0.1:0", "-machines", "2", "-gpus", "4"}, io.Discard, &stderr)
	}()
	base := "http://" + listening(t, &stderr, exit)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("parallax-serve's log:\n%s", stderr.String())
		}
	})

	for _, path := range []string{"/healthz", "/version"} {
		if code, body := call(t, "GET", base+path, ""); code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, code, body)
		}
	}
	const spec = `"machines":2,"gpus":2,"vocab":500,"partitions":8`
	a := submit(t, base, `{"tenant":"acme","spec":{`+spec+`,"steps":30}}`)
	b := submit(t, base, `{"tenant":"zeta","spec":{`+spec+`,"steps":100000}}`)

	// Tenant A streams to completion and reproduces the direct run.
	resp, err := http.Get(base + "/jobs/" + a + "/steps")
	if err != nil {
		t.Fatal(err)
	}
	var events []serve.StepEvent
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var ev serve.StepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("step line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	resp.Body.Close()
	if len(events) != 30 || events[29].Step != 29 {
		t.Fatalf("tenant A streamed %d steps, want 30: %+v", len(events), events)
	}
	if v := view(t, base, a); v.State != serve.Succeeded || v.FinalLossBits != pinnedNone {
		t.Fatalf("tenant A ended %s with bits %s, want succeeded with the agent's %s", v.State, v.FinalLossBits, pinnedNone)
	}

	// Tenant B is checkpointed between steps, into a directory below the
	// daemon's working directory, then cancelled.
	dir := filepath.Join("ckpt", "zeta")
	code, body := call(t, "POST", base+"/jobs/"+b+"/checkpoint", `{"dir":"`+dir+`"}`)
	var ck struct{ Step int }
	if err := json.Unmarshal(body, &ck); code != http.StatusOK || err != nil || ck.Step < 1 {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	if code, body := call(t, "DELETE", base+"/jobs/"+b, ""); code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	for deadline := time.Now().Add(10 * time.Second); view(t, base, b).State != serve.Cancelled; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("tenant B is %s, not cancelled", view(t, base, b).State)
		}
	}
	resumes(t, dir, ck.Step)

	// The exposition carries per-job labelled series.
	_, metrics := call(t, "GET", base+"/metrics", "")
	for _, line := range []string{
		`parallax_steps_total\{job="` + a + `",tenant="acme"\} 30`,
		`parallax_steps_total\{job="` + b + `",tenant="zeta"\} \d+`,
		`parallax_step_seconds_bucket\{job="` + a + `",.*`,
		`parallax_jobs_done_total\{state="succeeded",tenant="acme"\} 1`,
		`parallax_jobs_done_total\{state="cancelled",tenant="zeta"\} 1`,
		`parallax_gpus_capacity 8`,
	} {
		if !regexp.MustCompile(`(?m)^` + line + `$`).Match(metrics) {
			t.Errorf("/metrics has no line %s", line)
		}
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("run returned %d after a drain, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
}

// TestServeUsage: -h exits 0, an unknown flag 2, and an address that
// cannot be bound 1.
func TestServeUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-listen", "127.0.0.1:-1"}, 1},
	} {
		if code := run(t.Context(), c.args, io.Discard, io.Discard); code != c.want {
			t.Errorf("%v exited %d, want %d", c.args, code, c.want)
		}
	}
}

// resumes opens the service's checkpoint through the library with the
// job's spec and trains on from the saved step.
func resumes(t *testing.T, dir string, step int) {
	t.Helper()
	spec := jobspec.Default()
	spec.Machines, spec.GPUs, spec.Vocab, spec.Partitions = 2, 2, 500, 8
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := parallax.OpenFromCheckpoint(t.Context(), dir, spec.Graph(), spec.Resources(), opts...)
	if err != nil {
		t.Fatalf("restoring the service's checkpoint: %v", err)
	}
	defer sess.Close()
	if sess.StepCount() != step {
		t.Fatalf("restored at step %d, the service saved step %d", sess.StepCount(), step)
	}
	for st, err := range sess.Steps(t.Context(), spec.Dataset()) {
		if err != nil || st.Step != step {
			t.Fatalf("first resumed step: %+v, %v; want step %d", st, err, step)
		}
		break
	}
}

// listening waits for run to log its resolved address.
func listening(t *testing.T, stderr *syncBuffer, exit <-chan int) string {
	t.Helper()
	re := regexp.MustCompile(`listening on (\S+) `)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			return m[1]
		}
		select {
		case code := <-exit:
			t.Fatalf("run exited %d before listening:\n%s", code, stderr.String())
		default:
		}
	}
	t.Fatalf("run logged no address:\n%s", stderr.String())
	return ""
}

func call(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(t.Context(), method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func submit(t *testing.T, base, body string) string {
	t.Helper()
	code, out := call(t, "POST", base+"/jobs", body)
	var v serve.View
	if err := json.Unmarshal(out, &v); code != http.StatusAccepted || err != nil {
		t.Fatalf("submit %s: %d %s", body, code, out)
	}
	return v.ID
}

func view(t *testing.T, base, id string) serve.View {
	t.Helper()
	code, out := call(t, "GET", base+"/jobs/"+id, "")
	var v serve.View
	if err := json.Unmarshal(out, &v); code != http.StatusOK || err != nil {
		t.Fatalf("GET /jobs/%s: %d %s", id, code, out)
	}
	return v
}

// syncBuffer is a bytes.Buffer that run's logger and the test may
// share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
