package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parallax/internal/checkpoint"
)

func newTestServer(t *testing.T, machines, gpus int) (*Service, *httptest.Server) {
	t.Helper()
	s, err := New(machines, gpus)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func TestHTTPSubmitAndLifecycle(t *testing.T) {
	_, ts := newTestServer(t, 1, 1)

	// Partial spec: everything not given comes from the default
	// workload; machines/gpus shrink to the test cluster.
	resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{
		"tenant": "acme",
		"spec":   map[string]any{"machines": 1, "gpus": 1, "vocab": 200, "batch": 8, "steps": 6, "partitions": 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.Tenant != "acme" {
		t.Fatalf("bad view: %+v", v)
	}
	if v.Spec.LR != 0.5 || v.Spec.Arch != "hybrid" {
		t.Fatalf("defaults not inherited: %+v", v.Spec)
	}

	// Poll GET /jobs/{id} to completion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var jv View
		json.NewDecoder(r.Body).Decode(&jv)
		r.Body.Close()
		if jv.State.Terminal() {
			if jv.State != Succeeded || jv.FinalLossBits == "" || jv.StepsDone != 6 {
				t.Fatalf("terminal view: %+v", jv)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", jv)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// GET /jobs lists it.
	r, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []View
	json.NewDecoder(r.Body).Decode(&list)
	r.Body.Close()
	if len(list) != 1 || list[0].ID != v.ID {
		t.Fatalf("list: %+v", list)
	}
}

func TestHTTPRejectionCodes(t *testing.T) {
	_, ts := newTestServer(t, 1, 1)
	// Over capacity: 409.
	resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{
		"spec": map[string]any{"machines": 4, "gpus": 4},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("over-capacity: %d %s", resp.StatusCode, body)
	}
	// Invalid spec: 400.
	resp, body = postJSON(t, ts.URL+"/jobs", map[string]any{
		"spec": map[string]any{"machines": 1, "gpus": 1, "arch": "bogus"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: %d %s", resp.StatusCode, body)
	}
	// Unknown job: 404.
	r, _ := http.Get(ts.URL + "/jobs/job-999999")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d", r.StatusCode)
	}
	r.Body.Close()
}

// TestHTTPTenantIsALabel: a tenant becomes a label on every per-tenant
// series, so POST /jobs takes 1..64 bytes of [A-Za-z0-9._-] (an empty
// tenant is "default") and answers anything else with 400, creating no
// job.
func TestHTTPTenantIsALabel(t *testing.T) {
	s, ts := newTestServer(t, 1, 1)
	spec := map[string]any{"machines": 1, "gpus": 1, "vocab": 200, "batch": 8, "steps": 1, "partitions": 4}
	for _, bad := range []string{strings.Repeat("a", 65), strings.Repeat("a", 1_000_000), "acme corp", "ténant", `a"b`, "a\nb"} {
		resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{"tenant": bad, "spec": spec})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("tenant of %d bytes %.20q: %d %.200s, want 400", len(bad), bad, resp.StatusCode, body)
		}
	}
	if views := s.Views(); len(views) != 0 {
		t.Fatalf("refused tenants became %d jobs", len(views))
	}
	for tenant, want := range map[string]string{strings.Repeat("Z", 64): strings.Repeat("Z", 64), "": "default", "a.b_c-9": "a.b_c-9"} {
		resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{"tenant": tenant, "spec": spec})
		var v View
		json.Unmarshal(body, &v)
		if resp.StatusCode != http.StatusAccepted || v.Tenant != want {
			t.Errorf("tenant %q: %d, tenant %q, want 202 and %q", tenant, resp.StatusCode, v.Tenant, want)
		}
	}
}

// TestHTTPBodiesAreBounded: a request body just over 1 MiB is refused
// with 413 before it is decoded, on both endpoints that read one, so an
// oversized tenant never becomes a job or a metrics label.
func TestHTTPBodiesAreBounded(t *testing.T) {
	s, ts := newTestServer(t, 1, 1)
	huge := strings.Repeat("a", 1<<20)
	for _, c := range []struct{ path, body string }{
		{"/jobs", `{"tenant":"` + huge + `","spec":{"machines":1,"gpus":1,"steps":1}}`},
		{"/jobs/job-000001/checkpoint", `{"dir":"` + huge + `"}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: %d, want 413", c.path, len(c.body), resp.StatusCode)
		}
	}
	if views := s.Views(); len(views) != 0 {
		t.Errorf("an oversized request became %d jobs", len(views))
	}
}

func TestHTTPStepStreamFollowsToTerminal(t *testing.T) {
	_, ts := newTestServer(t, 1, 1)
	resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{
		"spec": map[string]any{"machines": 1, "gpus": 1, "vocab": 200, "batch": 8, "steps": 8, "partitions": 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	json.Unmarshal(body, &v)

	// Open the stream immediately: it must deliver all 8 steps as
	// NDJSON and close by itself when the job finishes.
	r, err := http.Get(ts.URL + "/jobs/" + v.ID + "/steps")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(r.Body)
	var events []StepEvent
	for sc.Scan() {
		var ev StepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 {
		t.Fatalf("streamed %d events, want 8", len(events))
	}
	for i, ev := range events {
		if ev.Step != i || ev.Loss <= 0 {
			t.Fatalf("event %d: %+v", i, ev)
		}
	}
}

func TestHTTPCheckpointCancelMetricsHealthVersion(t *testing.T) {
	t.Chdir(t.TempDir()) // the daemon's working directory, where checkpoints land
	_, ts := newTestServer(t, 1, 2)
	resp, body := postJSON(t, ts.URL+"/jobs", map[string]any{
		"tenant": "acme",
		"spec":   map[string]any{"machines": 1, "gpus": 1, "vocab": 200, "batch": 8, "steps": 100000, "partitions": 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	json.Unmarshal(body, &v)

	// Checkpoint the running job into a directory below the working
	// directory.
	dir := filepath.Join("ckpt", "j1")
	deadline := time.Now().Add(30 * time.Second)
	var ckptResp *http.Response
	var ckptBody []byte
	for {
		ckptResp, ckptBody = postJSON(t, ts.URL+"/jobs/"+v.ID+"/checkpoint", map[string]any{"dir": dir})
		if ckptResp.StatusCode == http.StatusOK || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ckptResp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", ckptResp.StatusCode, ckptBody)
	}
	var ck struct {
		Dir  string `json:"dir"`
		Step int    `json:"step"`
	}
	json.Unmarshal(ckptBody, &ck)
	if ck.Dir != dir || ck.Step < 1 {
		t.Fatalf("checkpoint response: %+v", ck)
	}
	if _, err := os.Stat(checkpoint.ShardPath(dir, 0)); err != nil {
		t.Fatalf("checkpoint wrote no shard: %v", err)
	}
	// A directory outside the working directory is refused with 400, and
	// nothing is written there.
	outside := t.TempDir()
	for _, bad := range []string{filepath.Join(outside, "abs"), filepath.Join("..", filepath.Base(outside), "up"), ""} {
		r, b := postJSON(t, ts.URL+"/jobs/"+v.ID+"/checkpoint", map[string]any{"dir": bad})
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("checkpoint into %q: %d %s, want 400", bad, r.StatusCode, b)
		}
	}
	if ents, _ := os.ReadDir(outside); len(ents) != 0 {
		t.Errorf("a refused checkpoint wrote %d entries outside the working directory", len(ents))
	}

	// Metrics expose the running job's series.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(mr.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("metrics content type %q", mr.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(mtext), fmt.Sprintf(`parallax_steps_total{job=%q,tenant="acme"}`, v.ID)) {
		t.Errorf("metrics missing job series:\n%s", mtext)
	}

	// Cancel it over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+v.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", dr.StatusCode)
	}
	for {
		r, _ := http.Get(ts.URL + "/jobs/" + v.ID)
		var jv View
		json.NewDecoder(r.Body).Decode(&jv)
		r.Body.Close()
		if jv.State.Terminal() {
			if jv.State != Cancelled {
				t.Fatalf("after cancel: %s", jv.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Liveness and identity.
	hr, _ := http.Get(ts.URL + "/healthz")
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", hr.StatusCode)
	}
	hr.Body.Close()
	vr, _ := http.Get(ts.URL + "/version")
	var info struct {
		Version string `json:"version"`
	}
	json.NewDecoder(vr.Body).Decode(&info)
	vr.Body.Close()
	if info.Version == "" {
		t.Error("version endpoint returned no version")
	}
}
