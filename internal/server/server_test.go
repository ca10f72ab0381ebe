package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/jobstore"
)

// tasksDoc is a small valid task-set document for analyze/simulate jobs.
const tasksDoc = `{
 "tasks": [
  {"id": 1, "name": "A", "a": 1, "window_ms": 50,
   "tuf": {"shape": "step", "umax": 10},
   "mean_cycles": 2e6, "variance_cycles": 1e11, "nu": 1, "rho": 0.9},
  {"id": 2, "name": "B", "a": 2, "window_ms": 120,
   "tuf": {"shape": "linear", "umax": 40, "uend": 0},
   "mean_cycles": 5e6, "variance_cycles": 4e11, "nu": 0.3, "rho": 0.9}
 ]
}`

// testPayload is the directive set the in-package test executor obeys.
type testPayload struct {
	SleepMS int  `json:"sleep_ms"`
	Panic   bool `json:"panic"`
	Fail    bool `json:"fail"`
	Block   bool `json:"block"` // run until interrupted
}

// testExecutor simulates work: sleeps cooperatively, fails, panics, or
// blocks until the interrupt fires — the corners the real engine can hit.
func testExecutor(spec JobSpec, interrupt <-chan struct{}) (json.RawMessage, error) {
	var p testPayload
	if len(spec.Payload) > 0 {
		if err := json.Unmarshal(spec.Payload, &p); err != nil {
			return nil, err
		}
	}
	if p.Panic {
		panic("test job panic")
	}
	if p.Fail {
		return nil, errors.New("test job failure")
	}
	if p.Block {
		<-interrupt
		return nil, fmt.Errorf("stopped: %w", engine.ErrInterrupted)
	}
	if p.SleepMS > 0 {
		select {
		case <-time.After(time.Duration(p.SleepMS) * time.Millisecond):
		case <-interrupt:
			return nil, fmt.Errorf("stopped: %w", engine.ErrInterrupted)
		}
	}
	return json.RawMessage(`{"ok":true}`), nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.testExec = testExecutor
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post submits raw JSON and returns the HTTP response with its body.
func post(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func waitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := get(t, base+"/v1/jobs/"+id+"?wait=2s")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, resp.StatusCode, data)
		}
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("GET job %s: %v in %s", id, err, data)
		}
		if st.Terminal() {
			return st
		}
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestAnalyzeJob: the basic submit → 202 → poll → done flow with a real
// analyze job.
func TestAnalyzeJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	defer s.Close()
	spec := fmt.Sprintf(`{"id":"an-1","kind":"analyze","tasks":%s}`, tasksDoc)
	resp, data := post(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	st := waitJob(t, ts.URL, "an-1")
	if st.State != StateDone {
		t.Fatalf("job state %s, error %v", st.State, st.Error)
	}
	var res analyzeResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 2 || res.TheoremOneFrequency <= 0 {
		t.Fatalf("implausible analyze result: %+v", res)
	}
}

// TestSimulateJob: a single simulation job completes and reports a
// plausible summary.
func TestSimulateJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	defer s.Close()
	spec := fmt.Sprintf(`{"id":"sim-1","kind":"simulate","scheme":"EUA*","load":0.5,"horizon":0.2,"tasks":%s}`, tasksDoc)
	if resp, data := post(t, ts.URL, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	st := waitJob(t, ts.URL, "sim-1")
	if st.State != StateDone {
		t.Fatalf("job state %s, error %v", st.State, st.Error)
	}
	var res simulateResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Scheduler == "" || res.Released == 0 || len(res.PerTask) != 2 {
		t.Fatalf("implausible simulate result: %+v", res)
	}
}

// TestMulticoreSimulateJob: a simulate job with cores set runs on the
// partitioned multiprocessor engine and reports the core count; a second
// job without cores inherits the daemon's -cores default.
func TestMulticoreSimulateJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, DefaultCores: 2})
	defer s.Close()
	spec := fmt.Sprintf(`{"id":"sim-mc","kind":"simulate","scheme":"EUA*","load":1.2,"horizon":0.2,"cores":2,"tasks":%s}`, tasksDoc)
	if resp, data := post(t, ts.URL, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	st := waitJob(t, ts.URL, "sim-mc")
	if st.State != StateDone {
		t.Fatalf("job state %s, error %v", st.State, st.Error)
	}
	var res simulateResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cores != 2 {
		t.Fatalf("cores %d, want 2 (result %+v)", res.Cores, res)
	}
	if res.Scheduler != "EUA*/P2ff" {
		t.Fatalf("scheduler %q, want partitioned EUA*", res.Scheduler)
	}

	// No cores in the spec: the server default (2) applies.
	spec = fmt.Sprintf(`{"id":"sim-def","kind":"simulate","scheme":"EUA*","load":1.2,"horizon":0.2,"tasks":%s}`, tasksDoc)
	if resp, data := post(t, ts.URL, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	st = waitJob(t, ts.URL, "sim-def")
	if st.State != StateDone {
		t.Fatalf("default-cores job state %s, error %v", st.State, st.Error)
	}
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cores != 2 {
		t.Fatalf("default cores %d, want 2", res.Cores)
	}
}

// TestMulticoreSpecValidation: negative cores and unknown partition
// policies are refused at submission.
func TestMulticoreSpecValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	spec := fmt.Sprintf(`{"id":"sim-bad","kind":"simulate","scheme":"EUA*","cores":-1,"tasks":%s}`, tasksDoc)
	if resp, _ := post(t, ts.URL, spec); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative cores accepted: %d", resp.StatusCode)
	}
	spec = fmt.Sprintf(`{"id":"sim-bad2","kind":"simulate","scheme":"EUA*","cores":2,"partition":"rr","tasks":%s}`, tasksDoc)
	if resp, _ := post(t, ts.URL, spec); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown partition accepted: %d", resp.StatusCode)
	}
}

// TestIdempotentResubmit: same ID + same spec replays the status; same
// ID + different spec is a 409.
func TestIdempotentResubmit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	spec := `{"id":"idem-1","kind":"test","payload":{"sleep_ms":1}}`
	if resp, data := post(t, ts.URL, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	if resp, data := post(t, ts.URL, spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, data)
	}
	waitJob(t, ts.URL, "idem-1")
	// After completion a replayed submit returns the finished status.
	resp, data := post(t, ts.URL, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit after done: %d %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("replayed status %+v", st)
	}
	if resp, _ := post(t, ts.URL, `{"id":"idem-1","kind":"test","payload":{"sleep_ms":2}}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting spec: %d, want 409", resp.StatusCode)
	}
}

// TestValidation: malformed submissions are rejected before admission.
func TestValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	for _, body := range []string{
		`{`,
		`{"kind":"analyze"}`,
		`{"id":"x","kind":"nope"}`,
		`{"id":"x","kind":"sweep","experiment":"fig9"}`,
		`{"id":"x","kind":"simulate","scheme":"NOPE","tasks":{}}`,
		`{"id":"x","kind":"analyze"}`,
		`{"id":"x","kind":"sweep","experiment":"fig2","loads":[-1]}`,
	} {
		resp, data := post(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d %s, want 400", body, resp.StatusCode, data)
		}
		var env apiError
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code == "" {
			t.Errorf("body %s: unstructured error %s", body, data)
		}
	}
}

// TestBackpressure: with one busy worker and a depth-1 queue, the third
// submission must get 429 + Retry-After, and the queue must recover once
// the work drains.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	defer s.Close()
	// Fill the worker and the queue with blocking jobs... they sleep long
	// enough to be reliably in flight when the third arrives.
	if resp, data := post(t, ts.URL, `{"id":"bp-1","kind":"test","payload":{"sleep_ms":400}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bp-1: %d %s", resp.StatusCode, data)
	}
	// Wait until bp-1 is actually running so bp-2 occupies the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		running := s.jobs["bp-1"] != nil && s.jobs["bp-1"].state == StateRunning
		s.mu.Unlock()
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bp-1 never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, data := post(t, ts.URL, `{"id":"bp-2","kind":"test","payload":{"sleep_ms":400}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bp-2: %d %s", resp.StatusCode, data)
	}
	resp, data := post(t, ts.URL, `{"id":"bp-3","kind":"test"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bp-3: %d %s, want 429", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want 2", ra)
	}
	// Backpressure is transient: once the queue drains, the same job is
	// admitted.
	waitJob(t, ts.URL, "bp-1")
	waitJob(t, ts.URL, "bp-2")
	if resp, data := post(t, ts.URL, `{"id":"bp-3","kind":"test"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bp-3 retry: %d %s", resp.StatusCode, data)
	}
	if st := waitJob(t, ts.URL, "bp-3"); st.State != StateDone {
		t.Fatalf("bp-3 %+v", st)
	}
}

// TestPanicIsolation: a panicking job fails with a structured error and
// the server keeps serving other jobs.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	if resp, data := post(t, ts.URL, `{"id":"pan-1","kind":"test","payload":{"panic":true}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	st := waitJob(t, ts.URL, "pan-1")
	if st.State != StateFailed || st.Error == nil || st.Error.Code != CodePanic {
		t.Fatalf("panic job: %+v", st)
	}
	// The single worker survived the panic and still runs jobs.
	if resp, data := post(t, ts.URL, `{"id":"pan-2","kind":"test"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("after panic: %d %s", resp.StatusCode, data)
	}
	if st := waitJob(t, ts.URL, "pan-2"); st.State != StateDone {
		t.Fatalf("after panic: %+v", st)
	}
}

// TestJobTimeout: a job that exceeds its own wall-clock budget is stopped
// cooperatively and reports the timeout code.
func TestJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	if resp, data := post(t, ts.URL, `{"id":"to-1","kind":"test","timeout_seconds":0.05,"payload":{"block":true}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	st := waitJob(t, ts.URL, "to-1")
	if st.State != StateFailed || st.Error == nil || st.Error.Code != CodeTimeout {
		t.Fatalf("timeout job: %+v", st)
	}
}

// TestStructuredFailure: an erroring job reports code "failed".
func TestStructuredFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	post(t, ts.URL, `{"id":"fail-1","kind":"test","payload":{"fail":true}}`)
	st := waitJob(t, ts.URL, "fail-1")
	if st.State != StateFailed || st.Error == nil || st.Error.Code != CodeFailed {
		t.Fatalf("failing job: %+v", st)
	}
}

// TestDrain: draining finishes in-flight jobs, refuses new submissions
// with 503, and flips readyz while healthz stays up.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if resp, data := post(t, ts.URL, `{"id":"dr-1","kind":"test","payload":{"sleep_ms":300}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining must become observable, then refuse admissions.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL, `{"id":"dr-2","kind":"test"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp.StatusCode)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job finished, not interrupted.
	resp, data := get(t, ts.URL+"/v1/jobs/dr-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job after drain: %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("in-flight job after drain: %+v", st)
	}
}

// TestDrainDeadlineInterrupts: when the drain deadline expires, a job
// that will not finish is stopped cooperatively and reported as
// interrupted.
func TestDrainDeadlineInterrupts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	post(t, ts.URL, `{"id":"di-1","kind":"test","payload":{"block":true}}`)
	// Give the worker a moment to pick the job up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		running := s.jobs["di-1"] != nil && s.jobs["di-1"].state == StateRunning
		s.mu.Unlock()
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("di-1 never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, data := get(t, ts.URL+"/v1/jobs/di-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job after drain: %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == nil || st.Error.Code != CodeInterrupted {
		t.Fatalf("interrupted job: %+v", st)
	}
}

// TestRestartRecovery: a server killed mid-sweep (simulated by Close,
// which interrupts cooperatively) resumes the journaled job on restart
// and produces a result bit-identical to an uninterrupted server's.
func TestRestartRecovery(t *testing.T) {
	sweep := `{"id":"rec-1","kind":"sweep","experiment":"fig2","seeds":1,"horizon":0.1,"loads":[0.4,1.0]}`

	// Reference: the same job on an undisturbed server.
	refDir := t.TempDir()
	sRef, tsRef := newTestServer(t, Config{Workers: 1, DataDir: refDir})
	if resp, data := post(t, tsRef.URL, sweep); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ref submit: %d %s", resp.StatusCode, data)
	}
	ref := waitJob(t, tsRef.URL, "rec-1")
	if ref.State != StateDone {
		t.Fatalf("ref job: %+v", ref)
	}
	if err := sRef.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: submit, stop the server almost immediately.
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if resp, data := post(t, ts1.URL, sweep); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	time.Sleep(20 * time.Millisecond)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same data dir: the job must come back, run (resuming
	// any checkpointed cells) and finish with the identical result.
	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	st := waitJob(t, ts2.URL, "rec-1")
	if st.State != StateDone {
		t.Fatalf("recovered job: %+v", st)
	}
	if !bytes.Equal(st.Result, ref.Result) {
		t.Fatalf("recovered result differs from uninterrupted run:\n%s\nvs\n%s", st.Result, ref.Result)
	}
	// The journaled completion also survives another restart untouched.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, ts3 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	defer s3.Close()
	again := waitJob(t, ts3.URL, "rec-1")
	if !bytes.Equal(again.Result, ref.Result) {
		t.Fatal("result drifted across restart")
	}
}

// TestRecoveredLegacySpecReplays: a job journaled by an older daemon
// whose spec carried a since-removed field ("fastpath") must still
// answer its client's identical retry after a restart with the 200
// replay, not a 409 conflict. The retry body decodes (unknown fields are
// ignored) to the same spec the journal record does, so the server
// compares both in this version's canonical form; the journal keeps the
// bytes it was written with.
func TestRecoveredLegacySpecReplays(t *testing.T) {
	const legacy = `{"id":"legacy-fp","kind":"sweep","experiment":"fig2","loads":[0.5],"seeds":1,"horizon":0.05,"fastpath":true}`
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.wal")
	journal, _, err := jobstore.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []jobstore.Record{
		{Kind: jobstore.KindSubmitted, JobID: "legacy-fp", Spec: json.RawMessage(legacy), Tenant: DefaultTenant},
		{Kind: jobstore.KindDone, JobID: "legacy-fp", Result: json.RawMessage(`{"rows":[]}`)},
	} {
		if err := journal.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	resp, data := post(t, ts.URL, legacy)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identical retry of a recovered legacy job: %d %s, want 200 replay", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	var result bytes.Buffer
	if err := json.Compact(&result, st.Result); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || result.String() != `{"rows":[]}` {
		t.Fatalf("replayed status %+v (result %s), want the journaled result", st, result.String())
	}
	changed := `{"id":"legacy-fp","kind":"sweep","experiment":"fig2","loads":[0.6],"seeds":1,"horizon":0.05}`
	if resp, data := post(t, ts.URL, changed); resp.StatusCode != http.StatusConflict {
		t.Fatalf("different spec under a recovered id: %d %s, want 409", resp.StatusCode, data)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	journal, rec, err := jobstore.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	if len(rec.Records) == 0 || string(rec.Records[0].Spec) != legacy {
		t.Fatalf("journal's submitted record rewritten: %+v", rec.Records)
	}
}
