package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/euastar/euastar/internal/jobstore"
	"github.com/euastar/euastar/internal/task"
)

// rejectDoc is a task set the analytical admission test proves
// infeasible: every job needs ~1e10 cycles inside a 10ms window, orders
// of magnitude beyond what f_max affords, with a tight demand
// distribution so the guaranteed minimum stays far above the budget.
const rejectDoc = `{
 "tasks": [
  {"id": 1, "name": "hog", "a": 1, "window_ms": 10,
   "tuf": {"shape": "step", "umax": 10},
   "mean_cycles": 1e10, "variance_cycles": 1e6, "nu": 1, "rho": 0.9}
 ]
}`

func rejectSpec(id string) string {
	return fmt.Sprintf(`{"id":%q,"kind":"simulate","scheme":"EUA*","tasks":%s}`, id, rejectDoc)
}

// postRecorder submits in-process (no network) so the elapsed time is
// the handler's own.
func postRecorder(s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestAdmissionFastReject: a provably infeasible simulate job is refused
// with a structured 422 in under a millisecond, without ever occupying a
// queue or worker slot, and the verdict is visible on /metrics.
func TestAdmissionFastReject(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()

	// Ten independent submissions; the minimum elapsed time is the
	// handler's intrinsic cost, robust to a stray GC pause or scheduler
	// hiccup on a shared runner.
	best := time.Hour
	for i := 0; i < 10; i++ {
		body := rejectSpec(fmt.Sprintf("rej-%d", i))
		start := time.Now()
		rec := postRecorder(s, body)
		elapsed := time.Since(start)
		if elapsed < best {
			best = elapsed
		}
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("submit %d: status %d, want 422: %s", i, rec.Code, rec.Body)
		}
	}
	t.Logf("fastest fast-reject: %v", best)
	if best > time.Millisecond {
		t.Errorf("fast-reject took %v, want < 1ms", best)
	}

	// The rejection is structured: code, verdict, and a reason naming the
	// violated condition.
	rec := postRecorder(s, rejectSpec("rej-0")) // idempotent replay
	var env apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("decode 422 body: %v in %s", err, rec.Body)
	}
	if env.Error.Code != CodeRejected || env.Error.Verdict != "reject" {
		t.Errorf("error = %+v, want code %q verdict \"reject\"", env.Error, CodeRejected)
	}
	if !strings.Contains(env.Error.Message, "infeasible") {
		t.Errorf("reason %q should name the violated condition", env.Error.Message)
	}

	// The job exists as terminal state, but no worker ever saw it: nothing
	// was admitted, nothing ran, nothing is queued.
	resp, data := get(t, ts.URL+"/v1/jobs/rej-0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: %d %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == nil || st.Error.Code != CodeRejected {
		t.Errorf("job status %+v, want failed with code %q", st, CodeRejected)
	}

	resp, data = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	body := string(data)
	for _, want := range []string{
		MetricAdmissionVerdicts + `{scheme="EUA*",verdict="reject"} 10`,
		MetricJobsRejected + `{reason="infeasible"} 10`,
		MetricJobsFinished + `{outcome="rejected"} 10`,
		MetricJobsAdmitted + " 0",
		MetricJobsQueued + " 0",
		MetricJobsRunning + " 0",
		MetricJobPhase + `_count{phase="run"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", body)
	}
}

// TestAdmissionRejectReplays: resubmitting a rejected job converges on
// the same 422 (not a 200), counts as a replay, and a conflicting spec
// under the same ID is still a 409.
func TestAdmissionRejectReplays(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()

	if resp, data := post(t, ts.URL, rejectSpec("rr-1")); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	resp, data := post(t, ts.URL, rejectSpec("rr-1"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("replay: %d %s, want 422", resp.StatusCode, data)
	}
	var env apiError
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != CodeRejected {
		t.Errorf("replayed error = %+v (err %v), want code %q", env.Error, err, CodeRejected)
	}
	if jobTasks(s, "rr-1") != nil {
		t.Error("a rejected job keeps the task set triage parsed")
	}
	conflicting := fmt.Sprintf(`{"id":"rr-1","kind":"simulate","scheme":"EDF-fm","tasks":%s}`, rejectDoc)
	if resp, _ := post(t, ts.URL, conflicting); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting spec: %d, want 409", resp.StatusCode)
	}

	resp, data = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(data), MetricJobsReplayed+" 1") {
		t.Errorf("/metrics missing %q", MetricJobsReplayed+" 1")
	}
}

// TestAdmissionVerdictsOnAcceptedJobs: feasible simulate submissions are
// admitted as before, with their verdict counted on /metrics.
func TestAdmissionVerdictsOnAcceptedJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()

	spec := fmt.Sprintf(`{"id":"ok-1","kind":"simulate","scheme":"EUA*","load":0.5,"horizon":0.2,"tasks":%s}`, tasksDoc)
	if resp, data := post(t, ts.URL, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	if st := waitJob(t, ts.URL, "ok-1"); st.State != StateDone {
		t.Fatalf("job state %s, error %v", st.State, st.Error)
	}
	_, data := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(data), MetricAdmissionVerdicts+`{scheme="EUA*",verdict="accept"} 1`) {
		t.Errorf("/metrics missing the accept verdict count:\n%s", data)
	}
}

// TestAdmissionRejectRecovery: the rejection is durable. After a
// restart the job is rebuilt from the journal as a failed job with its
// verdict intact — it is not re-run — and resubmission still replays
// the 422.
func TestAdmissionRejectRecovery(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if resp, data := post(t, ts.URL, rejectSpec("rec-1")); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	resp, data := get(t, ts2.URL+"/v1/jobs/rec-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET recovered job: %d %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == nil {
		t.Fatalf("recovered status %+v, want failed with error", st)
	}
	if st.Error.Code != CodeRejected || st.Error.Verdict != "reject" {
		t.Errorf("recovered error %+v: the verdict field must survive the journal round-trip", st.Error)
	}
	if resp, data := post(t, ts2.URL, rejectSpec("rec-1")); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("replay after restart: %d %s, want 422", resp.StatusCode, data)
	}
	// Nothing was recovered into the queue: the rejection is terminal.
	_, data = get(t, ts2.URL+"/metrics")
	if !strings.Contains(string(data), MetricJobsRecovered+" 0") {
		t.Errorf("rejected job was re-enqueued at startup:\n%s", data)
	}
}

// TestMulticoreTriageDefers: the analytical admission bound is a
// uniprocessor capacity test, so a simulate job headed for a multicore
// engine — whether the spec asks for cores or the daemon default does —
// must bypass the fast-reject and reach the simulator.
func TestMulticoreTriageDefers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	spec := fmt.Sprintf(
		`{"id":"mc-defer","kind":"simulate","scheme":"EUA*","cores":2,"horizon":0.05,"tasks":%s}`,
		rejectDoc)
	if resp, data := post(t, ts.URL, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multicore submit: %d %s, want 202 (triage must defer)", resp.StatusCode, data)
	}

	sd, tsd := newTestServer(t, Config{Workers: 1, DefaultCores: 2})
	defer sd.Close()
	spec = fmt.Sprintf(
		`{"id":"mc-defer-def","kind":"simulate","scheme":"EUA*","horizon":0.05,"tasks":%s}`,
		rejectDoc)
	if resp, data := post(t, tsd.URL, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("daemon-default submit: %d %s, want 202 (triage must defer)", resp.StatusCode, data)
	}
	// The same document on one core still fast-rejects.
	if resp, _ := post(t, ts.URL, rejectSpec("mc-uni")); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("uniprocessor submit: %d, want 422", resp.StatusCode)
	}
}

// jobTasks reads the parsed task set a job holds.
func jobTasks(s *Server, id string) task.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id].tasks
}

// TestTriagedSetRunsOnce: an admitted simulate job carries the set
// triage parsed to its worker and drops it when it finishes; a job
// recovered from the journal was never triaged, so its worker parses
// the document, and its result is byte-identical to the fresh job's.
func TestTriagedSetRunsOnce(t *testing.T) {
	spec := fmt.Sprintf(`{"id":"once-1","kind":"simulate","scheme":"EUA*","load":0.7,"horizon":0.2,"seed":3,"tasks":%s}`, tasksDoc)

	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	// The only worker sleeps on a test job, so the simulate job waits in
	// the queue holding its parsed set.
	if resp, data := post(t, ts.URL, `{"id":"busy","kind":"test","payload":{"sleep_ms":200}}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit busy: %d %s", resp.StatusCode, data)
	}
	if resp, data := post(t, ts.URL, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	if queued := jobTasks(s, "once-1"); len(queued) != 2 {
		t.Fatalf("queued job holds %d parsed tasks, want the 2 triage parsed", len(queued))
	}
	fresh := waitJob(t, ts.URL, "once-1")
	if fresh.State != StateDone {
		t.Fatalf("fresh job: %+v", fresh)
	}
	if jobTasks(s, "once-1") != nil {
		t.Error("the finished job still holds its parsed task set")
	}

	// The same spec journaled as submitted but never run.
	dir := t.TempDir()
	journal, _, err := jobstore.Open(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Append(jobstore.Record{Kind: jobstore.KindSubmitted, JobID: "once-1", Spec: json.RawMessage(spec), Tenant: DefaultTenant}); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	defer s2.Close()
	recovered := waitJob(t, ts2.URL, "once-1")
	if recovered.State != StateDone {
		t.Fatalf("recovered job: %+v", recovered)
	}
	if !bytes.Equal(recovered.Result, fresh.Result) {
		t.Fatalf("recovered result differs from the fresh one:\n%s\nvs\n%s", recovered.Result, fresh.Result)
	}
}

// TestUnparseableTasksFailOnWorker: triage cannot parse the document, so
// it admits the job, and the worker fails it with the parser's own
// "tasks document:" message.
func TestUnparseableTasksFailOnWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer s.Close()
	const body = `{"id":"bad-doc","kind":"simulate","scheme":"EUA*","tasks":{"tasks":"not a list"}}`
	if resp, data := post(t, ts.URL, body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s, want 202 (triage defers what it cannot parse)", resp.StatusCode, data)
	}
	st := waitJob(t, ts.URL, "bad-doc")
	var spec JobSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	_, err := loadTasks(spec)
	want, ok := err.(*JobError)
	if !ok || !strings.HasPrefix(want.Message, "tasks document: ") {
		t.Fatalf("loadTasks = %v, want a tasks document error", err)
	}
	if st.State != StateFailed || st.Error == nil || *st.Error != *want {
		t.Fatalf("job %+v (error %+v), want failed with %+v", st, st.Error, want)
	}
}
