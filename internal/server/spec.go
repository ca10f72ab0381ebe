// Package server implements the euad daemon: an HTTP/JSON service that
// accepts schedulability analyses, single simulations and full experiment
// sweeps, runs them on a bounded worker pool, and is engineered to stay
// up — bounded admission with 429 backpressure, per-job panic isolation,
// cooperative deadlines propagated into the simulation engine, graceful
// drain, and a crash-safe job journal that lets a kill -9 mid-sweep
// resume on restart (see DESIGN.md §9).
package server

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/euastar/euastar/internal/experiment"
)

// Job kinds accepted by the service. KindTest is only admitted when the
// server was built with a test executor (in-package tests use it to
// inject sleeps, failures and panics deterministically).
const (
	KindAnalyze  = "analyze"
	KindSimulate = "simulate"
	KindSweep    = "sweep"
	KindTest     = "test"
)

// sweepExperiments are the sweeps a job may request; each maps onto the
// corresponding internal/experiment entry point.
var sweepExperiments = map[string]bool{
	"fig2":      true,
	"fig3":      true,
	"assurance": true,
	"ablation":  true,
}

// JobSpec is a job submission. ID is client-supplied and is the
// idempotency key: resubmitting the same ID with the same spec returns
// the existing job's status instead of enqueueing a duplicate, which
// makes client retries safe across ambiguous network failures.
type JobSpec struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`

	// Sweep parameters (Kind == "sweep").
	Experiment string    `json:"experiment,omitempty"` // fig2 | fig3 | assurance | ablation
	Energy     string    `json:"energy,omitempty"`     // E1 | E2 | E3 (default E1)
	Loads      []float64 `json:"loads,omitempty"`      // default 0.2..1.8
	Seeds      int       `json:"seeds,omitempty"`      // replications, seeds 1..n (default 3)
	Horizon    float64   `json:"horizon,omitempty"`    // seconds of arrivals per run (default 1)
	Bounds     []int     `json:"bounds,omitempty"`     // fig3 UAM bounds (default 1..3)
	Faults     string    `json:"faults,omitempty"`     // deterministic fault plan spec

	// Multiprocessor parameters (sweep and simulate jobs). Cores > 1 runs
	// each engine on that many DVS cores; Partition picks the placement
	// policy (ff | wf | global, default ff). Zero/empty inherit the
	// daemon's -cores/-partition defaults.
	Cores     int    `json:"cores,omitempty"`
	Partition string `json:"partition,omitempty"`

	// Task-set parameters (Kind == "analyze" or "simulate"): a task-set
	// document in the internal/config JSON format.
	Tasks  json.RawMessage `json:"tasks,omitempty"`
	Scheme string          `json:"scheme,omitempty"` // simulate: scheduling scheme name
	Load   float64         `json:"load,omitempty"`   // scale the set to this system load
	Seed   uint64          `json:"seed,omitempty"`   // simulate: workload seed

	// TimeoutSeconds bounds the whole job's wall-clock time; zero selects
	// the server default. The deadline propagates into the engine's
	// cooperative interrupt, so a timed-out simulation stops at its next
	// event, never mid-update.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`

	// Payload is free-form input for test jobs.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Validate rejects malformed submissions before they consume a queue
// slot. testJobs admits the hidden test kind.
func (s *JobSpec) Validate(testJobs bool) error {
	if s.ID == "" {
		return fmt.Errorf("job id required")
	}
	if len(s.ID) > 128 {
		return fmt.Errorf("job id longer than 128 bytes")
	}
	if s.TimeoutSeconds < 0 {
		return fmt.Errorf("timeout_seconds must be non-negative")
	}
	for _, l := range s.Loads {
		if l <= 0 {
			return fmt.Errorf("load %g must be positive", l)
		}
	}
	if s.Seeds < 0 {
		return fmt.Errorf("seeds must be non-negative")
	}
	if s.Cores < 0 {
		return fmt.Errorf("cores must be non-negative")
	}
	switch s.Partition {
	case "", "ff", "wf", "global":
	default:
		return fmt.Errorf("unknown partition policy %q (ff|wf|global)", s.Partition)
	}
	switch s.Kind {
	case KindSweep:
		if !sweepExperiments[s.Experiment] {
			return fmt.Errorf("unknown sweep experiment %q", s.Experiment)
		}
	case KindAnalyze:
		if len(s.Tasks) == 0 {
			return fmt.Errorf("analyze needs a tasks document")
		}
	case KindSimulate:
		if len(s.Tasks) == 0 {
			return fmt.Errorf("simulate needs a tasks document")
		}
		if _, ok := schemeByName(s.Scheme); !ok {
			return fmt.Errorf("unknown scheme %q", s.Scheme)
		}
	case KindTest:
		if !testJobs {
			return fmt.Errorf("unknown job kind %q", s.Kind)
		}
	default:
		return fmt.Errorf("unknown job kind %q", s.Kind)
	}
	return nil
}

// canonical returns the spec's canonical JSON, the bytes compared for
// idempotent resubmission and stored in the journal.
func (s *JobSpec) canonical() ([]byte, error) { return json.Marshal(s) }

// timeout resolves the job's wall-clock budget against the server's
// default and ceiling.
func (s *JobSpec) timeout(def, max time.Duration) time.Duration {
	d := def
	if s.TimeoutSeconds > 0 {
		d = time.Duration(s.TimeoutSeconds * float64(time.Second))
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d
}

// schemeByName resolves a scheduling scheme by its experiment name
// (baseline, Figure 2 and ablation families).
func schemeByName(name string) (experiment.Scheme, bool) {
	if sc := experiment.BaselineScheme(); sc.Name == name {
		return sc, true
	}
	for _, sc := range experiment.Figure2Schemes() {
		if sc.Name == name {
			return sc, true
		}
	}
	for _, sc := range experiment.AblationSchemes() {
		if sc.Name == name {
			return sc, true
		}
	}
	return experiment.Scheme{}, false
}

// Error codes a job can fail with. They are part of the API: clients
// branch on Code, not on message text.
const (
	// CodeInvalid: the spec passed admission but failed deeper validation
	// (bad task-set document, unknown energy preset, ...).
	CodeInvalid = "invalid"
	// CodeFailed: the simulation or sweep itself errored.
	CodeFailed = "failed"
	// CodePanic: the job panicked; the panic was confined to the job.
	CodePanic = "panic"
	// CodeTimeout: the job exceeded its wall-clock budget and was stopped
	// cooperatively.
	CodeTimeout = "timeout"
	// CodeInterrupted: the server was draining or shutting down; the job
	// did not finish here but is journaled as unfinished and will be
	// re-run (sweeps: resumed from checkpoint) on the next start.
	CodeInterrupted = "interrupted"
	// CodeRejected: the analytical admission test proved the simulate
	// spec infeasible, so the job was refused with 422 before touching
	// the queue — it never runs, and resubmitting it replays the same
	// rejection. The Verdict field carries the analyzer's verdict.
	CodeRejected = "rejected"
	// CodeStorage: the durability layer refused the job — the journal
	// append failed (or the journal is poisoned, or the disk is below its
	// free-space watermark), so the server answered 503 instead of
	// acknowledging work it could not make durable. Retry elsewhere or
	// after the Retry-After hint; stateless analyze jobs are still served.
	CodeStorage = "storage"
)

// JobError is the structured failure a job terminates with.
type JobError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Verdict is the admission analyzer's verdict when Code is
	// CodeRejected (see internal/admission); empty otherwise.
	Verdict string `json:"verdict,omitempty"`
}

func (e *JobError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Job states reported by the API.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobTimings is the per-job phase breakdown reported once a worker has
// picked the job up: time spent queued, executing, and rendering the
// result. The same durations feed the euad_job_phase_seconds histograms.
type JobTimings struct {
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	RunSeconds       float64 `json:"run_seconds"`
	RenderSeconds    float64 `json:"render_seconds"`
}

// JobStatus is the API view of one job.
type JobStatus struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	State   string          `json:"state"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *JobError       `json:"error,omitempty"`
	Timings *JobTimings     `json:"timings,omitempty"`
}

// Terminal reports whether the status is final.
func (s *JobStatus) Terminal() bool { return s.State == StateDone || s.State == StateFailed }

// SweepResult is a sweep job's result payload: the machine-readable rows
// (the same document euasim -json writes) plus the rendered text table,
// so euasim -remote prints byte-identical output to a local run.
type SweepResult struct {
	experiment.JSONDocument
	Text string `json:"text"`
}
