package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"github.com/euastar/euastar/internal/coordinator"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/jobstore"
	"github.com/euastar/euastar/internal/storage"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/tenancy"
)

// TenantHeader names a submission's tenant; absent or empty means
// DefaultTenant. Identifiers are 1–64 characters of [A-Za-z0-9._-].
const TenantHeader = "X-EUA-Tenant"

// DefaultTenant is the tenant legacy clients (no header) submit under.
const DefaultTenant = "default"

// Config parameterizes the daemon.
type Config struct {
	// DataDir is where durability lives: the job journal plus per-job
	// sweep checkpoints. Empty disables durability (useful in tests):
	// jobs then exist only in memory.
	DataDir string
	// Workers is the job worker pool size (default: GOMAXPROCS).
	Workers int
	// SimWorkers bounds the per-sweep cell concurrency inside one job
	// (default 1, so job-level parallelism dominates and one huge sweep
	// cannot monopolize the process).
	SimWorkers int
	// QueueDepth bounds each tenant's admission queue; a submission that
	// finds its tenant's queue full is refused with 429 + Retry-After
	// instead of growing memory without bound (default 64). Legacy
	// single-tenant deployments see exactly the old global behavior,
	// since all their jobs share DefaultTenant.
	QueueDepth int
	// TenantWeights assigns WDRR dequeue weights per tenant (see
	// internal/tenancy); unlisted tenants weigh 1. Over any saturated
	// window each active tenant's service share converges to
	// weight/Σweights, so one flooding tenant cannot starve the rest.
	TenantWeights map[string]int
	// TenantRate and TenantBurst configure each tenant's token-bucket
	// submission quota (tokens/second and bucket capacity). Rate 0
	// disables the quota.
	TenantRate  float64
	TenantBurst int
	// TenantMaxInFlight bounds each tenant's queued+running jobs; 0 means
	// unlimited.
	TenantMaxInFlight int
	// MaxTenants bounds the number of distinct tenants tracked (default
	// 64); submissions from further tenants are refused with 429.
	MaxTenants int
	// FS is the filesystem the durability layer writes through (journal,
	// sweep checkpoints, the coordinator's lease manifest). Nil means the
	// real filesystem; chaos tests and the -storage-faults flag inject a
	// fault-wrapped one.
	FS storage.FS
	// DiskLowWatermark, when > 0, is the free-space fraction of DataDir's
	// filesystem below which the server enters degraded mode: stateless
	// analyze jobs still run (unjournaled), but new durable work is
	// refused with 503 code=storage until space frees up.
	DiskLowWatermark float64
	// DiskProbe reports the free-space fraction of the filesystem holding
	// dir. Nil means a real statfs; tests inject outcomes.
	DiskProbe func(dir string) (float64, error)
	// DefaultTimeout applies to jobs that do not set timeout_seconds;
	// MaxTimeout caps what any job may request. Zero means unlimited.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultCores and DefaultPartition apply to sweep and simulate jobs
	// that do not set cores/partition themselves (the euad -cores and
	// -partition flags). Zero/empty mean uniprocessor.
	DefaultCores     int
	DefaultPartition string
	// RetryAfter is the backpressure hint returned with 429 (default 1s).
	RetryAfter time.Duration
	// MaxBody bounds a submission body (default 1 MiB).
	MaxBody int64
	// MaxWait caps the ?wait= long-poll duration (default 30s).
	MaxWait time.Duration
	// Logf receives diagnostics (default: silent).
	Logf func(format string, args ...any)

	// Cluster, when non-nil, runs this daemon as a sweep coordinator:
	// the cluster endpoints are mounted, sweep jobs are distributed
	// across registered workers, and the local run merges the committed
	// cells (computing any gaps itself). The coordinator's Registry, Logf
	// and FS are wired to the server's; its lease manifest defaults to
	// DataDir/leases.manifest when DataDir is set.
	Cluster *coordinator.Config

	// testExec, when set, admits the hidden "test" job kind and executes
	// it. In-package tests use it to inject sleeps, failures and panics
	// deterministically.
	testExec func(ctx context.Context, spec JobSpec) (json.RawMessage, error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// job is the server-side state of one submission.
type job struct {
	spec    JobSpec
	specRaw []byte // canonical spec JSON (idempotency comparison, journal)
	tenant  string
	// unjournaled marks a job admitted while storage was degraded: no
	// submission record exists, so no terminal record may be written
	// either — the job lives and dies in memory.
	unjournaled bool
	state       string
	result      json.RawMessage
	jerr        *JobError
	done        chan struct{} // closed on terminal state
	admittedAt  time.Time     // when the job entered the queue (or was recovered)
	timings     JobTimings    // phase durations, filled in as phases complete
	// tasks is the simulate job's task set as triage parsed it, for the
	// worker to run; nil when triage did not parse it (multi-core jobs,
	// recovered jobs, a document it could not parse) and once the run
	// has ended.
	tasks task.Set
}

// Server is the euad daemon core: admission, queueing, execution,
// durability. It implements http.Handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	fs      storage.FS
	journal *jobstore.Journal
	ckptDir string

	// tenants owns admission quotas, per-tenant bounded queues and the
	// weighted-fair dequeue order; workers block on its Dequeue.
	tenants *tenancy.Controller[*job]

	mu       sync.Mutex
	jobs     map[string]*job
	draining bool

	// Disk watermark probe cache (degraded-mode detection).
	probeMu   sync.Mutex
	probeAt   time.Time
	probeFree float64
	probeErr  error

	// ctx is the parent of every job's context; Drain cancels it to stop
	// in-flight jobs cooperatively.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	started time.Time

	// reg collects the daemon's own euad_* metrics and accumulates the
	// euastar_engine_* / euastar_sched_* families from every job it runs,
	// each engine run's counts once, when the run ends; /metrics renders
	// it in the Prometheus text format.
	reg *telemetry.Registry
	ins serverInstruments

	// coord distributes sweep cells across registered worker daemons
	// (nil unless Config.Cluster is set).
	coord *coordinator.Coordinator
}

// New builds a Server: recovers the journal (repairing any torn tail and
// re-enqueueing unfinished jobs), then starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		fs:      cfg.FS,
		jobs:    make(map[string]*job),
		started: time.Now(),
		reg:     telemetry.NewRegistry(),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if s.fs == nil {
		s.fs = storage.OS()
	}
	s.ins.init(s.reg)
	s.tenants = tenancy.New[*job](tenancy.Config{
		Weights:     cfg.TenantWeights,
		QueueDepth:  cfg.QueueDepth,
		Rate:        cfg.TenantRate,
		Burst:       cfg.TenantBurst,
		MaxInFlight: cfg.TenantMaxInFlight,
		MaxTenants:  cfg.MaxTenants,
	})

	var pending []*job
	if cfg.DataDir != "" {
		if err := s.fs.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: data dir: %w", err)
		}
		s.ckptDir = filepath.Join(cfg.DataDir, "checkpoints")
		if err := s.fs.MkdirAll(s.ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: checkpoint dir: %w", err)
		}
		jpath := filepath.Join(cfg.DataDir, "journal.wal")
		journal, recovery, err := jobstore.OpenFS(s.fs, jpath)
		if errors.Is(err, jobstore.ErrJournalCorrupt) {
			// The header itself is unreadable: move the wreck aside (it may
			// still be forensically useful) and stay up with a fresh journal
			// rather than refusing to start.
			aside := jpath + ".corrupt"
			s.cfg.Logf("euad: %v; moving journal aside to %s and starting fresh", err, aside)
			if rerr := s.fs.Rename(jpath, aside); rerr != nil {
				return nil, fmt.Errorf("server: quarantine corrupt journal: %w", rerr)
			}
			journal, recovery, err = jobstore.OpenFS(s.fs, jpath)
		}
		if err != nil {
			return nil, err
		}
		s.journal = journal
		if recovery.TruncatedBytes > 0 {
			s.cfg.Logf("euad: journal recovery dropped %d bytes of torn tail", recovery.TruncatedBytes)
		}
		pending = s.recover(recovery)
	}

	if cfg.Cluster != nil {
		cc := *cfg.Cluster
		cc.Registry = s.reg
		cc.Logf = cfg.Logf
		cc.FS = s.fs
		if cc.ManifestPath == "" && cfg.DataDir != "" {
			cc.ManifestPath = filepath.Join(cfg.DataDir, "leases.manifest")
		}
		s.coord = coordinator.New(cc)
	}

	// Recovered pending jobs bypass admission (they were admitted in a
	// previous life): Recover enqueues past quotas and caps.
	for _, j := range pending {
		j.admittedAt = time.Now()
		s.ins.recovered.Inc()
		s.tenants.Recover(j.tenant, j)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.routes()
	return s, nil
}

// recover rebuilds in-memory job state from the replayed journal and
// returns the unfinished jobs, in original submission order, for
// re-enqueueing. Unfinished sweeps will resume from their per-job
// checkpoint and complete bit-identically to an uninterrupted run.
func (s *Server) recover(recovery *jobstore.Recovery) []*job {
	states := jobstore.Rebuild(recovery.Records)
	var pending []*job
	for _, r := range recovery.Records {
		if r.Kind != jobstore.KindSubmitted {
			continue
		}
		st := states[r.JobID]
		if st == nil || s.jobs[r.JobID] != nil {
			continue
		}
		j := &job{specRaw: st.Spec, tenant: st.Tenant, done: make(chan struct{})}
		if j.tenant == "" {
			j.tenant = DefaultTenant // journals written before tenancy existed
		}
		if err := json.Unmarshal(st.Spec, &j.spec); err != nil {
			// A record this damaged should be impossible past the CRC, but
			// never let it take the process down or wedge the queue.
			j.state = StateFailed
			j.jerr = &JobError{Code: CodeInvalid, Message: fmt.Sprintf("journaled spec unreadable: %v", err)}
			close(j.done)
			s.jobs[r.JobID] = j
			continue
		}
		// Compare future resubmissions against the spec as this version
		// marshals it, not the journaled bytes: a record written by an
		// older daemon may carry fields since removed (e.g. "fastpath"),
		// and the client's identical retry must still replay, not
		// conflict. The journal itself keeps its bytes.
		if canonical, err := j.spec.canonical(); err == nil {
			j.specRaw = canonical
		}
		s.jobs[j.spec.ID] = j
		switch st.Kind {
		case jobstore.KindDone:
			j.state = StateDone
			j.result = st.Result
			close(j.done)
		case jobstore.KindFailed:
			j.state = StateFailed
			j.jerr = &JobError{Code: CodeFailed, Message: "journaled failure"}
			if len(st.Error) > 0 {
				var je JobError
				if err := json.Unmarshal(st.Error, &je); err == nil && je.Code != "" {
					j.jerr = &je
				}
			}
			close(j.done)
		default:
			j.state = StateQueued
			pending = append(pending, j)
			s.cfg.Logf("euad: recovering unfinished job %s (%s)", j.spec.ID, j.spec.Kind)
		}
	}
	return pending
}

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// worker executes queued jobs in weighted-fair tenant order until the
// controller is closed by Drain and its queues drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, tenant, ok := s.tenants.Dequeue()
		if !ok {
			return
		}
		now := time.Now()
		s.mu.Lock()
		j.state = StateRunning
		s.notePhaseLocked(j, phaseQueueWait, now.Sub(j.admittedAt))
		s.mu.Unlock()
		result, jerr := s.execute(j)
		s.finish(j, result, jerr)
		s.tenants.Done(tenant)
	}
}

// execute runs one job with panic isolation under a context that Drain
// cancels and, when the job has a wall-clock budget, that expires with
// it; the engine polls that context's Done channel. A panicking
// simulation fails that job with a structured error; the process and the
// other jobs are untouched.
func (s *Server) execute(j *job) (result json.RawMessage, jerr *JobError) {
	runStart := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.notePhase(j, phaseRun, time.Since(runStart))
			jerr = &JobError{Code: CodePanic, Message: fmt.Sprintf("job panicked: %v", r)}
			s.logf("euad: job %s panicked: %v\n%s", j.spec.ID, r, debug.Stack())
		}
	}()

	ctx := s.ctx
	if timeout := j.spec.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var (
		out any
		err error
	)
	switch j.spec.Kind {
	case KindAnalyze:
		out, err = runAnalyze(j.spec)
	case KindSimulate:
		out, err = s.runSimulate(ctx, j.spec, j.tasks)
	case KindSweep:
		out, err = s.runSweep(ctx, j.spec)
	case KindTest:
		out, err = s.cfg.testExec(ctx, j.spec)
	default:
		err = invalidf("unknown job kind %q", j.spec.Kind)
	}
	s.notePhase(j, phaseRun, time.Since(runStart))
	if err != nil {
		return nil, classify(err, ctx.Err())
	}
	renderStart := time.Now()
	raw, merr := json.Marshal(out)
	s.notePhase(j, phaseRender, time.Since(renderStart))
	if merr != nil {
		return nil, &JobError{Code: CodeFailed, Message: fmt.Sprintf("marshal result: %v", merr)}
	}
	return raw, nil
}

// classify maps an execution error onto the structured job error the API
// reports, given why the job's context ended (nil if it did not):
// explicit job errors pass through; a cooperative stop is a timeout when
// the context's deadline passed (the job's own budget) and an
// interruption otherwise (server drain); everything else failed on its
// own terms.
func classify(err, stop error) *JobError {
	var je *JobError
	if errors.As(err, &je) {
		return je
	}
	interrupted := errors.Is(err, engine.ErrInterrupted)
	var se *experiment.SweepError
	if errors.As(err, &se) && se.Interrupted {
		interrupted = true
	}
	if interrupted {
		if errors.Is(stop, context.DeadlineExceeded) {
			return &JobError{Code: CodeTimeout, Message: "job exceeded its wall-clock budget"}
		}
		return &JobError{Code: CodeInterrupted, Message: "server shutting down; job will resume on restart"}
	}
	return &JobError{Code: CodeFailed, Message: err.Error()}
}

// finish commits a job's terminal state: journal first (fsynced), then
// memory, then wake waiters. Interrupted jobs are deliberately NOT
// journaled as terminal — on the next start they are still "submitted"
// and therefore resume.
func (s *Server) finish(j *job, result json.RawMessage, jerr *JobError) {
	if s.journal != nil && !j.unjournaled && (jerr == nil || jerr.Code != CodeInterrupted) {
		rec := jobstore.Record{JobID: j.spec.ID}
		if jerr == nil {
			rec.Kind = jobstore.KindDone
			rec.Result = result
		} else {
			rec.Kind = jobstore.KindFailed
			if raw, err := json.Marshal(jerr); err == nil {
				rec.Error = raw
			}
		}
		if err := s.journal.Append(rec); err != nil {
			s.logf("euad: job %s: journal terminal record: %v", j.spec.ID, err)
			if jerr == nil {
				// The result exists but could not be made durable; the client
				// still gets it, a restart will re-run the job.
				s.logf("euad: job %s result is not durable", j.spec.ID)
			}
		}
	}
	outcome := StateDone
	if jerr != nil {
		outcome = jerr.Code
	}
	s.ins.finished(outcome).Inc()
	if j.tenant != "" {
		s.ins.tenantFinished(j.tenant).Inc()
	}
	s.mu.Lock()
	j.tasks = nil // a finished job keeps its result, not its input
	if jerr == nil {
		j.state = StateDone
		j.result = result
	} else {
		j.state = StateFailed
		j.jerr = jerr
	}
	s.mu.Unlock()
	close(j.done)
}

// Drain performs graceful shutdown: stop admitting, let queued and
// running jobs finish, and — if ctx expires first — stop the stragglers
// cooperatively so their checkpoints are consistent and they resume on
// the next start. The journal is closed last.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already draining")
	}
	s.draining = true
	s.mu.Unlock()
	s.tenants.Close()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		s.cancel()
		<-finished
	}
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// Close stops the server immediately (drain with an already-expired
// deadline): in-flight jobs are interrupted at their next engine event.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Drain(ctx)
}

// --- HTTP ---

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.coord != nil {
		s.coord.Routes(mux)
	}
	pprofRoutes(mux)
	s.mux = mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// apiError is the JSON error envelope.
type apiError struct {
	Error JobError `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, apiError{Error: JobError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// retryAfterSeconds renders the backpressure hint, always at least 1s.
func (s *Server) retryAfterSeconds() string {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// tenantOf extracts and validates the submission's tenant. An absent or
// empty header means DefaultTenant, so legacy clients keep working.
func tenantOf(r *http.Request) (string, bool) {
	name := r.Header.Get(TenantHeader)
	if name == "" {
		return DefaultTenant, true
	}
	if !tenancy.ValidTenant(name) {
		return "", false
	}
	return name, true
}

// handleSubmit is the admission path: validate, dedupe, charge the
// tenant's quota, journal, enqueue — in that order, so a 202 means the
// job is durable and will run, a 429 means it touched neither the queue
// nor the disk, and a journal failure is unwound from the quota before
// the 503 goes out.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
	if err != nil {
		s.ins.reject(rejectInvalid)
		writeError(w, http.StatusBadRequest, CodeInvalid, "read body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBody {
		s.ins.reject(rejectInvalid)
		writeError(w, http.StatusRequestEntityTooLarge, CodeInvalid, "body exceeds %d bytes", s.cfg.MaxBody)
		return
	}
	var spec JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		s.ins.reject(rejectInvalid)
		writeError(w, http.StatusBadRequest, CodeInvalid, "parse job spec: %v", err)
		return
	}
	if err := spec.Validate(s.cfg.testExec != nil); err != nil {
		s.ins.reject(rejectInvalid)
		writeError(w, http.StatusBadRequest, CodeInvalid, "%v", err)
		return
	}
	tenant, ok := tenantOf(r)
	if !ok {
		s.ins.reject(rejectInvalid)
		writeError(w, http.StatusBadRequest, CodeInvalid,
			"invalid %s header (want 1-64 chars of [A-Za-z0-9._-])", TenantHeader)
		return
	}
	canonical, err := spec.canonical()
	if err != nil {
		s.ins.reject(rejectInvalid)
		writeError(w, http.StatusBadRequest, CodeInvalid, "encode job spec: %v", err)
		return
	}
	// Degraded-mode storage probe, taken before the server lock (it has
	// its own cache) and before any quota is charged.
	mode := s.storageMode()

	s.mu.Lock()
	if existing := s.jobs[spec.ID]; existing != nil {
		// Idempotent resubmission: same ID + same spec returns the job's
		// current status; same ID + different spec is a client bug. The
		// replay is answered before the tenant's bucket is charged, so
		// retrying a submission never double-spends quota.
		same := bytes.Equal(existing.specRaw, canonical)
		status := s.statusLocked(existing)
		s.mu.Unlock()
		if !same {
			s.ins.reject(rejectConflict)
			writeError(w, http.StatusConflict, CodeInvalid, "job %s already exists with a different spec", spec.ID)
			return
		}
		s.ins.replayed.Inc()
		if status.Error != nil && status.Error.Code == CodeRejected {
			// An analytically rejected job replays as the same 422, so a
			// retrying client converges on the rejection instead of a 200.
			writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: *status.Error})
			return
		}
		writeJSON(w, http.StatusOK, status)
		return
	}
	if s.draining {
		s.mu.Unlock()
		s.ins.reject(rejectDraining)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; not admitting jobs")
		return
	}
	// Degraded or poisoned storage: durability cannot be promised, so
	// only stateless analyze jobs (served unjournaled) are admitted; new
	// durable work is refused rather than falsely acknowledged.
	journaled := s.journal != nil
	if mode != storageHealthy {
		if spec.Kind != KindAnalyze {
			s.mu.Unlock()
			s.ins.reject(rejectStorage)
			s.ins.tenantRejected(tenant, rejectStorage).Inc()
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, http.StatusServiceUnavailable, CodeStorage,
				"storage %s: not accepting durable work (stateless analyze still served)", mode)
			return
		}
		journaled = false
	}
	// Analytical admission triage: a provably infeasible simulate job is
	// terminated here — journaled as a failed job so the rejection
	// replays across restarts, but never queued. It runs before the
	// quota so a rejection costs the tenant nothing.
	parsed, jerr := s.triage(spec)
	if jerr != nil {
		j := &job{spec: spec, specRaw: canonical, tenant: tenant, state: StateFailed, jerr: jerr, done: make(chan struct{})}
		if journaled {
			if err := s.journal.Append(jobstore.Record{
				Kind: jobstore.KindSubmitted, JobID: spec.ID, Spec: canonical, Tenant: tenant,
			}); err != nil {
				s.mu.Unlock()
				s.storageRefused(w, tenant, err)
				return
			}
			if raw, merr := json.Marshal(jerr); merr == nil {
				if err := s.journal.Append(jobstore.Record{
					Kind: jobstore.KindFailed, JobID: spec.ID, Error: raw,
				}); err != nil {
					s.logf("euad: job %s: journal rejection: %v", spec.ID, err)
				}
			}
		}
		close(j.done)
		s.jobs[spec.ID] = j
		s.mu.Unlock()
		s.ins.reject(rejectInfeasible)
		s.ins.finished(CodeRejected).Inc()
		writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: *jerr})
		return
	}
	// Tenant admission: token-bucket quota, per-tenant queue bound and
	// in-flight cap. Two-phase — a journal failure below refunds the
	// reservation, so the tenant is never charged for work the server
	// did not accept.
	dec := s.tenants.Reserve(tenant)
	if !dec.OK {
		s.mu.Unlock()
		reason := rejectReason(dec.Reason)
		s.ins.reject(reason)
		s.ins.tenantRejected(tenant, dec.Reason).Inc()
		retry := s.retryAfterSeconds()
		if dec.RetryAfter > 0 {
			retry = strconv.Itoa(int((dec.RetryAfter + time.Second - 1) / time.Second))
		}
		w.Header().Set("Retry-After", retry)
		writeError(w, http.StatusTooManyRequests, "overloaded",
			"tenant %s over %s limit", tenant, dec.Reason)
		return
	}
	j := &job{spec: spec, specRaw: canonical, tenant: tenant, unjournaled: !journaled, state: StateQueued, done: make(chan struct{}), admittedAt: time.Now(), tasks: parsed}
	if journaled {
		// Durability before acknowledgment: the fsynced submission record
		// is what lets a kill -9 after the 202 still run the job.
		if err := s.journal.Append(jobstore.Record{
			Kind: jobstore.KindSubmitted, JobID: spec.ID, Spec: canonical, Tenant: tenant,
		}); err != nil {
			s.tenants.Abort(tenant)
			s.mu.Unlock()
			s.storageRefused(w, tenant, err)
			return
		}
	}
	s.jobs[spec.ID] = j
	s.tenants.Commit(tenant, j)
	status := s.statusLocked(j)
	s.mu.Unlock()
	s.ins.admitted.Inc()
	s.ins.tenantAdmitted(tenant).Inc()
	writeJSON(w, http.StatusAccepted, status)
}

// storageRefused answers a submission whose journal append failed: 503
// code=storage with a Retry-After, never a false acknowledgment. The
// failed append has already truncated the partial record (or poisoned
// the journal), so the refused job cannot resurface as durable after a
// restart.
func (s *Server) storageRefused(w http.ResponseWriter, tenant string, err error) {
	s.ins.reject(rejectStorage)
	s.ins.tenantRejected(tenant, rejectStorage).Inc()
	if errors.Is(err, jobstore.ErrPoisoned) {
		s.logf("euad: journal poisoned; refusing durable work until restart")
	}
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	writeError(w, http.StatusServiceUnavailable, CodeStorage, "journal submission: %v", err)
}

// rejectReason maps a tenancy reject reason onto the daemon's rejection
// metric labels (queue-full keeps the historical "overloaded" label).
func rejectReason(reason string) string {
	switch reason {
	case tenancy.RejectQueue:
		return rejectOverloaded
	case tenancy.RejectQuota:
		return rejectQuota
	case tenancy.RejectInFlight:
		return rejectInFlight
	case tenancy.RejectTenantLimit:
		return rejectTenantLimit
	}
	return rejectOverloaded
}

// statusLocked snapshots a job's API status; callers hold s.mu. Timings
// appear once the job has been picked up (queue wait is unknown before).
func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:     j.spec.ID,
		Kind:   j.spec.Kind,
		State:  j.state,
		Result: j.result,
		Error:  j.jerr,
	}
	if j.state != StateQueued {
		t := j.timings
		st.Timings = &t
	}
	return st
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", id)
		return
	}
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		wait, err := time.ParseDuration(waitSpec)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalid, "bad wait %q", waitSpec)
			return
		}
		if wait > s.cfg.MaxWait {
			wait = s.cfg.MaxWait
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	s.mu.Lock()
	status := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		st := s.statusLocked(j)
		st.Result = nil // listing is a summary; fetch the job for its result
		out = append(out, st)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// healthState is the /healthz and /readyz payload.
type healthState struct {
	Status        string `json:"status"`
	Storage       string `json:"storage"` // ok | degraded | poisoned (DESIGN.md §14)
	UptimeSeconds int64  `json:"uptime_seconds"`
	Queued        int    `json:"queued"`
	Running       int    `json:"running"`
	Done          int    `json:"done"`
	Failed        int    `json:"failed"`
	QueueDepth    int    `json:"queue_depth"`
	Workers       int    `json:"workers"`
}

func (s *Server) health() (healthState, bool) {
	mode := s.storageMode() // probes outside s.mu (it has its own cache)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := healthState{
		Status:        "ok",
		Storage:       mode,
		UptimeSeconds: int64(time.Since(s.started) / time.Second),
		QueueDepth:    s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			h.Queued++
		case StateRunning:
			h.Running++
		case StateDone:
			h.Done++
		case StateFailed:
			h.Failed++
		}
	}
	if s.draining {
		h.Status = "draining"
	}
	return h, !s.draining
}

// handleHealthz reports liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h, _ := s.health()
	writeJSON(w, http.StatusOK, h)
}

// handleReadyz reports readiness: 503 while draining, so load balancers
// stop routing new work here before SIGTERM completes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h, ready := s.health()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
