package server

import (
	"bytes"
	"crypto/sha1"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"github.com/euastar/euastar"
	"github.com/euastar/euastar/internal/config"
	"github.com/euastar/euastar/internal/coordinator"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/task"
)

// invalidf builds a CodeInvalid job error: the spec was admissible but
// its content does not stand up to deeper validation.
func invalidf(format string, args ...any) *JobError {
	return &JobError{Code: CodeInvalid, Message: fmt.Sprintf(format, args...)}
}

// loadTasks parses the spec's task-set document and optionally rescales
// it to the requested system load.
func loadTasks(spec JobSpec) (task.Set, error) {
	ts, err := config.Load(bytes.NewReader(spec.Tasks))
	if err != nil {
		return nil, invalidf("tasks document: %v", err)
	}
	if spec.Load > 0 {
		ts = ts.ScaleToLoad(spec.Load, cpu.PowerNowK6().Max())
	}
	return ts, nil
}

// analyzeResult is the payload of an analyze job: the static
// schedulability facts of the submitted task set.
type analyzeResult struct {
	Tasks int `json:"tasks"`
	// Schedulable: Theorem 1's feasibility test at the maximum frequency.
	Schedulable bool `json:"schedulable"`
	// Witness is the first overloaded window's demand ratio when
	// unschedulable (>1), or the worst window's ratio when schedulable.
	Witness float64 `json:"witness"`
	// MinFrequency is the lowest ladder frequency that keeps the set
	// schedulable; Feasible reports whether any ladder frequency does.
	MinFrequency float64 `json:"min_frequency"`
	Feasible     bool    `json:"feasible"`
	// TheoremOneFrequency is the paper's closed-form f_o lower bound.
	TheoremOneFrequency float64 `json:"theorem_one_frequency"`
}

func runAnalyze(spec JobSpec) (any, error) {
	ts, err := loadTasks(spec)
	if err != nil {
		return nil, err
	}
	ft := cpu.PowerNowK6()
	out := analyzeResult{Tasks: len(ts)}
	out.Schedulable, out.Witness = euastar.Schedulable(ts, ft.Max())
	out.MinFrequency, out.Feasible = euastar.MinimumFrequency(ts, ft)
	out.TheoremOneFrequency = euastar.TheoremOneFrequency(ts)
	return out, nil
}

// simulateResult is the JSON-safe summary of one simulation run.
type simulateResult struct {
	Scheduler          string  `json:"scheduler"`
	AccruedUtility     float64 `json:"accrued_utility"`
	MaxPossibleUtility float64 `json:"max_possible_utility"`
	UtilityRatio       float64 `json:"utility_ratio"`
	TotalEnergy        float64 `json:"total_energy"`
	BusyTime           float64 `json:"busy_time"`
	EndTime            float64 `json:"end_time"`
	Switches           int     `json:"switches"`
	Released           int     `json:"released"`
	Completed          int     `json:"completed"`
	Aborted            int     `json:"aborted"`
	CriticalMisses     int     `json:"critical_misses"`
	AssuranceSatisfied bool    `json:"assurance_satisfied"`

	// Multiprocessor fields, present only when the job ran on >1 cores.
	Cores      int `json:"cores,omitempty"`
	Migrations int `json:"migrations,omitempty"`

	PerTask []simulateTask `json:"per_task"`
}

type simulateTask struct {
	TaskID    int     `json:"task_id"`
	Name      string  `json:"name,omitempty"`
	Released  int     `json:"released"`
	Completed int     `json:"completed"`
	Aborted   int     `json:"aborted"`
	MetRatio  float64 `json:"met_ratio"`
	Satisfied bool    `json:"satisfied"`
}

func (s *Server) runSimulate(spec JobSpec, interrupt <-chan struct{}) (any, error) {
	ts, err := loadTasks(spec)
	if err != nil {
		return nil, err
	}
	scheme, ok := schemeByName(spec.Scheme)
	if !ok {
		return nil, invalidf("unknown scheme %q", spec.Scheme)
	}
	ft := cpu.PowerNowK6()
	model, err := energy.NewPreset(energyPreset(spec), ft.Max())
	if err != nil {
		return nil, invalidf("%v", err)
	}
	plan, jerr := faultPlan(spec)
	if jerr != nil {
		return nil, jerr
	}
	horizon := spec.Horizon
	if horizon == 0 {
		horizon = 1.0
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	cores, policyName := s.multiDefaults(spec)
	scheduler := scheme.New()
	if cores > 1 {
		if policyName == "global" {
			scheduler = partition.NewGlobal(cores)
		} else {
			policy, perr := partition.ParsePolicy(policyName)
			if perr != nil {
				return nil, invalidf("%v", perr)
			}
			scheduler = partition.New(cores, policy, scheme.New)
		}
	}
	res, err := engine.Run(engine.Config{
		Tasks:              ts,
		Scheduler:          scheduler,
		Freqs:              ft,
		Cores:              cores,
		Energy:             model,
		Horizon:            horizon,
		Seed:               seed,
		AbortAtTermination: scheme.Abort,
		Faults:             plan,
		Interrupt:          interrupt,
		Telemetry:          s.reg,
	})
	if err != nil {
		return nil, err
	}
	rep := metrics.Analyze(res)
	out := simulateResult{
		Scheduler:          rep.Scheduler,
		AccruedUtility:     finite(rep.AccruedUtility),
		MaxPossibleUtility: finite(rep.MaxPossibleUtility),
		UtilityRatio:       finite(rep.UtilityRatio()),
		TotalEnergy:        finite(rep.TotalEnergy),
		BusyTime:           finite(rep.BusyTime),
		EndTime:            finite(rep.EndTime),
		Switches:           rep.Switches,
		Released:           rep.Released,
		Completed:          rep.Completed,
		Aborted:            rep.Aborted,
		CriticalMisses:     rep.CriticalMisses,
		AssuranceSatisfied: rep.AssuranceSatisfied(),
	}
	if res.Cores > 1 {
		out.Cores = res.Cores
		out.Migrations = res.Migrations
	}
	for _, pt := range rep.PerTask {
		out.PerTask = append(out.PerTask, simulateTask{
			TaskID:    pt.Task.ID,
			Name:      pt.Task.Name,
			Released:  pt.Released,
			Completed: pt.Completed,
			Aborted:   pt.Aborted,
			MetRatio:  finite(pt.MetRatio()),
			Satisfied: pt.AssuranceSatisfied(),
		})
	}
	return out, nil
}

// finite maps NaN and ±Inf to 0 so the result always marshals; the
// sentinel values only arise in empty-run corners (no completions).
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

func energyPreset(spec JobSpec) energy.Preset {
	if spec.Energy == "" {
		return energy.E1
	}
	return energy.Preset(spec.Energy)
}

func faultPlan(spec JobSpec) (*faults.Plan, *JobError) {
	if spec.Faults == "" {
		return nil, nil
	}
	plan, err := faults.Parse(spec.Faults)
	if err != nil {
		return nil, invalidf("fault plan: %v", err)
	}
	return plan, nil
}

// multiDefaults resolves a job's core count and partition policy against
// the daemon's -cores/-partition defaults: a spec that says nothing
// inherits the flags, a spec that speaks wins.
func (s *Server) multiDefaults(spec JobSpec) (cores int, policy string) {
	cores, policy = spec.Cores, spec.Partition
	if cores == 0 {
		cores = s.cfg.DefaultCores
	}
	if cores <= 1 {
		return cores, policy
	}
	if policy == "" {
		policy = s.cfg.DefaultPartition
	}
	if policy == "" {
		policy = "ff"
	}
	return cores, policy
}

// sweepSpecOf projects a job spec onto the distributable sweep spec —
// the shared conversion both the coordinator and its workers derive
// their cell plans from, so their fingerprints agree by construction.
// The daemon's multiprocessor defaults are resolved here, before the
// spec is shipped, so coordinator and worker plans see identical values.
func (s *Server) sweepSpecOf(spec JobSpec) coordinator.SweepSpec {
	cores, policy := s.multiDefaults(spec)
	return coordinator.SweepSpec{
		Experiment: spec.Experiment,
		Energy:     spec.Energy,
		Loads:      spec.Loads,
		Seeds:      spec.Seeds,
		Horizon:    spec.Horizon,
		Bounds:     spec.Bounds,
		Faults:     spec.Faults,
		Cores:      cores,
		Partition:  policy,
	}
}

// sweepConfig materializes a sweep spec into an experiment configuration.
func (s *Server) sweepConfig(spec JobSpec, interrupt <-chan struct{}) (experiment.Config, *JobError) {
	cfg, err := s.sweepSpecOf(spec).Config()
	if err != nil {
		return cfg, invalidf("%v", err)
	}
	cfg.Workers = s.cfg.SimWorkers
	cfg.Interrupt = interrupt
	cfg.Telemetry = s.reg
	return cfg, nil
}

// checkpointPath is the per-job sweep checkpoint location; one file per
// job ID keeps concurrent sweeps isolated from each other. The ID is
// hashed: client-supplied strings are not trustworthy path components.
func (s *Server) checkpointPath(id string) string {
	sum := sha1.Sum([]byte(id))
	return filepath.Join(s.ckptDir, fmt.Sprintf("%x.json", sum))
}

// runSweep executes a sweep job. With a data directory configured, every
// completed cell is checkpointed under the job's ID, so a crash mid-sweep
// resumes bit-identically on restart; the checkpoint is deleted once the
// job's result is journaled.
func (s *Server) runSweep(spec JobSpec, interrupt <-chan struct{}) (any, error) {
	cfg, jerr := s.sweepConfig(spec, interrupt)
	if jerr != nil {
		return nil, jerr
	}
	var ckpt *experiment.CheckpointStore
	if s.ckptDir != "" {
		path := s.checkpointPath(spec.ID)
		store, err := experiment.OpenCheckpointFS(s.fs, path, true)
		if errors.Is(err, experiment.ErrCheckpointCorrupt) {
			// The job's previous checkpoint is damaged: recompute from
			// scratch rather than trusting it or dying.
			s.logf("euad: job %s: %v; recomputing from scratch", spec.ID, err)
			store, err = experiment.OpenCheckpointFS(s.fs, path, false)
		}
		if err != nil {
			return nil, fmt.Errorf("open sweep checkpoint: %w", err)
		}
		ckpt = store
		// Checkpointing is an optimization, not a correctness requirement:
		// a Save that hits a failing disk downgrades the sweep to
		// non-resumable instead of failing it.
		cfg.Store = &bestEffortStore{inner: store, logf: s.logf, job: spec.ID}
	}

	if s.coord != nil {
		// Distribute the sweep's cells across the cluster first. Remote
		// workers commit into the sweep's cell store, so the local run
		// below finds them "checkpointed" and reduces to the ordered
		// merge; any cells the cluster didn't finish (no workers, deaths,
		// abandoned failures) are computed locally. Either way the output
		// is byte-identical to a single-node run.
		if cfg.Store == nil {
			cfg.Store = experiment.NewMemStore()
		}
		if err := s.coord.Distribute(spec.ID, s.sweepSpecOf(spec), cfg.Store, interrupt); err != nil {
			s.logf("euad: job %s: distribute: %v; completing locally", spec.ID, err)
		}
	}

	res := SweepResult{}
	res.Experiment = spec.Experiment
	res.Config = experiment.Describe(cfg)
	var text bytes.Buffer
	var err error
	switch spec.Experiment {
	case "fig2":
		res.Rows, err = experiment.Figure2(cfg)
		if res.Rows != nil {
			if werr := experiment.WriteRows(&text, fmt.Sprintf("Figure 2 (%s)", cfg.Energy), res.Rows); werr != nil {
				return nil, werr
			}
		}
	case "ablation":
		res.Rows, err = experiment.Ablation(cfg)
		if res.Rows != nil {
			if werr := experiment.WriteRows(&text, "Ablation", res.Rows); werr != nil {
				return nil, werr
			}
		}
	case "fig3":
		res.Fig3Rows, err = experiment.Figure3(cfg, spec.Bounds)
		if res.Fig3Rows != nil {
			if werr := experiment.WriteFig3(&text, res.Fig3Rows); werr != nil {
				return nil, werr
			}
		}
	case "assurance":
		res.Assurance, err = experiment.Assurance(cfg)
		if res.Assurance != nil {
			if werr := experiment.WriteAssurance(&text, res.Assurance); werr != nil {
				return nil, werr
			}
		}
	default:
		return nil, invalidf("unknown sweep experiment %q", spec.Experiment)
	}
	if err != nil {
		return nil, err
	}
	res.Text = text.String()
	if ckpt != nil {
		// The sweep is complete; its cells will never be resumed again.
		s.fs.Remove(ckpt.Path())
	}
	return res, nil
}

// bestEffortStore wraps a sweep's cell store so checkpoint persistence
// failures degrade the sweep (it finishes, but cannot resume from the
// lost cells) instead of failing it. The first Save error disables
// further persistence: a full disk gets one log line per sweep, not one
// per cell. Lookup still serves cells already on disk.
type bestEffortStore struct {
	inner experiment.CellStore
	logf  func(format string, args ...any)
	job   string

	mu       sync.Mutex
	disabled bool
}

func (b *bestEffortStore) Lookup(exp, fingerprint string, index int) (json.RawMessage, bool) {
	return b.inner.Lookup(exp, fingerprint, index)
}

func (b *bestEffortStore) Save(exp, fingerprint string, index int, raw json.RawMessage) error {
	b.mu.Lock()
	if b.disabled {
		b.mu.Unlock()
		return nil
	}
	b.mu.Unlock()
	if err := b.inner.Save(exp, fingerprint, index, raw); err != nil {
		b.mu.Lock()
		already := b.disabled
		b.disabled = true
		b.mu.Unlock()
		if !already {
			b.logf("euad: job %s: checkpoint cell %d: %v; sweep continues without further checkpointing", b.job, index, err)
		}
	}
	return nil
}
