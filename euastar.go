// Package euastar is the public API of the EUA* library — a from-scratch
// Go reproduction of "Energy-Efficient, Utility Accrual Real-Time
// Scheduling Under the Unimodal Arbitrary Arrival Model" (Wu, Ravindran,
// Jensen — DATE 2005).
//
// The library provides:
//
//   - the task model of the paper: independent preemptive tasks with
//     Unimodal Arbitrary Arrival Model (UAM) specifications ⟨a, P⟩,
//     time/utility function (TUF) time constraints, stochastic cycle
//     demands, and per-task statistical requirements {ν, ρ};
//   - the EUA* scheduler (the paper's contribution) plus the baselines it
//     is evaluated against: EDF at the highest frequency, Pillai–Shin
//     cycle-conserving EDF and look-ahead EDF (with and without
//     abortion), and DASA;
//   - a discrete-event simulator with DVS (frequency scaling), Martin's
//     system-level energy model, abortion semantics and exact cycle
//     accounting — on one processor or, via SimConfig.Cores with a
//     NewPartitioned/NewGlobalUER scheduler, on m independent DVS cores;
//   - metrics and the experiment harness that regenerate every table and
//     figure of the paper's evaluation.
//
// # Quick start
//
//	tasks := euastar.TaskSet{{
//		ID:      1,
//		Arrival: euastar.UAM(2, 50*euastar.Millisecond),
//		TUF:     euastar.StepTUF(10, 50*euastar.Millisecond),
//		Demand:  euastar.Demand{Mean: 5e6, Variance: 5e6},
//		Req:     euastar.Requirement{Nu: 1, Rho: 0.96},
//	}}
//	res, err := euastar.Simulate(euastar.SimConfig{
//		Tasks:              tasks,
//		Scheduler:          euastar.NewEUA(),
//		Horizon:            2, // seconds
//		AbortAtTermination: true,
//	})
//	report := euastar.Analyze(res)
//
// All simulation quantities use SI base units: seconds for time, hertz for
// frequency, processor cycles for work.
package euastar

import (
	"fmt"

	"github.com/euastar/euastar/internal/admission"
	"github.com/euastar/euastar/internal/analysis"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/profile"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// Millisecond expresses milliseconds in the library's second-based time
// unit, for readable task definitions.
const Millisecond = 1e-3

// Core model types, re-exported from the internal packages so that typical
// programs import only euastar.
type (
	// Task is one application activity T_i (UAM arrivals, TUF constraint,
	// stochastic demand, statistical requirement).
	Task = task.Task
	// TaskSet is an ordered collection of tasks.
	TaskSet = task.Set
	// Job is one task invocation, the basic scheduling entity.
	Job = task.Job
	// Demand is a stochastic cycle demand described by mean and variance.
	Demand = task.Demand
	// Requirement is the statistical timeliness requirement {ν, ρ}.
	Requirement = task.Requirement
	// Section is a critical section on a single-unit resource, expressed
	// as a fraction span of the job's cycles. Contended sections block;
	// the simulator executes the blocking chain's head (inheritance) and
	// resolves deadlocks by aborting the selected job.
	Section = task.Section
	// TUF is a non-increasing unimodal time/utility function.
	TUF = tuf.TUF
	// UAMSpec is a Unimodal Arbitrary Arrival Model bound ⟨a, P⟩.
	UAMSpec = uam.Spec
	// ArrivalGenerator produces UAM-compliant arrival traces.
	ArrivalGenerator = uam.Generator
	// FrequencyTable is the DVS processor's discrete frequency ladder.
	FrequencyTable = cpu.FrequencyTable
	// EnergyModel is Martin's system-level energy model E(f).
	EnergyModel = energy.Model
	// Scheduler is a sequencing algorithm driven by the simulator.
	Scheduler = sched.Scheduler
	// SimConfig parameterizes one simulation run.
	SimConfig = engine.Config
	// Result is a finished run: resolved jobs plus energy accounting.
	Result = engine.Result
	// Span is one contiguous stretch of recorded execution.
	Span = engine.Span
	// Report is the metrics analysis of a Result.
	Report = metrics.Report
	// TaskStats is the per-task portion of a Report.
	TaskStats = metrics.TaskStats
	// EUAOption configures the EUA* scheduler (ablation switches).
	EUAOption = eua.Option
)

// UAM builds the arrival specification ⟨a, P⟩: at most a arrivals in any
// sliding window of P seconds.
func UAM(a int, p float64) UAMSpec { return UAMSpec{A: a, P: p} }

// Periodic builds the classical periodic arrival model, the UAM special
// case ⟨1, P⟩.
func Periodic(p float64) UAMSpec { return UAMSpec{A: 1, P: p} }

// StepTUF returns the classical hard-deadline constraint as a TUF:
// utility height up to the deadline, zero after (Figure 1(d)).
func StepTUF(height, deadline float64) TUF { return tuf.NewStep(height, deadline) }

// LinearTUF returns a linearly decaying TUF from u0 at completion time 0
// to uEnd at the horizon.
func LinearTUF(u0, uEnd, horizon float64) TUF { return tuf.NewLinear(u0, uEnd, horizon) }

// QuadraticTUF returns a TUF decaying as u0·(1 − (t/horizon)²).
func QuadraticTUF(u0, horizon float64) TUF { return tuf.NewQuadratic(u0, horizon) }

// ExponentialTUF returns a TUF decaying as u0·exp(−t/tau) on [0, horizon].
func ExponentialTUF(u0, tau, horizon float64) TUF { return tuf.NewExponential(u0, tau, horizon) }

// PiecewiseTUF returns a piecewise-linear TUF through (time, utility)
// knots. Knots must start at time 0, strictly increase in time and be
// non-increasing in utility.
func PiecewiseTUF(points ...[2]float64) (TUF, error) {
	pts := make([]tuf.Point, len(points))
	for i, p := range points {
		pts[i] = tuf.Point{T: p[0], U: p[1]}
	}
	return tuf.NewPiecewiseLinear(pts)
}

// PowerNowK6 returns the paper's evaluation platform: the seven PowerNow!
// frequency steps of the mobile AMD K6-2+ ({360 … 1000} MHz).
func PowerNowK6() FrequencyTable { return cpu.PowerNowK6() }

// Energy presets of the paper's Table 2, instantiated for a processor with
// maximum frequency fmax: "E1" (CPU-only cubic), "E2" (plus a
// frequency-proportional subsystem) and "E3" (plus a constant-power
// subsystem, which creates an interior energy-optimal frequency).
func EnergyPreset(name string, fmax float64) (EnergyModel, error) {
	return energy.NewPreset(energy.Preset(name), fmax)
}

// NewEUA returns the paper's EUA* scheduler. Options disable individual
// mechanisms for ablation studies; see the eua package constants
// re-exported below.
func NewEUA(opts ...EUAOption) Scheduler { return eua.New(opts...) }

// EUA* ablation options.
var (
	// WithoutDVS pins EUA* to the highest frequency (Figure 3's
	// normalization baseline).
	WithoutDVS = eua.WithoutDVS
	// WithoutUERInsertion replaces UER-greedy construction with EDF order.
	WithoutUERInsertion = eua.WithoutUERInsertion
	// WithoutFoClamp drops the UER-optimal frequency lower bound.
	WithoutFoClamp = eua.WithoutFoClamp
	// WithoutWindowedDemand uses per-job instead of per-window demand.
	WithoutWindowedDemand = eua.WithoutWindowedDemand
	// WithoutPhantomReservation reverts to the literal Algorithm 2
	// (aggressive deferral; see DESIGN.md).
	WithoutPhantomReservation = eua.WithoutPhantomReservation
	// WithStrictBreak stops greedy insertion at the first infeasible job.
	WithStrictBreak = eua.WithStrictBreak
	// WithBudgetAwareness(lookahead) rations a finite energy budget
	// (SimConfig.EnergyBudget) toward the highest utility-per-energy work
	// once the projected battery lifetime falls below the given mission
	// lookahead in seconds (0 = a few task windows).
	WithBudgetAwareness = eua.WithBudgetAwareness
)

// NewEDF returns EDF on critical times at the fixed highest frequency —
// the paper's normalization baseline. abortInfeasible selects whether
// doomed jobs are dropped (true) or left to run (false).
func NewEDF(abortInfeasible bool) Scheduler { return baseline.NewEDF(abortInfeasible) }

// NewCCEDF returns Pillai–Shin cycle-conserving EDF.
func NewCCEDF(abortInfeasible bool) Scheduler { return baseline.NewCCEDF(abortInfeasible) }

// NewLAEDF returns Pillai–Shin look-ahead EDF; with abortInfeasible =
// false this is the paper's "-NA" domino-effect baseline.
func NewLAEDF(abortInfeasible bool) Scheduler { return baseline.NewLAEDF(abortInfeasible) }

// NewDASA returns Locke's best-effort utility-accrual scheduler (no DVS).
func NewDASA() Scheduler { return baseline.NewDASA() }

// NewStaticEDF returns statically-scaled EDF (the first Pillai–Shin RT-DVS
// algorithm): plain EDF at the single lowest frequency covering the task
// set's allocated utilization, chosen once at Init.
func NewStaticEDF(abortInfeasible bool) Scheduler { return baseline.NewStaticEDF(abortInfeasible) }

// NewGUS returns GUS (Li & Ravindran), the dependency-aware
// utility-accrual baseline: jobs are ranked by the potential utility
// density of their whole blocking chain; no DVS.
func NewGUS() Scheduler { return baseline.NewGUS() }

// NewPartitioned returns a partitioned multiprocessor scheduler for
// SimConfig.Cores DVS cores: tasks are packed onto cores at Init time
// (policy "ff" first-fit or "wf" worst-fit, decreasing minimum-frequency
// order, the analytical admission bound as the capacity test), and each
// core runs its own instance built by factory — so partitioned EUA* is
// NewPartitioned(m, "ff", func() euastar.Scheduler { return euastar.NewEUA() }).
// Jobs never migrate. cores must be >= 1 and match SimConfig.Cores.
func NewPartitioned(cores int, policy string, factory func() Scheduler) (Scheduler, error) {
	if cores < 1 {
		return nil, fmt.Errorf("euastar: partitioned scheduler needs cores >= 1, got %d", cores)
	}
	p, err := partition.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	return partition.New(cores, p, factory), nil
}

// NewGlobalUER returns the global multiprocessor dispatcher for
// SimConfig.Cores DVS cores: one shared ready queue ranked by utility
// and energy rate, the top m jobs dispatched each decision with core
// stickiness; Result.Migrations counts the cross-core moves.
func NewGlobalUER(cores int) (Scheduler, error) {
	if cores < 1 {
		return nil, fmt.Errorf("euastar: global scheduler needs cores >= 1, got %d", cores)
	}
	return partition.NewGlobal(cores), nil
}

// NewProfiler returns an online demand-moment estimator to assign to
// Task.Profiler: it reports the given design-time prior until minSamples
// completed jobs have been observed, then the empirical moments. The
// simulator feeds it automatically at every completion of the task's jobs.
func NewProfiler(priorMean, priorVariance float64, minSamples int) (*Profiler, error) {
	return profile.New(priorMean, priorVariance, minSamples)
}

// Profiler is the online demand estimator type (see NewProfiler).
type Profiler = profile.Estimator

// Simulate runs one simulation. Unset platform fields default to the
// paper's: the PowerNow! K6-2+ frequency table and energy model E1.
// AbortAtTermination stays as given: set it for the paper's
// termination-time exception, which every scheme but the -NA ones raises.
func Simulate(cfg SimConfig) (*Result, error) {
	if cfg.Freqs == nil {
		cfg.Freqs = PowerNowK6()
	}
	if cfg.Energy == (EnergyModel{}) {
		m, err := EnergyPreset("E1", cfg.Freqs.Max())
		if err != nil {
			return nil, err
		}
		cfg.Energy = m
	}
	return engine.Run(cfg)
}

// Analyze computes the metrics report of a finished run: accrued utility,
// energy, per-task {ν, ρ} verification, lateness and miss counts.
func Analyze(res *Result) *Report { return metrics.Analyze(res) }

// Compare runs every scheduler on the identical realized workload (same
// arrivals, same demands) and returns the reports in scheduler order —
// the normalization workflow of the paper's Section 5.
func Compare(cfg SimConfig, schedulers ...Scheduler) ([]*Report, error) {
	if len(schedulers) == 0 {
		return nil, fmt.Errorf("euastar: no schedulers to compare")
	}
	reports := make([]*Report, len(schedulers))
	for i, s := range schedulers {
		c := cfg
		c.Scheduler = s
		res, err := Simulate(c)
		if err != nil {
			return nil, fmt.Errorf("euastar: %s: %w", s.Name(), err)
		}
		reports[i] = Analyze(res)
	}
	return reports, nil
}

// Normalize expresses a report's utility and energy relative to a baseline
// report obtained on the same workload.
func Normalize(r, baseline *Report) metrics.Normalized { return metrics.Normalize(r, baseline) }

// Schedulable reports whether the task set meets every critical time under
// preemptive EDF at constant frequency f against the UAM adversary, per
// the Baruah–Rosier–Howell processor-demand criterion the paper's
// Theorem 6 invokes. When it does not, witness is an interval length whose
// demand exceeds capacity.
func Schedulable(tasks TaskSet, f float64) (ok bool, witness float64) {
	return analysis.Schedulable(tasks, f)
}

// MinimumFrequency returns the lowest frequency of the table at which the
// set is schedulable (exact demand-bound analysis, never above the
// Theorem 1 provisioning Σ C_i/D_i), and whether any table frequency
// suffices.
func MinimumFrequency(tasks TaskSet, table FrequencyTable) (float64, bool) {
	return analysis.MinimumFrequency(tasks, table)
}

// TheoremOneFrequency returns the paper's Theorem 1 provisioning
// Σ_i C_i/D_i — the conservative constant frequency meeting all critical
// times.
func TheoremOneFrequency(tasks TaskSet) float64 {
	return analysis.TheoremOneFrequency(tasks)
}

// AdmissionResult is the verdict of the O(n) analytical admission triage
// (internal/admission): Accept, Reject, or MustSimulate, with the
// quantitative facts it was derived from.
type AdmissionResult = admission.Result

// Admission verdict values.
const (
	AdmissionAccept       = admission.Accept
	AdmissionReject       = admission.Reject
	AdmissionMustSimulate = admission.MustSimulate
)

// Admit triages the task set for the named scheduling scheme (experiment
// names, e.g. "EUA*", "EDF-fm", "GUS") on the given frequency ladder:
// Accept when a sufficient schedulability test passes with the
// Cantelli-allocated demand, Reject when a necessary condition is
// violated, MustSimulate in between. This is the same test euad's
// fast-reject path and euasim -admit run.
func Admit(tasks TaskSet, table FrequencyTable, scheme string) (AdmissionResult, error) {
	return admission.Analyze(tasks, table, scheme)
}
