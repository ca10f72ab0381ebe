// Package task defines the application model of Section 2: independent
// tasks with UAM arrival specifications, TUF time constraints, stochastic
// cycle demands and per-task statistical timeliness requirements {ν, ρ},
// plus the job (task instance) abstraction the scheduler works on.
package task

import (
	"fmt"
	"math"

	"github.com/euastar/euastar/internal/profile"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/stats"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// Requirement is the statistical timeliness requirement {ν, ρ} of
// Section 2.2: the task should accrue at least ν of its maximum possible
// utility with probability at least ρ.
type Requirement struct {
	Nu  float64 // fraction of maximum utility, in (0, 1]
	Rho float64 // assurance probability, in [0, 1)
}

// Validate reports whether the requirement is well formed. ρ = 1 is
// rejected because the Chebyshev allocation would be unbounded.
func (r Requirement) Validate() error {
	if r.Nu <= 0 || r.Nu > 1 {
		return fmt.Errorf("task: nu %g outside (0, 1]", r.Nu)
	}
	if r.Rho < 0 || r.Rho >= 1 {
		return fmt.Errorf("task: rho %g outside [0, 1)", r.Rho)
	}
	return nil
}

// Demand is the stochastic cycle demand Y of a task, described — as the
// paper prescribes — by its first two moments rather than a worst case.
type Demand struct {
	Mean     float64 // E(Y) in cycles
	Variance float64 // Var(Y) in cycles²
}

// Validate reports whether the demand is well formed.
func (d Demand) Validate() error {
	if d.Mean <= 0 || math.IsNaN(d.Mean) || math.IsInf(d.Mean, 0) {
		return fmt.Errorf("task: demand mean %g must be positive and finite", d.Mean)
	}
	if d.Variance < 0 || math.IsNaN(d.Variance) || math.IsInf(d.Variance, 0) {
		return fmt.Errorf("task: demand variance %g must be non-negative and finite", d.Variance)
	}
	return nil
}

// Scale returns the demand with E scaled by k and Var by k² — exactly the
// load-scaling transformation of Section 5 ("E(Y_i)s are scaled by a
// constant k, and Var(Y_i)s are scaled by k²").
func (d Demand) Scale(k float64) Demand {
	if k <= 0 {
		panic(fmt.Sprintf("task: demand scale %g must be positive", k))
	}
	return Demand{Mean: k * d.Mean, Variance: k * k * d.Variance}
}

// DemandFloorFrac bounds sampled demands away from zero: a job cannot
// require fewer than this fraction of the mean demand. Exported because
// it is a hard property of the realized demand process that analyses may
// rely on (internal/admission's necessary-condition tests build their
// guaranteed per-job minimum from it).
const DemandFloorFrac = 0.01

// Sample draws one actual cycle demand: normally distributed (Section 5,
// "generate normally-distributed demands") and truncated at a small
// positive floor since a job cannot require non-positive work.
func (d Demand) Sample(src *rng.Source) float64 {
	return src.TruncNormal(d.Mean, math.Sqrt(d.Variance), DemandFloorFrac*d.Mean)
}

// Task is one application activity T_i.
type Task struct {
	ID      int
	Name    string
	Arrival uam.Spec // UAM specification ⟨a_i, P_i⟩
	TUF     tuf.TUF  // relative time/utility function; termination = P_i
	Demand  Demand   // stochastic cycle demand Y_i (the true process)
	Req     Requirement

	// Profiler, when non-nil, supplies online-estimated demand moments
	// that override Demand for allocation purposes (Section 2.3's online
	// profiling): the engine feeds it each completed job's actual cycles
	// and CycleAllocation derives c_i from the learned moments. Demand
	// itself remains the ground-truth process jobs are sampled from.
	Profiler *profile.Estimator

	// Sections declares the task's critical sections on single-unit,
	// mutually exclusive resources — the shared-resource model of the
	// companion work (Wu et al., EMSOFT'04) this paper's task model
	// specializes to the independent case. Empty means independent. Each
	// job of the task executes the same sections, expressed as fractions
	// of its (realized) cycle demand.
	Sections []Section
}

// Section is one critical section: the job holds Resource while its
// executed fraction lies in [Start, End).
type Section struct {
	Resource   int
	Start, End float64 // fractions of the job's cycles, 0 <= Start < End <= 1
}

// validateSections checks section fractions and per-resource disjointness.
func validateSections(secs []Section) error {
	for i, s := range secs {
		if s.Start < 0 || s.End > 1 || s.Start >= s.End {
			return fmt.Errorf("task: section %d has invalid span [%g, %g)", i, s.Start, s.End)
		}
		for j := 0; j < i; j++ {
			o := secs[j]
			if o.Resource == s.Resource && s.Start < o.End && o.Start < s.End {
				return fmt.Errorf("task: sections %d and %d overlap on resource %d", j, i, s.Resource)
			}
		}
	}
	return nil
}

// Validate checks the task's internal consistency, including the paper's
// structural assumption that the TUF's termination time X − I equals the
// sliding window P_i (Section 2.2).
func (t *Task) Validate() error {
	if t == nil {
		return fmt.Errorf("task: nil task")
	}
	if err := t.Arrival.Validate(); err != nil {
		return fmt.Errorf("task %q: %w", t.Name, err)
	}
	if t.TUF == nil {
		return fmt.Errorf("task %q: nil TUF", t.Name)
	}
	if x := t.TUF.Termination(); math.Abs(x-t.Arrival.P) > 1e-9*t.Arrival.P {
		return fmt.Errorf("task %q: TUF termination %g != window P %g", t.Name, x, t.Arrival.P)
	}
	if err := t.Demand.Validate(); err != nil {
		return fmt.Errorf("task %q: %w", t.Name, err)
	}
	if err := t.Req.Validate(); err != nil {
		return fmt.Errorf("task %q: %w", t.Name, err)
	}
	if d := t.CriticalTime(); d <= 0 {
		return fmt.Errorf("task %q: non-positive critical time %g (nu=%g too demanding)", t.Name, d, t.Req.Nu)
	}
	if err := validateSections(t.Sections); err != nil {
		return fmt.Errorf("task %q: %w", t.Name, err)
	}
	return nil
}

// CriticalTime returns the relative critical time D_i derived from
// ν_i = U_i(D_i)/U_i^max (Section 3.1).
func (t *Task) CriticalTime() float64 { return t.TUF.CriticalTime(t.Req.Nu) }

// EffectiveDemand returns the demand moments the scheduler plans with:
// the online profile once it is warmed up, the design-time Demand
// otherwise.
func (t *Task) EffectiveDemand() Demand {
	if t.Profiler != nil {
		// Before warm-up the estimator reports its prior, which may
		// deliberately differ from the true process (a misestimated
		// design-time guess).
		return Demand{Mean: t.Profiler.Mean(), Variance: t.Profiler.Variance()}
	}
	return t.Demand
}

// CycleAllocation returns c_i, the minimal per-job cycle budget such that
// Pr[Y_i < c_i] >= ρ_i by the one-sided Chebyshev bound (Section 3.1),
// computed from the effective (possibly profiled) demand moments.
func (t *Task) CycleAllocation() float64 {
	d := t.EffectiveDemand()
	return stats.MustCantelliAllocation(d.Mean, d.Variance, t.Req.Rho)
}

// WindowCycles returns C_i = a_i · c_i, the total allocated cycles of the
// a_i jobs that may arrive in one window (Theorem 1).
func (t *Task) WindowCycles() float64 {
	return float64(t.Arrival.A) * t.CycleAllocation()
}

// MinFrequency returns the Theorem 1 bound C_i/D_i: executing T_i at any
// frequency no lower than this meets all of its critical times in
// isolation.
func (t *Task) MinFrequency() float64 { return t.WindowCycles() / t.CriticalTime() }

func (t *Task) String() string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("T%d", t.ID)
}

// Set is an ordered collection of tasks forming one application.
type Set []*Task

// Validate checks every task and that IDs are unique. IDs that strictly
// increase cannot repeat, so the map of seen IDs is built only from the
// first task whose ID does not exceed its predecessor's.
func (s Set) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("task: empty task set")
	}
	var seen map[int]bool
	for i, t := range s {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen == nil {
			if i == 0 || t.ID > s[i-1].ID {
				continue
			}
			seen = make(map[int]bool, len(s))
			for _, p := range s[:i] {
				seen[p.ID] = true
			}
		}
		if seen[t.ID] {
			return fmt.Errorf("task: duplicate task ID %d", t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// Load returns the system load of Section 5:
//
//	load = (1/f_m) · Σ_i C_i / D_i
//
// i.e. the fraction of the maximum-frequency capacity the allocated
// windowed demand requires.
func (s Set) Load(fmax float64) float64 {
	if fmax <= 0 {
		panic(fmt.Sprintf("task: fmax %g must be positive", fmax))
	}
	sum := 0.0
	for _, t := range s {
		sum += t.MinFrequency()
	}
	return sum / fmax
}

// ScaleToLoad returns a copy of the set with every task's demand scaled by
// the constant k that makes Load(fmax) equal target (Section 5's workload
// synthesis). The tasks' other fields are shared, demands are replaced,
// and any online Profiler is dropped (its prior would describe the
// unscaled process).
func (s Set) ScaleToLoad(target, fmax float64) Set {
	if target <= 0 {
		panic(fmt.Sprintf("task: target load %g must be positive", target))
	}
	cur := s.Load(fmax)
	k := target / cur
	out := make(Set, len(s))
	for i, t := range s {
		ct := *t
		ct.Demand = t.Demand.Scale(k)
		ct.Profiler = nil
		out[i] = &ct
	}
	return out
}

// State is a job's lifecycle state.
type State int

// Job lifecycle states.
const (
	Pending   State = iota // released, not finished
	Completed              // finished all its cycles
	Aborted                // dropped by the scheduler or at its termination time
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Completed:
		return "completed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is one invocation J_{i,j} of a task, the basic scheduling entity.
// The engine creates jobs at arrival and mutates their execution state;
// schedulers must treat all fields except scheduler-private bookkeeping as
// read-only.
type Job struct {
	Task  *Task
	Index int // j: this is the task's j-th invocation (0-based)

	Arrival     float64 // initial time I
	Termination float64 // termination time X = I + P
	AbsCritical float64 // absolute critical time D^a = I + D_i

	// ActualCycles is the realized demand Y drawn at release. Schedulers
	// must not read it; they see only the allocation estimate.
	ActualCycles float64
	// Executed is the cycles completed so far.
	Executed float64

	State       State
	FinishedAt  float64 // completion or abortion time
	Utility     float64 // accrued utility (0 unless completed in time)
	AbortReason string  // why the job was aborted, for traces

	// Held lists the resources the job currently holds; BlockedBy points
	// at the job holding the resource this job most recently failed to
	// acquire. Both are engine-maintained; schedulers may read them (e.g.
	// to fold a blocking chain's utility into a decision) but never write.
	Held      map[int]bool
	BlockedBy *Job

	// SchedCache is the scheduler-private bookkeeping slot the Job
	// documentation reserves: the engine never reads or writes it, and a
	// fresh job carries the zero value. Schedulers remember the job's
	// task-table position here, and EUA*'s fast path memoizes the job's
	// UER across scheduling events and finds the job in its live list.
	SchedCache SchedCache
}

// SchedCache is per-job memoization state owned by the scheduler that
// decides the job; the zero value means "nothing cached". One engine run
// may hold several scheduler instances — a partitioned run holds one per
// core — but each job is decided by one instance only, which alone
// memoizes its UER. TaskPos and LivePos are hints that the instance
// verifies on every read, so one another instance overwrote costs time,
// never correctness.
type SchedCache struct {
	// UER is the cached Utility and Energy Ratio, valid only while Valid
	// is set and the job's Executed cycles still equal ExecStamp (any
	// execution progress changes the remaining allocation the UER is
	// derived from).
	UER       float64
	ExecStamp float64
	Valid     bool
	// TaskPos is the position of the job's task in the scheduler's
	// sched.TaskTable, a hint the table verifies on every read.
	TaskPos int32
	// LivePos is the job's index in the live list of the EUA* decision
	// that last saw it, a hint the decision writes before it reads any
	// and verifies on every read.
	LivePos int32
}

// Holds reports whether the job currently holds resource r.
func (j *Job) Holds(r int) bool { return j.Held[r] }

// NewJob releases the index-th invocation of t at time at, drawing its
// actual demand from src.
func NewJob(t *Task, index int, at float64, src *rng.Source) *Job {
	j := new(Job)
	j.Init(t, index, at, src)
	return j
}

// Init is NewJob in place: it overwrites every field of j with the
// released index-th invocation of t, so the engine can release the jobs
// of a run into one slab allocated up front.
func (j *Job) Init(t *Task, index int, at float64, src *rng.Source) {
	*j = Job{
		Task:         t,
		Index:        index,
		Arrival:      at,
		Termination:  at + t.Arrival.P,
		AbsCritical:  at + t.CriticalTime(),
		ActualCycles: t.Demand.Sample(src),
	}
}

// Remaining returns the actual cycles left (engine-side truth).
func (j *Job) Remaining() float64 { return j.ActualCycles - j.Executed }

// Done reports whether the actual demand has been fully executed.
func (j *Job) Done() bool { return j.Remaining() <= 1e-9*math.Max(j.ActualCycles, 1) }

// estimateFloorFrac keeps the scheduler's remaining-cycle estimate
// positive for jobs that have overrun their Chebyshev allocation (which
// happens with probability <= 1−ρ); without a floor their UER would be
// infinite and feasibility vacuous.
const estimateFloorFrac = 1e-3

// EstimatedRemaining returns the scheduler's view of the job's remaining
// cycles: the allocated budget c_i minus executed cycles (the paper's
// c^r). The actual demand is hidden from schedulers.
func (j *Job) EstimatedRemaining() float64 {
	return j.EstimatedRemainingWith(j.Task.CycleAllocation())
}

// EstimatedRemainingWith is EstimatedRemaining with the task's cycle
// allocation c_i supplied by the caller. Schedulers that cache the
// allocation (it is a pure function of the task's effective demand moments
// and ρ_i, but costs a square root to derive) use this entry point on
// their hot path; passing the cached value yields bit-identical results
// to EstimatedRemaining because both evaluate the same expression on the
// same floats.
func (j *Job) EstimatedRemainingWith(c float64) float64 {
	if rem := c - j.Executed; rem > estimateFloorFrac*c {
		return rem
	}
	return estimateFloorFrac * c
}

// UtilityAt returns the utility this job would accrue by completing at
// absolute time at (0 beyond its termination time). Floating-point
// rounding at the exact termination boundary is clamped: a resolution at
// X = I + P evaluates the TUF at its last defined point even when
// (at − Arrival) rounds a few ULPs past it.
func (j *Job) UtilityAt(at float64) float64 {
	rel := at - j.Arrival
	if x := j.Task.TUF.Termination(); rel > x && rel <= x+1e-9*x+1e-12*math.Abs(at) {
		rel = x
	}
	return j.Task.TUF.Utility(rel)
}

// Lateness returns the job's lateness relative to its absolute critical
// time: FinishedAt − D^a (negative when early). It is meaningful only for
// completed jobs.
func (j *Job) Lateness() float64 { return j.FinishedAt - j.AbsCritical }

// MetRequirement reports whether the completed job accrued at least
// ν·U_max. Aborted and pending jobs never meet it.
func (j *Job) MetRequirement() bool {
	return j.State == Completed && j.Utility >= j.Task.Req.Nu*j.Task.TUF.MaxUtility()-1e-12
}

func (j *Job) String() string {
	return fmt.Sprintf("%s#%d@%g", j.Task, j.Index, j.Arrival)
}
