// Package sched defines the scheduler abstraction shared by EUA* and all
// baselines, together with the paper's Algorithm 1 schedule construction
// (the Sequencer, which EUA*, DASA and GUS share) and the literal
// predicates it replaces: EDF ordering, feasibility at f_m and insertion.
package sched

import (
	"fmt"
	"sort"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/task"
)

// Context carries the platform and application parameters a scheduler may
// inspect. It is fixed for the lifetime of a simulation run.
type Context struct {
	Tasks  task.Set
	Freqs  cpu.FrequencyTable
	Energy energy.Model

	// CoreFreqs, on a multiprocessor run (engine Config.Cores > 1), holds
	// each core's frequency table — heterogeneous ladders allowed. Nil
	// (every uniprocessor run) means all cores share Freqs, which then
	// doubles as the fastest reference ladder.
	CoreFreqs []cpu.FrequencyTable
}

// Validate checks the context.
func (c *Context) Validate() error {
	if c == nil {
		return fmt.Errorf("sched: nil context")
	}
	if err := c.Tasks.Validate(); err != nil {
		return err
	}
	if err := c.Freqs.Validate(); err != nil {
		return err
	}
	return c.Energy.Validate()
}

// Decision is a scheduler's answer at a scheduling event: which job to
// execute (nil to idle), at which frequency, and which jobs to abort
// because they can no longer contribute utility. Iters reports the
// feasibility trials the decision's greedy insertion made (the
// candidates Sequencer.Head tried; 0 for schemes without one), which the
// engine adds to MetricFeasIters.
type Decision struct {
	Run   *task.Job
	Freq  float64
	Abort []*task.Job
	Iters int
}

// Scheduler is a sequencing algorithm invoked at every scheduling event
// (job arrival, job completion, termination-time expiry).
//
// Implementations see only the scheduler-visible job state — allocations
// and executed cycles — never the realized demand.
type Scheduler interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Init performs offline computation (the paper's offlineComputing())
	// before the simulation starts.
	Init(ctx *Context) error
	// Decide selects the job and frequency at time now. ready holds all
	// released, unfinished, unaborted jobs. It is the engine's own list:
	// Decide must not modify it (not even reorder it) or retain it, and
	// no slice of the returned Decision may alias it.
	Decide(now float64, ready []*task.Job) Decision
}

// Metric names of the per-decision series the engine reports for every
// scheduler, one series per scheme label (the scheduler's Name()): the
// latency of each decision, the ready-queue length it saw, the
// feasibility trials it reported in Decision.Iters, and the decisions
// whose frequency differs from the same core's previous non-idle one.
const (
	MetricDecideSeconds = "euastar_sched_decide_seconds"
	MetricReadyJobs     = "euastar_sched_ready_jobs"
	MetricFeasIters     = "euastar_sched_feasibility_iterations_total"
	MetricFreqSwitches  = "euastar_sched_freq_switches_total"
)

// UER returns job j's Utility and Energy Ratio at time now when executed
// at frequency f: U_J(now + c/f) / (E(f) · c), the utility accrued per
// unit of energy spent finishing the job's remaining allocation c
// (Algorithm 1 line 11 evaluates it at f_m). It is the common currency of
// EUA*'s schedule construction and of the engine's overload safe mode,
// which sheds the lowest-UER pending work first.
func UER(now float64, j *task.Job, f float64, m energy.Model) float64 {
	c := j.EstimatedRemaining()
	return j.UtilityAt(now+c/f) / (c * m.PerCycle(f))
}

// AbortInfeasible is the abort reason of a job a scheduler aborts because
// it could not finish by its termination time even alone at f_m.
const AbortInfeasible = "infeasible at f_m"

// ByCriticalTime sorts jobs by absolute critical time (EDF order on
// critical times), breaking ties by arrival then task ID then index so
// that the order is total and deterministic: the literal sort the
// Sequencer's kept order replaces.
func ByCriticalTime(jobs []*task.Job) {
	sort.SliceStable(jobs, func(i, j int) bool { return Less(jobs[i], jobs[j]) })
}

// Less reports whether a precedes b in the deterministic critical-time
// total order (AbsCritical, then Arrival, then Task.ID, then Index) that
// ByCriticalTime and InsertByCritical are built on, and the order the
// Sequencer keeps. It is exported so that every scheduler breaks
// critical-time ties the same way.
func Less(a, b *task.Job) bool {
	if a.AbsCritical != b.AbsCritical {
		return a.AbsCritical < b.AbsCritical
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	if a.Task.ID != b.Task.ID {
		return a.Task.ID < b.Task.ID
	}
	return a.Index < b.Index
}

// Feasible implements the paper's feasible(σ) predicate: with the jobs
// executed in the given order starting at time now, each job's predicted
// completion time at the highest frequency fmax must not exceed its
// termination time: the literal predicate Sequencer.Head replays.
func Feasible(order []*task.Job, now, fmax float64) bool {
	t := now
	for _, j := range order {
		t += j.EstimatedRemaining() / fmax
		if t > j.Termination+1e-12*j.Termination {
			return false
		}
	}
	return true
}

// JobFeasible reports whether a single job could still finish by its
// termination time if executed immediately and alone at fmax — the
// per-job test of Algorithm 1 line 10.
func JobFeasible(j *task.Job, now, fmax float64) bool {
	return JobFeasibleWith(j, j.EstimatedRemaining(), now, fmax)
}

// JobFeasibleWith is JobFeasible with the job's remaining-cycle estimate
// rem supplied by the caller (from a TaskTable, say).
func JobFeasibleWith(j *task.Job, rem, now, fmax float64) bool {
	return now+rem/fmax <= j.Termination+1e-12*j.Termination
}

// InsertByCritical inserts j into the critical-time-ordered schedule order
// "at the position indicated by" its critical time, after any entries with
// the same key (Algorithm 1's insert(T, σ, I)), returning the extended
// slice. order must already be critical-time ordered. Sequencer.Head
// inserts by critical-time rank instead.
func InsertByCritical(order []*task.Job, j *task.Job) []*task.Job {
	i := sort.Search(len(order), func(i int) bool { return Less(j, order[i]) })
	order = append(order, nil)
	copy(order[i+1:], order[i:])
	order[i] = j
	return order
}
