// Package oracle brackets simulated schedules between provable optima:
//
//   - YDS (yds.go) computes the Yao–Demers–Shenker / Li–Yao–Yuan optimal
//     continuous voltage schedule for the released jobs and prices it
//     under the internal/energy power model — a lower bound no feasible
//     execution of the same work can beat, so
//     energy_gap = simulated / lower >= 1 measures how far a scheduler's
//     DVS policy sits from the offline energy optimum.
//   - The branch-and-bound solver (bnb.go) computes the exact clairvoyant
//     utility-accrual optimum on small instances — an upper bound no
//     online scheduler can beat, so utility_gap = simulated / upper <= 1
//     measures how much utility the scheduler leaves on the table.
//
// Together the two oracles turn "EUA* accrues X utility at Y joules"
// into "EUA* is within Z% of optimal", a regression-gateable signal
// (BENCH_gaps.json, TestGoldenGaps). DESIGN.md §13 carries the full
// soundness argument; the property suites in this package enforce
// lower <= simulated <= upper on generated workloads and print the
// violating seed, like the admission soundness suite.
package oracle

import (
	"fmt"
	"math"

	"github.com/euastar/euastar/internal/task"
)

// Job is one unit of mandatory work for the YDS oracle: Cycles processor
// cycles that must execute inside the window [Release, Deadline].
type Job struct {
	Release  float64 // seconds
	Deadline float64 // seconds, > Release when Cycles > 0
	Cycles   float64 // processor cycles, >= 0

	// Task and Index identify the originating job in diagnostics; the
	// oracle itself never reads them.
	Task, Index int
}

// Instance is a YDS problem: a bag of jobs with work windows.
type Instance struct {
	Jobs []Job
}

// Validate rejects instances the peeling algorithm cannot price:
// non-finite fields, negative work, or a positive-work job whose window
// is empty.
func (in Instance) Validate() error {
	for i, j := range in.Jobs {
		if math.IsNaN(j.Release) || math.IsInf(j.Release, 0) ||
			math.IsNaN(j.Deadline) || math.IsInf(j.Deadline, 0) {
			return fmt.Errorf("oracle: job %d has non-finite window [%g, %g]", i, j.Release, j.Deadline)
		}
		if math.IsNaN(j.Cycles) || math.IsInf(j.Cycles, 0) || j.Cycles < 0 {
			return fmt.Errorf("oracle: job %d has invalid cycle count %g", i, j.Cycles)
		}
		if j.Cycles > 0 && j.Deadline <= j.Release {
			return fmt.Errorf("oracle: job %d has %g cycles in empty window [%g, %g]",
				i, j.Cycles, j.Release, j.Deadline)
		}
	}
	return nil
}

// TotalCycles is the summed work of the instance.
func (in Instance) TotalCycles() float64 {
	var w float64
	for _, j := range in.Jobs {
		w += j.Cycles
	}
	return w
}

// ExecutedInstance builds the YDS instance realized by one simulation:
// each engine job contributes the cycles it actually executed, confined
// to the window in which that execution provably happened — [Arrival,
// FinishedAt] for finished jobs, [Arrival, end] (the run's end time) for
// jobs still pending at the horizon. The simulated schedule is by
// construction feasible for this instance, so the YDS energy of the
// instance lower-bounds the simulated energy. Using FinishedAt rather
// than Termination keeps the bound sound for no-abort schemes
// (laEDF-NA), whose jobs legally execute past their termination time.
func ExecutedInstance(jobs []*task.Job, end float64) Instance {
	out := Instance{Jobs: make([]Job, 0, len(jobs))}
	for _, j := range jobs {
		if j.Executed <= 0 {
			continue
		}
		deadline := j.FinishedAt
		if j.State == task.Pending {
			deadline = end
		}
		if deadline <= j.Arrival {
			// Degenerate bookkeeping (executed work in a zero-width
			// window); dropping the job only loosens the lower bound.
			continue
		}
		out.Jobs = append(out.Jobs, Job{
			Release:  j.Arrival,
			Deadline: deadline,
			Cycles:   j.Executed,
			Task:     j.Task.ID,
			Index:    j.Index,
		})
	}
	return out
}

// ReleasedInstance builds the clairvoyant planning instance: every
// released job's full realized demand inside its [Arrival, Termination]
// window. This is the instance an offline optimum that completes all
// work would face. Its caller is the YDS differential test
// (TestYDSMatchesReference), which peels these wide-window, few-round
// instances alongside the executed ones.
func ReleasedInstance(jobs []*task.Job) Instance {
	out := Instance{Jobs: make([]Job, 0, len(jobs))}
	for _, j := range jobs {
		if j.ActualCycles <= 0 || j.Termination <= j.Arrival {
			continue
		}
		out.Jobs = append(out.Jobs, Job{
			Release:  j.Arrival,
			Deadline: j.Termination,
			Cycles:   j.ActualCycles,
			Task:     j.Task.ID,
			Index:    j.Index,
		})
	}
	return out
}
