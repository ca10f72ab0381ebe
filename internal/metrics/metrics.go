// Package metrics turns raw simulation results into the quantities the
// paper reports: accrued utility (absolute and normalized), system energy,
// per-task statistical-assurance verification against {ν, ρ}, critical-
// time miss counts and maximum lateness.
package metrics

import (
	"fmt"
	"math"
	"slices"

	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/stats"
	"github.com/euastar/euastar/internal/task"
)

// TaskStats aggregates one task's jobs over a run.
type TaskStats struct {
	Task      *task.Task
	Released  int
	Completed int
	Aborted   int
	// Met counts jobs that accrued at least ν·U_max (the per-job event
	// whose probability the requirement {ν, ρ} lower-bounds).
	Met int
	// AccruedUtility is the summed utility of the task's jobs.
	AccruedUtility float64
	// MaxPossibleUtility is Released · U_max.
	MaxPossibleUtility float64
	// MaxLateness is the maximum completion lateness relative to the
	// absolute critical time over completed jobs (-Inf when none
	// completed).
	MaxLateness float64

	// sojourns collects completed jobs' sojourn times for Sojourn().
	sojourns []float64
}

// Sojourn summarizes the task's completed-job sojourn times (completion −
// arrival) in seconds.
func (ts *TaskStats) Sojourn() stats.Summary { return stats.Summarize(ts.sojourns) }

// MetRatio returns the fraction of released jobs that met the ν bound —
// the empirical estimate of Pr[utility >= ν·U_max].
func (ts *TaskStats) MetRatio() float64 {
	if ts.Released == 0 {
		return 0
	}
	return float64(ts.Met) / float64(ts.Released)
}

// AssuranceSatisfied reports whether the empirical met-ratio reaches the
// task's required probability ρ.
func (ts *TaskStats) AssuranceSatisfied() bool {
	return ts.MetRatio() >= ts.Task.Req.Rho
}

// Report is the full analysis of one run.
type Report struct {
	Scheduler string

	AccruedUtility     float64
	MaxPossibleUtility float64

	TotalEnergy float64
	Cycles      float64
	BusyTime    float64
	EndTime     float64
	Switches    int

	Released  int
	Completed int
	Aborted   int
	// CriticalMisses counts jobs that failed their critical time: aborted
	// jobs plus completions later than D^a.
	CriticalMisses int
	// MaxLateness is the maximum lateness over completed jobs (-Inf when
	// none completed).
	MaxLateness float64

	PerTask []*TaskStats // ordered by task ID
}

// Analyze computes a Report from a finished run. Its allocations do not
// grow with the number of jobs: the per-task stats share one slice, and
// every task's sojourns are cut from one backing array sized by a first
// pass that counts each task's completions.
func Analyze(res *engine.Result) *Report {
	r := &Report{
		Scheduler:   res.SchedulerName,
		TotalEnergy: res.TotalEnergy,
		Cycles:      res.Cycles,
		BusyTime:    res.BusyTime,
		EndTime:     res.EndTime,
		Switches:    res.Switches,
		MaxLateness: math.Inf(-1),
	}
	// pos maps a task ID to its completion count, then to its position
	// in ID order.
	pos := make(map[int]int)
	for _, j := range res.Jobs {
		n := 0
		if j.State == task.Completed {
			n = 1
		}
		pos[j.Task.ID] += n
	}
	ids := make([]int, 0, len(pos))
	completions := 0
	for id, n := range pos {
		ids = append(ids, id)
		completions += n
	}
	slices.Sort(ids)
	stats := make([]TaskStats, len(ids))
	sojourns := make([]float64, completions)
	for i, id := range ids {
		n := pos[id]
		stats[i] = TaskStats{MaxLateness: math.Inf(-1), sojourns: sojourns[:0:n]}
		sojourns = sojourns[n:]
		pos[id] = i
	}
	for _, j := range res.Jobs {
		ts := &stats[pos[j.Task.ID]]
		if ts.Task == nil {
			ts.Task = j.Task
		}
		ts.Released++
		r.Released++
		umax := j.Task.TUF.MaxUtility()
		ts.MaxPossibleUtility += umax
		r.MaxPossibleUtility += umax
		switch j.State {
		case task.Completed:
			ts.Completed++
			r.Completed++
			ts.AccruedUtility += j.Utility
			r.AccruedUtility += j.Utility
			ts.sojourns = append(ts.sojourns, j.FinishedAt-j.Arrival)
			if l := j.Lateness(); l > ts.MaxLateness {
				ts.MaxLateness = l
			}
			if j.Lateness() > r.MaxLateness {
				r.MaxLateness = j.Lateness()
			}
			if j.Lateness() > 1e-9 {
				r.CriticalMisses++
			}
		case task.Aborted:
			ts.Aborted++
			r.Aborted++
			r.CriticalMisses++
			// Under progress-based accrual (engine.Config.ProgressUtility)
			// aborted jobs carry partial utility; classically it is zero.
			ts.AccruedUtility += j.Utility
			r.AccruedUtility += j.Utility
		default:
			panic(fmt.Sprintf("metrics: unresolved job %v in result", j))
		}
		if j.MetRequirement() {
			ts.Met++
		}
	}
	if len(stats) > 0 {
		r.PerTask = make([]*TaskStats, len(stats))
		for i := range stats {
			r.PerTask[i] = &stats[i]
		}
	}
	return r
}

// UtilityRatio returns accrued divided by maximum possible utility (0 when
// nothing was released).
func (r *Report) UtilityRatio() float64 {
	if r.MaxPossibleUtility == 0 {
		return 0
	}
	return r.AccruedUtility / r.MaxPossibleUtility
}

// AssuranceSatisfied reports whether every task's empirical met-ratio
// reaches its ρ (Theorem 5's property, checked empirically).
func (r *Report) AssuranceSatisfied() bool {
	for _, ts := range r.PerTask {
		if !ts.AssuranceSatisfied() {
			return false
		}
	}
	return true
}

// Normalized holds a run's headline metrics relative to a baseline run on
// the same workload — the presentation used throughout Section 5, where
// everything is normalized to EDF at the highest frequency.
type Normalized struct {
	Scheme   string
	Baseline string
	Utility  float64 // accrued utility / baseline accrued utility
	Energy   float64 // total energy / baseline total energy
}

// Normalize relates a report to a baseline report.
func Normalize(r, base *Report) Normalized {
	n := Normalized{Scheme: r.Scheduler, Baseline: base.Scheduler}
	if base.AccruedUtility > 0 {
		n.Utility = r.AccruedUtility / base.AccruedUtility
	}
	if base.TotalEnergy > 0 {
		n.Energy = r.TotalEnergy / base.TotalEnergy
	}
	return n
}
