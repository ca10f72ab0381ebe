package baseline

import (
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// UA is best-effort utility-accrual scheduling at f_m: it aborts the
// jobs infeasible at f_m, ranks the rest by potential utility density
// (utility per cycle, no energy term), greedily inserts them in
// critical-time order while the schedule stays feasible, and runs the
// schedule's head. Build one with NewDASA or NewGUS.
type UA struct {
	scheme
	density func(s *scheme, now float64, j *task.Job) float64
}

// NewDASA returns Locke's Dependent Activity Scheduling Algorithm in its
// independent-task form: a job's density is its own.
func NewDASA() *UA { return &UA{scheme: scheme{name: "DASA"}, density: jobDensity} }

// NewGUS returns GUS (Generic Utility Scheduling, Li & Ravindran): a
// job's density is the potential utility density of its whole blocking
// chain, the utility gained per cycle by executing everything needed to
// let the job finish.
func NewGUS() *UA { return &UA{scheme: scheme{name: "GUS"}, density: chainDensity} }

// jobDensity is U(now + c/f_m) / c over the job's remaining allocation c.
func jobDensity(s *scheme, now float64, j *task.Job) float64 {
	c := s.remaining(j)
	return j.UtilityAt(now+c/s.fm) / c
}

// chainDensity is the potential utility density of j's blocking chain
// at time now: the summed utility of every job the chain completes,
// divided by the cycles that must be executed to get there. The chain
// executes its holders first and all of it must run before j finishes,
// so the completion instant is estimated from the aggregate work.
func chainDensity(s *scheme, now float64, j *task.Job) float64 {
	links := chain(j)
	cycles, utility := 0.0, 0.0
	for _, link := range links {
		cycles += s.remaining(link)
	}
	done := now + cycles/s.fm
	for _, link := range links {
		utility += link.UtilityAt(done)
	}
	if cycles <= 0 {
		return 0
	}
	return utility / cycles
}

// chain returns the job's blocking chain: the job itself first, then the
// holders it transitively waits on through the engine-maintained
// BlockedBy pointers, stopping on cycles.
func chain(j *task.Job) []*task.Job {
	var out []*task.Job
	seen := map[*task.Job]bool{}
	for j != nil && !seen[j] {
		seen[j] = true
		out = append(out, j)
		j = j.BlockedBy
	}
	return out
}

// Init implements sched.Scheduler.
func (s *UA) Init(ctx *sched.Context) error { return s.init(ctx) }

// Decide implements sched.Scheduler.
func (s *UA) Decide(now float64, ready []*task.Job) sched.Decision {
	start := s.ins.Begin()
	d := s.decide(now, ready)
	s.ins.End(start, len(ready), d.Freq)
	return d
}

func (s *UA) decide(now float64, ready []*task.Job) sched.Decision {
	s.tab.Refresh()
	var live []*task.Job
	var aborts []*task.Job
	density := make(map[*task.Job]float64, len(ready))
	for _, j := range ready {
		if !sched.JobFeasibleWith(j, s.remaining(j), now, s.fm) {
			j.AbortReason = infeasible
			aborts = append(aborts, j)
			continue
		}
		live = append(live, j)
		density[j] = s.density(&s.scheme, now, j)
	}
	if len(live) == 0 {
		return sched.Decision{Abort: aborts}
	}
	sched.ByCriticalTime(live)
	// Stable sort by density, non-increasing (insertion sort keeps the
	// critical-time tie-break).
	for i := 1; i < len(live); i++ {
		j := live[i]
		k := i - 1
		for k >= 0 && density[live[k]] < density[j] {
			live[k+1] = live[k]
			k--
		}
		live[k+1] = j
	}
	var order []*task.Job
	iters := 0
	for _, j := range live {
		if density[j] <= 0 {
			break
		}
		iters++
		tent := sched.InsertByCritical(append([]*task.Job(nil), order...), j)
		if sched.FeasibleWith(tent, now, s.fm, s.remaining) {
			order = tent
		}
	}
	s.ins.FeasibilityIterations(iters)
	if len(order) == 0 {
		return sched.Decision{Abort: aborts}
	}
	return sched.Decision{Run: order[0], Freq: s.fm, Abort: aborts}
}
