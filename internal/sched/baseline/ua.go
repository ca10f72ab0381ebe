package baseline

import (
	"slices"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// UA is best-effort utility-accrual scheduling at f_m: it aborts the
// jobs infeasible at f_m, ranks the rest by potential utility density
// (utility per cycle, no energy term), greedily inserts them in
// critical-time order while the schedule stays feasible, and runs the
// schedule's head. The construction is EUA*'s, sched.Sequencer, keyed by
// density instead of UER. Build one with NewDASA or NewGUS.
type UA struct {
	scheme
	density func(s *UA, now float64, j *task.Job) float64
	seq     sched.Sequencer
	links   []*task.Job // GUS's blocking-chain buffer, reused across jobs
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
func jobDensity(s *UA, now float64, j *task.Job) float64 {
	c := s.remaining(j)
	return j.UtilityAt(now+c/s.fm) / c
}

// chainDensity is the potential utility density of j's blocking chain
// at time now: the summed utility of every job the chain completes,
// divided by the cycles that must be executed to get there. The chain
// executes its holders first and all of it must run before j finishes,
// so the completion instant is estimated from the aggregate work.
func chainDensity(s *UA, now float64, j *task.Job) float64 {
	links := s.chain(j)
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
// BlockedBy pointers, stopping on cycles. It walks into the scheduler's
// buffer, valid until the next call, and finds a cycle by scanning it:
// chains are short, and without resource sections every chain is the
// job alone.
func (s *UA) chain(j *task.Job) []*task.Job {
	links := s.links[:0]
	for j != nil && !slices.Contains(links, j) {
		links = append(links, j)
		j = j.BlockedBy
	}
	s.links = links
	return links
}

// Init implements sched.Scheduler.
func (s *UA) Init(ctx *sched.Context) error {
	if err := s.init(ctx); err != nil {
		return err
	}
	s.seq = sched.NewSequencer(s.fm, ctx.Tasks)
	return nil
}

// Decide implements sched.Scheduler.
func (s *UA) Decide(now float64, ready []*task.Job) sched.Decision {
	s.tab.Refresh()
	aborts := s.seq.Gather(now, ready, &s.tab)
	live := s.seq.Live()
	for i := range live {
		live[i].Key = s.density(s, now, live[i].Job)
	}
	head, iters := s.seq.Head(now, false, nil)
	if head == nil {
		return sched.Decision{Abort: aborts, Iters: iters}
	}
	return sched.Decision{Run: head, Freq: s.fm, Abort: aborts, Iters: iters}
}
