package baseline

import (
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// rule is an EDF variant's frequency rule.
type rule int

const (
	atMax           rule = iota // f_m at every decision
	static                      // the lowest step covering Σ C_i/D_i, chosen at Init
	cycleConserving             // the lowest step covering the ccEDF ledger
	lookAhead                   // laEDF's deferral analysis
)

// EDF runs the ready job with the earliest absolute critical time at the
// frequency its rule selects. Build one with NewEDF, NewStaticEDF or
// NewLAEDF; NewCCEDF wraps one in CCEDF.
type EDF struct {
	scheme
	rule  rule
	abort bool

	freq float64 // static: the step chosen at Init

	// util is the ccEDF ledger: each task's current utilization
	// contribution in cycles per second.
	util []float64

	// The look-ahead rule's per-decision view, reused across decisions:
	// the live jobs, each task's pending job with the earliest critical
	// time and its pending count, and the deferral loop's entries.
	live     []*task.Job
	earliest []*task.Job
	pending  []int
	entries  []sched.LookAheadEntry
}

func newEDF(name string, r rule, abortInfeasible bool) *EDF {
	if !abortInfeasible {
		name += "-NA"
	}
	return &EDF{scheme: scheme{name: name}, rule: r, abort: abortInfeasible}
}

// NewEDF returns EDF at the fixed highest frequency f_m, the paper's
// normalization baseline. abortInfeasible selects whether jobs that
// cannot finish by their termination time at f_m are aborted (true) or
// left to run uselessly (false, the "-NA" variant).
func NewEDF(abortInfeasible bool) *EDF { return newEDF("EDF-fm", atMax, abortInfeasible) }

// NewStaticEDF returns statically scaled EDF, the first Pillai–Shin
// algorithm: plain EDF at the lowest table frequency covering the task
// set's summed allocated utilization Σ C_i/D_i (Theorem 1's bound),
// chosen once at Init. No runtime adaptation, but also none of the
// dynamic schemes' estimation error.
func NewStaticEDF(abortInfeasible bool) *EDF {
	return newEDF("staticEDF", static, abortInfeasible)
}

// CCEDF is cycle-conserving EDF, the one EDF variant that observes
// releases and completions: a released job restores its task's full
// allocated rate C_i/D_i; a job that completes having used fewer cycles
// than allocated shrinks its task's rate to the cycles actually used
// until the next release. The frequency is the lowest table entry
// covering the summed rates.
type CCEDF struct{ *EDF }

// NewCCEDF returns cycle-conserving EDF.
func NewCCEDF(abortInfeasible bool) *CCEDF {
	return &CCEDF{newEDF("ccEDF", cycleConserving, abortInfeasible)}
}

// OnRelease implements engine.EventObserver: a release restores the
// task's full allocated rate. Jobs of tasks outside the context (which
// the engine never releases) have no ledger slot. A profiled task's rate
// may have moved since the last decision, so the table is refreshed
// first.
func (s *CCEDF) OnRelease(now float64, j *task.Job) {
	if i := s.tab.Pos(j); i >= 0 {
		s.tab.Refresh()
		s.util[i] = s.tab.MinFreq(i)
	}
}

// OnComplete implements engine.EventObserver: a completion shrinks the
// task's rate to the cycles the job actually consumed.
func (s *CCEDF) OnComplete(now float64, j *task.Job) {
	if i := s.tab.Pos(j); i >= 0 {
		s.util[i] = float64(j.Task.Arrival.A) * j.Executed / s.tab.Crit(i)
	}
}

// NewLAEDF returns look-ahead EDF. It defers as much work as possible
// past the earliest critical time and runs at the lowest frequency that
// still completes the non-deferrable cycles in time — the deferral
// analysis EUA*'s decideFreq (Algorithm 2) generalizes, here without the
// UAM windowed demand and without EUA*'s UER mechanisms.
func NewLAEDF(abortInfeasible bool) *EDF { return newEDF("laEDF", lookAhead, abortInfeasible) }

// Init implements sched.Scheduler.
func (s *EDF) Init(ctx *sched.Context) error {
	if err := s.init(ctx); err != nil {
		return err
	}
	n := len(ctx.Tasks)
	switch s.rule {
	case static:
		util := 0.0
		for i := range n {
			util += s.tab.MinFreq(i)
		}
		s.freq = ctx.Freqs.ClampSelect(util)
	case cycleConserving:
		// Before any release a task contributes its static rate
		// (conservative, as in the original algorithm's initialization
		// U_i = C_i/T_i).
		s.util = make([]float64, n)
		for i := range n {
			s.util[i] = s.tab.MinFreq(i)
		}
	case lookAhead:
		s.earliest = make([]*task.Job, n)
		s.pending = make([]int, n)
	}
	return nil
}

// Decide implements sched.Scheduler: it aborts the jobs infeasible at
// f_m (unless the variant never aborts) and runs the earliest survivor.
// The critical-time order is total on distinct jobs, so its minimum,
// taken in the filtering pass, is the head a sort would produce.
func (s *EDF) Decide(now float64, ready []*task.Job) sched.Decision {
	s.tab.Refresh()
	var run *task.Job
	var aborts []*task.Job
	live := s.live[:0]
	for _, j := range ready {
		if s.abort && !sched.JobFeasibleWith(j, s.remaining(j), now, s.fm) {
			j.AbortReason = sched.AbortInfeasible
			aborts = append(aborts, j)
			continue
		}
		if s.rule == lookAhead {
			live = append(live, j)
		}
		if run == nil || sched.Less(j, run) {
			run = j
		}
	}
	s.live = live
	if run == nil {
		return sched.Decision{Abort: aborts}
	}
	return sched.Decision{Run: run, Freq: s.frequency(now, live), Abort: aborts}
}

// frequency applies the variant's rule.
func (s *EDF) frequency(now float64, live []*task.Job) float64 {
	switch s.rule {
	case static:
		return s.freq
	case cycleConserving:
		// Summed in ctx.Tasks order, like task.Set.Load, so the total —
		// and the step it lands on — is the same at every decision.
		total := 0.0
		for _, u := range s.util {
			total += u
		}
		return s.ctx.Freqs.ClampSelect(total)
	case lookAhead:
		return s.ctx.Freqs.ClampSelect(min(s.lookAhead(now, live), s.fm))
	}
	return s.fm
}

// lookAhead builds one deferral entry per context task — its earliest
// live job's critical time and the remaining budget of its pending jobs,
// or, for an idle task, its static rate reserved against the earliest
// critical time a new arrival could impose — and returns the uncapped
// frequency the deferral loop requires.
func (s *EDF) lookAhead(now float64, live []*task.Job) float64 {
	clear(s.earliest)
	clear(s.pending)
	for _, j := range live {
		i := s.tab.Pos(j)
		if i < 0 {
			continue
		}
		if e := s.earliest[i]; e == nil || sched.Less(j, e) {
			s.earliest[i] = j
		}
		s.pending[i]++
	}
	entries := s.entries[:0]
	for i := range s.ctx.Tasks {
		e := sched.LookAheadEntry{StaticUtil: s.tab.MinFreq(i)}
		if j := s.earliest[i]; j != nil {
			// Classic laEDF considers the outstanding job's remaining
			// budget; with several pending instances their budgets
			// accumulate.
			e.AbsCritical = j.AbsCritical
			e.Remaining = s.tab.Remaining(j, i) + float64(s.pending[i]-1)*s.tab.Alloc(i)
		} else {
			e.AbsCritical = now + s.tab.Crit(i)
		}
		entries = append(entries, e)
	}
	s.entries = entries
	return sched.LookAheadFrequency(now, s.fm, entries)
}
