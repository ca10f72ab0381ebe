package baseline

// The reference baselines, the oracle of differential_test.go: EDF and
// UA without the shared sched.TaskTable. Every decision re-derives c_i,
// C_i/D_i and D_i from the task model (CycleAllocation, MinFrequency,
// CriticalTime, and EstimatedRemaining through the job's own task) and
// finds a task's position through an ID map; ccEDF's hooks do the same.
// So the suite checks the table's values, its refresh of profiled tasks
// and its position slots, not only the decisions built on them.

import (
	"fmt"
	"math"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// reference returns the reference twin of a production baseline.
func reference(s sched.Scheduler) sched.Scheduler {
	switch s := s.(type) {
	case *CCEDF:
		return &refCCEDF{newRefEDF(s.EDF)}
	case *EDF:
		return newRefEDF(s)
	case *UA:
		r := &refUA{scheme: scheme{name: s.name}, density: refJobDensity}
		if s.name == "GUS" {
			r.density = refChainDensity
		}
		return r
	}
	panic(fmt.Sprintf("baseline: no reference for %T", s))
}

// refEDF is EDF with every per-decision value derived from the task.
type refEDF struct {
	scheme
	rule  rule
	abort bool

	freq     float64
	index    map[int]int
	util     []float64
	live     []*task.Job
	earliest []*task.Job
	pending  []int
	entries  []sched.LookAheadEntry
}

func newRefEDF(s *EDF) *refEDF {
	return &refEDF{scheme: scheme{name: s.name}, rule: s.rule, abort: s.abort}
}

// refCCEDF observes releases and completions, as CCEDF does.
type refCCEDF struct{ *refEDF }

func (s *refCCEDF) OnRelease(now float64, j *task.Job) {
	if i, ok := s.index[j.Task.ID]; ok {
		s.util[i] = j.Task.MinFrequency()
	}
}

func (s *refCCEDF) OnComplete(now float64, j *task.Job) {
	if i, ok := s.index[j.Task.ID]; ok {
		s.util[i] = float64(j.Task.Arrival.A) * j.Executed / j.Task.CriticalTime()
	}
}

func (s *refEDF) Init(ctx *sched.Context) error {
	if err := s.init(ctx); err != nil {
		return err
	}
	n := len(ctx.Tasks)
	s.index = make(map[int]int, n)
	for i, t := range ctx.Tasks {
		s.index[t.ID] = i
	}
	switch s.rule {
	case static:
		util := 0.0
		for _, t := range ctx.Tasks {
			util += t.MinFrequency()
		}
		s.freq = ctx.Freqs.ClampSelect(util)
	case cycleConserving:
		s.util = make([]float64, n)
		for i, t := range ctx.Tasks {
			s.util[i] = t.MinFrequency()
		}
	case lookAhead:
		s.earliest = make([]*task.Job, n)
		s.pending = make([]int, n)
	}
	return nil
}

func (s *refEDF) Decide(now float64, ready []*task.Job) sched.Decision {
	var run *task.Job
	var aborts []*task.Job
	live := s.live[:0]
	for _, j := range ready {
		if s.abort && !sched.JobFeasible(j, now, s.fm) {
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

func (s *refEDF) frequency(now float64, live []*task.Job) float64 {
	switch s.rule {
	case static:
		return s.freq
	case cycleConserving:
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

func (s *refEDF) lookAhead(now float64, live []*task.Job) float64 {
	clear(s.earliest)
	clear(s.pending)
	for _, j := range live {
		i, ok := s.index[j.Task.ID]
		if !ok {
			continue
		}
		if e := s.earliest[i]; e == nil || sched.Less(j, e) {
			s.earliest[i] = j
		}
		s.pending[i]++
	}
	entries := s.entries[:0]
	for i, t := range s.ctx.Tasks {
		e := sched.LookAheadEntry{StaticUtil: t.MinFrequency()}
		if j := s.earliest[i]; j != nil {
			e.AbsCritical = j.AbsCritical
			e.Remaining = j.EstimatedRemaining() + float64(s.pending[i]-1)*t.CycleAllocation()
		} else {
			e.AbsCritical = now + t.CriticalTime()
		}
		entries = append(entries, e)
	}
	s.entries = entries
	return sched.LookAheadFrequency(now, s.fm, entries)
}

// refUA is UA with every remaining-cycle estimate taken from the job's
// own task.
type refUA struct {
	scheme
	density func(now, fm float64, j *task.Job) float64
}

func refJobDensity(now, fm float64, j *task.Job) float64 {
	c := j.EstimatedRemaining()
	return j.UtilityAt(now+c/fm) / c
}

func refChainDensity(now, fm float64, j *task.Job) float64 {
	links := refChain(j)
	cycles, utility := 0.0, 0.0
	for _, link := range links {
		cycles += link.EstimatedRemaining()
	}
	done := now + cycles/fm
	for _, link := range links {
		utility += link.UtilityAt(done)
	}
	if cycles <= 0 {
		return 0
	}
	return utility / cycles
}

// refChain is the blocking-chain walk with a visited set: the job
// itself first, then the holders it transitively waits on, stopping on
// cycles.
func refChain(j *task.Job) []*task.Job {
	var out []*task.Job
	seen := map[*task.Job]bool{}
	for j != nil && !seen[j] {
		seen[j] = true
		out = append(out, j)
		j = j.BlockedBy
	}
	return out
}

func (s *refUA) Init(ctx *sched.Context) error { return s.init(ctx) }

func (s *refUA) Decide(now float64, ready []*task.Job) sched.Decision {
	var live []*task.Job
	var aborts []*task.Job
	density := make(map[*task.Job]float64, len(ready))
	for _, j := range ready {
		if !sched.JobFeasible(j, now, s.fm) {
			j.AbortReason = sched.AbortInfeasible
			aborts = append(aborts, j)
			continue
		}
		live = append(live, j)
		density[j] = s.density(now, s.fm, j)
		if math.IsNaN(density[j]) {
			// A NaN density ranks after every other and is never
			// inserted (see sched.Sequencer).
			density[j] = math.Inf(-1)
		}
	}
	if len(live) == 0 {
		return sched.Decision{Abort: aborts}
	}
	sched.ByCriticalTime(live)
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
		if sched.Feasible(tent, now, s.fm) {
			order = tent
		}
	}
	if len(order) == 0 {
		return sched.Decision{Abort: aborts, Iters: iters}
	}
	return sched.Decision{Run: order[0], Freq: s.fm, Abort: aborts, Iters: iters}
}
