package eua

// The reference EUA*: a literal transcription of Algorithm 1 (Decide) and
// Algorithm 2 (decideFreq), kept as the differential oracle for the
// incremental core in fastpath.go. Nothing here is cached or reused across
// events: allocations and critical times are re-derived from the task
// model, jobs are ranked by two sorts, every insertion trial copies the
// tentative schedule, the release history is a re-sliced per-task slice,
// and the deferral loop sorts with sort.Slice — so the oracle checks the
// core's caches, kept orders, ring buffer and look-ahead sort, not just
// its arithmetic.

import (
	"math"
	"sort"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// refScheduler runs the reference Decide on top of a Scheduler's options
// and budget state. Everything the reference reads besides those — f^o,
// the release history — it derives itself.
type refScheduler struct {
	*Scheduler
	fo       map[int]float64   // task ID → offline UER-optimal frequency f^o
	arrivals map[int][]float64 // task ID → last a release times
}

// Init initializes the wrapped Scheduler (for its context and fleet
// UER) and then the reference's own per-task state.
func (r *refScheduler) Init(ctx *sched.Context) error {
	if err := r.Scheduler.Init(ctx); err != nil {
		return err
	}
	r.fo = make(map[int]float64, len(ctx.Tasks))
	r.arrivals = make(map[int][]float64, len(ctx.Tasks))
	for _, t := range ctx.Tasks {
		r.fo[t.ID] = r.optimalFrequency(t)
	}
	return nil
}

// OnRelease records the release, keeping the last a of them.
func (r *refScheduler) OnRelease(now float64, j *task.Job) {
	id := j.Task.ID
	h := append(r.arrivals[id], now)
	if max := j.Task.Arrival.A; len(h) > max {
		h = h[len(h)-max:]
	}
	r.arrivals[id] = h
}

// Decide is the reference Algorithm 1. Like the core, it reports its
// greedy's feasibility trials in Decision.Iters.
func (r *refScheduler) Decide(now float64, ready []*task.Job) sched.Decision {
	fm := r.ctx.Freqs.Max()

	// Line 9–11: abort infeasible jobs, keep the rest.
	var live []*task.Job
	var aborts []*task.Job
	for _, j := range ready {
		if !sched.JobFeasible(j, now, fm) {
			j.AbortReason = sched.AbortInfeasible
			aborts = append(aborts, j)
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return sched.Decision{Abort: aborts}
	}

	// Line 12: σ_tmp := sortByUER(J_r), non-increasing, deterministic
	// tie-break by critical time. UERs are keyed by position — uer[i]
	// belongs to live[i] — and the two slices are permuted in tandem.
	sched.ByCriticalTime(live)
	uer := make([]float64, len(live))
	for i, j := range live {
		uer[i] = r.UER(now, j)
		if math.IsNaN(uer[i]) {
			// A NaN UER ranks after every other and is never inserted
			// (see the file comment of fastpath.go).
			uer[i] = math.Inf(-1)
		}
	}
	stableSortByUERDesc(live, uer)

	// Lines 13–18: greedy feasible insertion in critical-time order.
	var order []*task.Job
	iters := 0
	if r.noUER {
		// Ablation: plain EDF order over all live jobs.
		order = append(order, live...)
		sched.ByCriticalTime(order)
	} else {
		committed := 0.0
		budgetLeft := math.Inf(1)
		constrained := false
		if r.budgetAware && r.budgetKnown {
			budgetLeft = r.energyBudget - r.spentEnergy
			constrained = r.energyConstrained(budgetLeft)
		}
		for i, j := range live {
			if uer[i] <= 0 {
				break // sorted: no later job has positive UER
			}
			cost := 0.0
			if r.budgetAware {
				cost = r.plannedCost(j)
				if committed+cost > budgetLeft {
					continue
				}
				if constrained && uer[i] < r.fleetUER {
					continue
				}
			}
			iters++
			tent := sched.InsertByCritical(append([]*task.Job(nil), order...), j)
			if sched.Feasible(tent, now, fm) {
				order = tent
				committed += cost
			} else if r.strictBreak {
				break
			}
		}
	}
	if len(order) == 0 {
		return sched.Decision{Abort: aborts, Iters: iters}
	}

	// Line 19: the selected job is the head of the feasible schedule.
	jexe := order[0]

	// Lines 20–21: decide the execution frequency.
	fexe := fm
	if !r.noDVS {
		fexe = r.decideFreq(now, live, jexe)
	}
	return sched.Decision{Run: jexe, Freq: fexe, Abort: aborts, Iters: iters}
}

// plannedCost estimates the energy a job's remaining work will consume at
// its UER-optimal frequency (the cheapest sensible execution plan).
func (r *refScheduler) plannedCost(j *task.Job) float64 {
	return j.EstimatedRemaining() * r.ctx.Energy.PerCycle(r.taskFo(j.Task))
}

// taskFo returns f^o of a context task from the map Init fills, and
// derives it afresh for a task outside the context (a foreign job's).
func (r *refScheduler) taskFo(t *task.Task) float64 {
	if f, ok := r.fo[t.ID]; ok {
		return f
	}
	return r.optimalFrequency(t)
}

// energyConstrained sums the fleet's planned energy rate afresh on every
// call.
func (r *refScheduler) energyConstrained(budgetLeft float64) bool {
	rate, maxP := 0.0, 0.0
	for _, t := range r.ctx.Tasks {
		rate += t.WindowCycles() * r.ctx.Energy.PerCycle(r.fo[t.ID]) / t.Arrival.P
		if t.Arrival.P > maxP {
			maxP = t.Arrival.P
		}
	}
	lookahead := r.budgetLookahead
	if lookahead <= 0 {
		lookahead = energyConstrainedWindows * maxP
	}
	return rate > 0 && budgetLeft/rate < lookahead
}

// nextPossibleArrival reads the slice history the reference's OnRelease
// keeps.
func (r *refScheduler) nextPossibleArrival(now float64, t *task.Task) (at float64, count int) {
	h := r.arrivals[t.ID]
	a := t.Arrival.A
	if len(h) < a {
		return now, a - len(h)
	}
	at = h[len(h)-a] + t.Arrival.P
	if at < now {
		at = now
	}
	recent := 0
	for _, rel := range h {
		if rel > at-t.Arrival.P {
			recent++
		}
	}
	return at, a - recent
}

// decideFreq is the reference Algorithm 2: the stochastic DVS technique.
func (r *refScheduler) decideFreq(now float64, live []*task.Job, jexe *task.Job) float64 {
	views := earliestByTask(live)
	entries := make([]sched.LookAheadEntry, 0, len(r.ctx.Tasks))
	for _, t := range r.ctx.Tasks {
		v, ok := views[t.ID]
		if !ok {
			// No pending invocation. The UAM adversary may release the
			// task's next burst at the earliest instant its history
			// permits; reserve actual cycles for that phantom arrival (not
			// just rate capacity) so deferral cannot overcommit the
			// processor right before the burst lands.
			entry := sched.LookAheadEntry{
				AbsCritical: now + t.CriticalTime(),
				StaticUtil:  t.MinFrequency(),
			}
			if !r.noPhantom {
				at, count := r.nextPossibleArrival(now, t)
				entry.AbsCritical = at + t.CriticalTime()
				entry.Remaining = float64(count) * t.CycleAllocation()
			}
			entries = append(entries, entry)
			continue
		}
		remaining := windowRemaining(t, v)
		if r.noWindowed {
			remaining = v.Earliest.EstimatedRemaining()
		}
		entries = append(entries, sched.LookAheadEntry{
			AbsCritical: v.Earliest.AbsCritical,
			Remaining:   remaining,
			StaticUtil:  t.MinFrequency(),
		})
		if !r.noPhantom {
			// Reserve the next window's burst as well: the static rate
			// term spreads that demand fluidly, but the adversary delivers
			// it as a lump whose critical time can precede other tasks'
			// already-pending work. StaticUtil stays with the entry above
			// so capacity is not double-counted.
			if at, count := r.nextPossibleArrival(now, t); count > 0 {
				entries = append(entries, sched.LookAheadEntry{
					AbsCritical: at + t.CriticalTime(),
					Remaining:   float64(count) * t.CycleAllocation(),
					StaticUtil:  0,
				})
			}
		}
	}
	fm := r.ctx.Freqs.Max()
	req := lookAheadFrequencyRef(now, fm, entries)
	if req > fm {
		req = fm // Algorithm 2 line 9: cap at the highest frequency.
	}
	fexe := r.ctx.Freqs.ClampSelect(req)
	if !r.noFoClamp {
		// Line 11: never run the selected job below its UER-optimal
		// frequency — "we cannot decrease f_exe, but may increase it to
		// maximize the system-level energy efficiency".
		if fo := r.taskFo(jexe.Task); fo > fexe {
			fexe = fo
		}
	}
	return fexe
}

// taskView is the reference's per-task aggregate of the live jobs.
type taskView struct {
	Earliest *task.Job // pending job with the earliest absolute critical time
	Pending  int       // number of pending jobs of the task
}

// earliestByTask groups ready jobs by task and returns, per task ID, the
// pending job with the earliest absolute critical time together with the
// number of pending jobs of that task.
func earliestByTask(ready []*task.Job) map[int]taskView {
	m := make(map[int]taskView)
	for _, j := range ready {
		v, ok := m[j.Task.ID]
		if !ok {
			m[j.Task.ID] = taskView{Earliest: j, Pending: 1}
			continue
		}
		v.Pending++
		if sched.Less(j, v.Earliest) {
			v.Earliest = j
		}
		m[j.Task.ID] = v
	}
	return m
}

// windowRemaining returns C_i^r, the remaining allocated cycles of task t
// in the current time window (Section 3.3):
//
//	C_i^r = c_i^r + (a_i − 1)·c_i
//
// the earliest pending job's remaining allocation plus a full allocation
// c_i for each further instance the window may carry — whether it has
// already arrived or not (the UAM adversary may still release it), and
// capped at a_i instances in total even when unfinished jobs from the
// previous window push the actual pending count a'_i above a_i ("we only
// need to consider at most a_i instances").
func windowRemaining(t *task.Task, v taskView) float64 {
	if v.Pending == 0 || v.Earliest == nil {
		return 0
	}
	return v.Earliest.EstimatedRemaining() + float64(t.Arrival.A-1)*t.CycleAllocation()
}

// lookAheadFrequencyRef is the deferral loop of Algorithm 2 lines 2–9 as
// it stood before sched.LookAheadFrequency moved to slices.SortFunc:
// sort.Slice on a private copy. The core's result must match it bit for
// bit, ties among equal critical times included.
func lookAheadFrequencyRef(now, fmax float64, entries []sched.LookAheadEntry) float64 {
	if len(entries) == 0 {
		return 0
	}
	order := append([]sched.LookAheadEntry(nil), entries...)
	sort.Slice(order, func(i, j int) bool { return order[i].AbsCritical > order[j].AbsCritical })
	dn := order[len(order)-1].AbsCritical

	util := 0.0
	for _, e := range order {
		util += e.StaticUtil
	}
	s := 0.0
	for _, e := range order {
		util -= e.StaticUtil
		span := e.AbsCritical - dn
		if span <= 0 {
			s += e.Remaining
			util += fmax
			continue
		}
		x := e.Remaining - (fmax-util)*span
		if x < 0 {
			x = 0
		}
		s += x
		util += (e.Remaining - x) / span
	}
	if s <= 0 {
		return 0
	}
	if dn <= now {
		return math.Inf(1)
	}
	return s / (dn - now)
}

// stableSortByUERDesc sorts jobs by UER non-increasing, preserving the
// existing (critical-time) order among equal UERs. uer is positional —
// uer[i] is jobs[i]'s ratio — and both slices are permuted in tandem.
func stableSortByUERDesc(jobs []*task.Job, uer []float64) {
	for i := 1; i < len(jobs); i++ {
		j, u := jobs[i], uer[i]
		k := i - 1
		for k >= 0 && uer[k] < u {
			jobs[k+1], uer[k+1] = jobs[k], uer[k]
			k--
		}
		jobs[k+1], uer[k+1] = j, u
	}
}
