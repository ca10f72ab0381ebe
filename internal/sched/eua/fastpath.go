// The incremental EUA* core: Decide's one implementation. It makes
// exactly the decisions of the literal Algorithm 1/2 reference, which
// lives on in reference_test.go as the test oracle: the differential
// suite (differential_test.go) runs both over hundreds of seed-derived
// workloads, uniprocessor and partitioned, and requires bit-identical
// results. The schedule construction is sched.Sequencer, which DASA and
// GUS share and whose doc comment carries that part of the argument;
// this comment records the rest. Each replacement performs floating-
// point operations on the same operands in the same order as the
// literal algorithm, which is what makes the results bit-identical
// rather than merely close:
//
//   - Cycle allocations c_i = Cantelli(E, Var, ρ) are pure in the task's
//     demand moments: derived once at Init, or once per event for a task
//     with an online Profiler (its moments move only between events).
//     They, D_i and the Theorem 1 bound C_i/D_i live in sched.TaskTable,
//     which the baselines read too; a job finds its task's row through a
//     verified slot in its SchedCache instead of hashing the task ID.
//   - E(f_m), f^o_i and E(f^o_i) are likewise pure and cached.
//   - UER(now, j) = U_J(now + c/f_m) / (c · E(f_m)), the Sequencer's key,
//     is memoized per job for step TUFs: Step.Utility is Height
//     everywhere on [0, Deadline] and UtilityAt clamps the ≤1e-9-relative
//     boundary overshoot, so every job that passes JobFeasible evaluates
//     to exactly Height — making the ratio independent of now while the
//     job's Executed cycles (and hence c) are unchanged. The memo is
//     invalidated by comparing the stored Executed stamp. Non-step TUFs
//     genuinely depend on now and are recomputed every event.
//   - Budget rationing is the Sequencer's one hook: each live job's cost
//     rem · E(f^o), the literal loop's product, is written beside its UER.
//   - decideFreq builds its look-ahead entries in ctx.Tasks order and
//     calls sched.LookAheadFrequency on one reusable buffer; the
//     deferral loop's sort permutes entries with equal critical times
//     exactly as the literal sort.Slice version did, so the summation
//     order — and the float — is unchanged. A task's earliest pending job
//     is its first job in the Sequencer's critical-time order.
//   - decideFreq first tries to certify that the look-ahead would select
//     f_m (certifyFm), skipping the entries. Let D1 be the critical time
//     of the first context-task job in critical-time order and R its
//     task's windowed demand, the float its entry would carry. When
//     D1 ≤ fl(now + min_i D_i), no entry precedes D1: every other pending
//     task's entry is its earliest job, at D1 or later, and an idle or
//     phantom entry lies at fl(at + D_i) with at ≥ now, which rounding
//     keeps at or above fl(now + min_i D_i). So D1 is the look-ahead's dn
//     and its entry adds R whole to the sum s. Demands are non-negative
//     and rounded addition is monotone, so s ≥ R (or s is NaN, which the
//     table maps to f_m), and s/fl(D1 − now) ≥ fl(R/fl(D1 − now)) when
//     D1 > now (at D1 = now the look-ahead returns +Inf). When that
//     exceeds the table step below f_m, the table selects f_m, and the
//     f^o clamp cannot raise it. The table is discrete, so the test needs
//     no rounding margin.
//   - The UAM release history is a fixed ring of the last a_i release
//     times per task (uam.Window, shared with the engine's watchdog)
//     instead of a re-sliced, re-appended slice: the same values, read
//     oldest first.
package eua

import (
	"math"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// fastState holds the core's per-task caches, release history, its
// schedule construction and reusable scratch buffers. It lives inside
// Scheduler and is populated by initFast.
type fastState struct {
	fm         float64 // f_m, the highest table frequency
	perCycleFM float64 // E(f_m), cached (pure in the model coefficients)

	// tab is the per-task table every scheduler shares: positions in
	// ctx.Tasks, c_i, C_i/D_i and D_i.
	tab    sched.TaskTable
	seq    sched.Sequencer // Algorithm 1's schedule construction, keyed by UER
	ration sched.Ration    // the budget hook, rewritten at every decision

	// EUA*'s own per-task rows, by table position.
	foFreq   []float64 // f^o_i
	foCost   []float64 // E(f^o_i)
	stepUER  []bool    // step TUF, no profiler: UER memoizable per job
	arrivals []uam.Window

	// energyConstrained cache, valid when no ctx task has a profiler.
	allCacheable bool
	ecRate       float64
	ecMaxP       float64

	// The f_m certificate's constants: the table step below f_m (0 when
	// f_m is the only one) and the least critical time min_i D_i.
	fmBelow float64
	minCrit float64
	// certified counts the decisions the certificate settled.
	certified int

	// decideFreq's scratch buffers, reused across events.
	earliest []int32 // per task: live index of earliest pending job, -1 none
	entries  []sched.LookAheadEntry
}

// initFast populates the caches. Called at the end of Init.
func (s *Scheduler) initFast() {
	ts := s.ctx.Tasks
	n := len(ts)
	fm := s.ctx.Freqs.Max()
	window := 0
	for _, t := range ts {
		window += t.Arrival.A
	}
	// f^o, E(f^o) and the arrival histories share one array, each part
	// capped at its own length.
	vals := make([]float64, 2*n+window)
	s.fp = fastState{
		fm:           fm,
		perCycleFM:   s.ctx.Energy.PerCycle(fm),
		tab:          sched.NewTaskTable(ts),
		seq:          sched.NewSequencer(fm, ts),
		foFreq:       vals[:n:n],
		foCost:       vals[n : 2*n : 2*n],
		stepUER:      make([]bool, n),
		arrivals:     make([]uam.Window, n),
		allCacheable: true,
		earliest:     make([]int32, n),
		entries:      make([]sched.LookAheadEntry, 0, 2*n),
	}
	fp := &s.fp
	if k := len(s.ctx.Freqs); k > 1 {
		fp.fmBelow = s.ctx.Freqs[k-2]
	}
	fp.minCrit = math.Inf(1)
	for ti := range ts {
		fp.minCrit = min(fp.minCrit, fp.tab.Crit(ti))
	}
	history := vals[2*n:]
	for ti, t := range ts {
		f := s.optimalFrequency(t)
		fp.foFreq[ti], fp.foCost[ti] = f, s.ctx.Energy.PerCycle(f)
		_, isStep := t.TUF.(tuf.Step)
		fp.stepUER[ti] = isStep && t.Profiler == nil
		a := t.Arrival.A
		fp.arrivals[ti] = uam.NewWindow(history[:a:a])
		history = history[a:]
		if t.Profiler != nil {
			fp.allCacheable = false
		}
	}
	if fp.allCacheable && s.budgetAware {
		fp.ecRate, fp.ecMaxP = s.fleetRate()
	}
}

// fo returns f^o_i and E(f^o_i) of the task at table position ti. A
// task outside ctx.Tasks (ti < 0, possible only if a caller hands Decide
// foreign jobs) gets them derived on the spot.
func (s *Scheduler) fo(ti int, t *task.Task) (freq, perCycle float64) {
	if ti >= 0 {
		return s.fp.foFreq[ti], s.fp.foCost[ti]
	}
	freq = s.optimalFrequency(t)
	return freq, s.ctx.Energy.PerCycle(freq)
}

// fastUER evaluates UER(now, j) with rem = j.EstimatedRemaining() already
// in hand, memoizing the result for step-TUF jobs (see file comment for
// why the ratio is now-invariant for every feasible step job).
func (s *Scheduler) fastUER(now float64, j *task.Job, ti int, rem float64) float64 {
	fp, c := &s.fp, &j.SchedCache
	memo := ti >= 0 && fp.stepUER[ti]
	if memo && c.Valid && c.ExecStamp == j.Executed {
		return c.UER
	}
	u := j.UtilityAt(now+rem/fp.fm) / (rem * fp.perCycleFM)
	if memo {
		c.UER, c.ExecStamp, c.Valid = u, j.Executed, true
	}
	return u
}

// Decide implements sched.Scheduler (Algorithm 1). It mirrors the
// literal algorithm step for step; see the file comment for the
// bit-identity argument of each replacement.
func (s *Scheduler) Decide(now float64, ready []*task.Job) sched.Decision {
	fp := &s.fp
	fp.tab.Refresh()

	// Lines 9–11: abort infeasible jobs; rank the rest by UER and, under
	// a budget, price each at its f^o.
	aborts := fp.seq.Gather(now, ready, &fp.tab)
	live := fp.seq.Live()
	if len(live) == 0 {
		return sched.Decision{Abort: aborts}
	}
	for i := range live {
		c := &live[i]
		ti := int(c.TaskPos)
		c.Key = s.fastUER(now, c.Job, ti, c.Rem)
		if s.budgetAware {
			_, perCycle := s.fo(ti, c.Job.Task)
			c.Cost = c.Rem * perCycle
		}
	}

	var jexe *task.Job
	var iters int
	if s.noUER {
		// Ablation: plain EDF order — the head is the critical-time
		// minimum, no feasibility filtering.
		jexe = live[fp.seq.Critical()[0]].Job
	} else {
		// Lines 12–18.
		jexe, iters = fp.seq.Head(now, s.strictBreak, s.rationing())
		if jexe == nil {
			return sched.Decision{Abort: aborts, Iters: iters}
		}
	}

	// Lines 19–21.
	fexe := fp.fm
	if !s.noDVS {
		fexe = s.decideFreqFast(now, jexe)
	}
	return sched.Decision{Run: jexe, Freq: fexe, Abort: aborts, Iters: iters}
}

// rationing returns the budget hook for this decision, nil without
// budget awareness. While the battery binds, work below the fleet's
// energy-weighted average UER dilutes the expected mission utility
// budget·(ΣU/ΣE): those joules are worth more on better future jobs.
func (s *Scheduler) rationing() *sched.Ration {
	if !s.budgetAware {
		return nil
	}
	r := &s.fp.ration
	*r = sched.Ration{Left: math.Inf(1), Floor: s.fleetUER}
	if s.budgetKnown {
		r.Left = s.energyBudget - s.spentEnergy
		r.Binding = s.energyConstrained(r.Left)
	}
	return r
}

// decideFreqFast is Algorithm 2, the stochastic DVS technique, over the
// core's dense per-task view: each task's earliest pending job (none
// marks an idle task) comes from a reusable array instead of a per-event
// map, entries reuse one buffer, and the deferral loop is the shared
// sched.LookAheadFrequency.
func (s *Scheduler) decideFreqFast(now float64, jexe *task.Job) float64 {
	fp := &s.fp
	if s.certifyFm(now) {
		fp.certified++
		return fp.fm
	}
	live := fp.seq.Live()

	// Dense per-task view: a task's earliest pending job is its first in
	// the critical-time order, which matches the reference's per-task
	// minimum by sched.Less.
	for ti := range fp.earliest {
		fp.earliest[ti] = -1
	}
	for _, li := range fp.seq.Critical() {
		if ti := live[li].TaskPos; ti >= 0 && fp.earliest[ti] < 0 {
			fp.earliest[ti] = li
		}
	}

	tab := &fp.tab
	entries := fp.entries[:0]
	for ti, t := range s.ctx.Tasks {
		crit, alloc := tab.Crit(ti), tab.Alloc(ti)
		if fp.earliest[ti] < 0 {
			entry := sched.LookAheadEntry{
				AbsCritical: now + crit,
				StaticUtil:  tab.MinFreq(ti),
			}
			if !s.noPhantom {
				at, count := s.nextPossibleArrival(now, ti, t)
				entry.AbsCritical = at + crit
				entry.Remaining = float64(count) * alloc
			}
			entries = append(entries, entry)
			continue
		}
		e := &live[fp.earliest[ti]]
		entries = append(entries, sched.LookAheadEntry{
			AbsCritical: e.Job.AbsCritical,
			Remaining:   s.windowedDemand(e, ti),
			StaticUtil:  tab.MinFreq(ti),
		})
		if !s.noPhantom {
			if at, count := s.nextPossibleArrival(now, ti, t); count > 0 {
				entries = append(entries, sched.LookAheadEntry{
					AbsCritical: at + crit,
					Remaining:   float64(count) * alloc,
					StaticUtil:  0,
				})
			}
		}
	}
	fp.entries = entries

	fm := fp.fm
	req := sched.LookAheadFrequency(now, fm, entries)
	if req > fm {
		req = fm
	}
	fexe := s.ctx.Freqs.ClampSelect(req)
	if !s.noFoClamp {
		if fo, _ := s.fo(tab.Pos(jexe), jexe.Task); fo > fexe {
			fexe = fo
		}
	}
	return fexe
}

// certifyFm reports whether the look-ahead would select f_m, without
// building its entries (see the file comment for the argument). D1 is
// the critical time of the first context-task job in critical-time
// order and R its task's windowed demand, the value its look-ahead entry
// carries.
func (s *Scheduler) certifyFm(now float64) bool {
	fp := &s.fp
	live := fp.seq.Live()
	for _, li := range fp.seq.Critical() {
		e := &live[li]
		ti := int(e.TaskPos)
		if ti < 0 {
			continue
		}
		d1 := e.Job.AbsCritical
		if !(d1 <= now+fp.minCrit) {
			return false
		}
		return s.windowedDemand(e, ti)/(d1-now) > fp.fmBelow
	}
	return false
}

// windowedDemand is C_i^r of the task at table position ti, whose
// earliest pending job is e: the job's remaining cycles and the
// allocations of the a_i − 1 further jobs its window may release.
func (s *Scheduler) windowedDemand(e *sched.Live, ti int) float64 {
	if s.noWindowed {
		return e.Rem
	}
	return e.Rem + float64(s.ctx.Tasks[ti].Arrival.A-1)*s.fp.tab.Alloc(ti)
}
