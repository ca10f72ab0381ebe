// The incremental EUA* core: Decide's one implementation. It makes
// exactly the decisions of the literal Algorithm 1/2 reference, which
// lives on in reference_test.go as the test oracle: the differential
// suite (differential_test.go) runs both over hundreds of seed-derived
// workloads, uniprocessor and partitioned, and requires bit-identical
// results. This comment records why the identity holds analytically.
//
// The literal algorithm is O(n²) in ready jobs with an O(√)-heavy inner
// loop: every feasibility probe re-derives each task's Cantelli cycle
// allocation (a square root), every insertion trial copies the tentative
// schedule, and every event rebuilds a pointer-keyed per-task map and two
// sorts. The core replaces all of that with dense per-task caches
// computed once at Init, per-job UER memoization with lazy invalidation,
// an indexed max-heap in place of the sorts, and an in-place greedy
// insertion that reuses the feasibility prefix sums — while performing
// floating-point operations on the same operands in the same order, which
// is what makes the results bit-identical rather than merely close:
//
//   - Cycle allocations c_i = Cantelli(E, Var, ρ) are pure functions of
//     the task's effective demand moments. For tasks without an online
//     Profiler the moments never change, so the allocation is derived
//     once at Init; recomputing it would produce the same float, hence
//     every expression consuming it is unchanged. Tasks WITH a profiler
//     get the allocation recomputed once per scheduling event (the
//     moments only move between events, when the engine observes a
//     completion). The allocations, D_i (critical time) and the Theorem 1
//     bound C_i/D_i live in sched.TaskTable, the per-task table the
//     baselines read too; a job finds its task's row through a verified
//     slot in its SchedCache instead of hashing the task ID.
//   - E(f_m), f^o_i and E(f^o_i) are likewise pure and cached.
//   - UER(now, j) = U_J(now + c/f_m) / (c · E(f_m)) is memoized per job
//     for step TUFs: Step.Utility is Height everywhere on [0, Deadline]
//     and UtilityAt clamps the ≤1e-9-relative boundary overshoot, so
//     every job that passes JobFeasible evaluates to exactly Height —
//     making the ratio independent of now while the job's Executed
//     cycles (and hence c) are unchanged. The memo is invalidated by
//     comparing the stored Executed stamp. Non-step TUFs genuinely
//     depend on now and are recomputed every event.
//   - The literal algorithm sorts live jobs by critical time (a total
//     order: AbsCritical, Arrival, Task.ID, Index) and then stable-sorts
//     by UER descending. Because the underlying order is total, the
//     composition is the unique order (UER desc, ties by sched.Less);
//     popping an indexed max-heap with exactly that comparator yields
//     the identical permutation without allocating.
//   - Underload shortcut (edfHead): by Theorem 2 the greedy yields EDF in
//     underload. Before the greedy runs, the positive-UER jobs are sorted
//     by sched.Less and their finish times replayed at f_m with the
//     greedy's own test. If all pass, every trial the greedy would make
//     tests a subsequence of this order, whose finish times cannot exceed
//     the full order's: each term is positive and rounded addition is
//     monotone. So the greedy would insert every job, its schedule is
//     this order, and its iteration count is the number of jobs. Budget
//     rationing depends on UER order, so budget-aware EUA* always runs
//     the greedy. The screen and the split replay in edfHead only make
//     a failing replay cheaper; they never change its verdict.
//   - Greedy insertion: the literal algorithm copies the schedule and
//     re-walks Feasible(tent) per candidate. Feasible accumulates
//     t += c_j/f_m left to right, so the accumulated value before any
//     position depends only on the prefix — which insertion at i does
//     not change. The core therefore caches fin[k] (the accumulated
//     time after slot k), starts each trial at fin[i−1], and replays
//     only the candidate and the suffix: the same additions on the same
//     floats as Feasible(tent). Prefix checks are implied by the
//     invariant that the current schedule passed its own checks with
//     unchanged fin values.
//   - decideFreq builds its look-ahead entries in ctx.Tasks order and
//     calls sched.LookAheadFrequency on one reusable buffer; the
//     deferral loop's sort permutes entries with equal critical times
//     exactly as the literal sort.Slice version did, so the summation
//     order — and the float — is unchanged.
//   - The UAM release history is a fixed ring of the last a_i release
//     times per task (uam.Window, shared with the engine's watchdog)
//     instead of a re-sliced, re-appended slice: the same values, read
//     oldest first.
package eua

import (
	"math"
	"slices"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// fastState holds the core's per-task caches, release history and
// reusable scratch buffers. It lives inside Scheduler and is populated by
// initFast.
type fastState struct {
	fm         float64 // f_m, the highest table frequency
	perCycleFM float64 // E(f_m), cached (pure in the model coefficients)

	// tab is the per-task table every scheduler shares: positions in
	// ctx.Tasks, c_i, C_i/D_i and D_i.
	tab sched.TaskTable

	// EUA*'s own per-task rows, by table position.
	foFreq   []float64 // f^o_i
	foCost   []float64 // E(f^o_i)
	stepUER  []bool    // step TUF, no profiler: UER memoizable per job
	arrivals []uam.Window

	// energyConstrained cache, valid when no ctx task has a profiler.
	allCacheable bool
	ecRate       float64
	ecMaxP       float64

	// Scratch buffers reused across events (never escape into Decisions).
	live     []*task.Job
	liveTi   []int32   // table position per live job, -1 outside the table
	rem      []float64 // EstimatedRemaining per live job
	uer      []float64 // UER per live job
	edf      []edfSlot // positive-UER live jobs in critical-time order
	heap     []int32   // indexed max-heap over live
	order    []*task.Job
	orderRem []float64
	fin      []float64 // fin[k]: accumulated time after executing order[..k]
	earliest []int32   // per task: live index of earliest pending job, -1 none
	pending  []int32   // per task: pending job count
	entries  []sched.LookAheadEntry
}

// initFast populates the caches. Called at the end of Init.
func (s *Scheduler) initFast() {
	ts := s.ctx.Tasks
	n := len(ts)
	fm := s.ctx.Freqs.Max()
	s.fp = fastState{
		fm:           fm,
		perCycleFM:   s.ctx.Energy.PerCycle(fm),
		tab:          sched.NewTaskTable(ts),
		foFreq:       make([]float64, n),
		foCost:       make([]float64, n),
		stepUER:      make([]bool, n),
		arrivals:     make([]uam.Window, n),
		allCacheable: true,
		earliest:     make([]int32, n),
		pending:      make([]int32, n),
	}
	fp := &s.fp
	window := 0
	for _, t := range ts {
		window += t.Arrival.A
	}
	history := make([]float64, window)
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
	fp := &s.fp
	if ti >= 0 && fp.stepUER[ti] {
		c := &j.SchedCache
		if c.Valid && c.ExecStamp == j.Executed {
			return c.UER
		}
		u := j.UtilityAt(now+rem/fp.fm) / (rem * fp.perCycleFM)
		c.UER, c.ExecStamp, c.Valid = u, j.Executed, true
		return u
	}
	return j.UtilityAt(now+rem/fp.fm) / (rem * fp.perCycleFM)
}

// heapLess orders live indices by UER descending, breaking exact ties by
// the critical-time total order — the composition of the literal
// algorithm's critical-time sort and stable UER sort.
func (s *Scheduler) heapLess(a, b int32) bool {
	ua, ub := s.fp.uer[a], s.fp.uer[b]
	if ua != ub {
		return ua > ub
	}
	return sched.Less(s.fp.live[a], s.fp.live[b])
}

func (s *Scheduler) heapDown(i int) {
	h := s.fp.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && s.heapLess(h[r], h[l]) {
			best = r
		}
		if !s.heapLess(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// heapInit builds the max-heap over all live indices.
func (s *Scheduler) heapInit(n int) {
	h := s.fp.heap[:0]
	for i := 0; i < n; i++ {
		h = append(h, int32(i))
	}
	s.fp.heap = h
	for i := n/2 - 1; i >= 0; i-- {
		s.heapDown(i)
	}
}

// heapPop removes and returns the highest-priority live index.
func (s *Scheduler) heapPop() int32 {
	h := s.fp.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.fp.heap = h[:last]
	s.heapDown(0)
	return top
}

// decideFast is Decide's body (Algorithm 1). It mirrors the literal
// algorithm step for step; see the file comment for the bit-identity
// argument of each replacement.
func (s *Scheduler) decideFast(now float64, ready []*task.Job) sched.Decision {
	fp := &s.fp
	tab := &fp.tab
	tab.Refresh()
	fm := fp.fm

	// Lines 9–11: abort infeasible jobs; gather the rest with their
	// remaining-cycle estimates and UERs. Aborts are rare and escape into
	// the Decision, so they are allocated fresh; everything else reuses
	// scratch.
	live, liveTi := fp.live[:0], fp.liveTi[:0]
	rem, uer := fp.rem[:0], fp.uer[:0]
	var aborts []*task.Job
	for _, j := range ready {
		ti := tab.Pos(j)
		r := tab.Remaining(j, ti)
		if now+r/fm > j.Termination+1e-12*j.Termination {
			j.AbortReason = "infeasible at f_m"
			aborts = append(aborts, j)
			continue
		}
		live = append(live, j)
		liveTi = append(liveTi, int32(ti))
		rem = append(rem, r)
		uer = append(uer, s.fastUER(now, j, ti, r))
	}
	fp.live, fp.liveTi, fp.rem, fp.uer = live, liveTi, rem, uer
	if len(live) == 0 {
		return sched.Decision{Abort: aborts}
	}

	var jexe *task.Job
	if s.noUER {
		// Ablation: plain EDF order — the head is the critical-time
		// minimum, no feasibility filtering.
		jexe = live[0]
		for _, j := range live[1:] {
			if sched.Less(j, jexe) {
				jexe = j
			}
		}
	} else {
		jexe = s.greedyHeadFast(now, fm)
		if jexe == nil {
			return sched.Decision{Abort: aborts}
		}
	}

	// Lines 19–21.
	fexe := fm
	if !s.noDVS {
		fexe = s.decideFreqFast(now, jexe)
	}
	return sched.Decision{Run: jexe, Freq: fexe, Abort: aborts}
}

// greedyHeadFast runs Algorithm 1 lines 12–18 over fp.live and returns the
// head of the resulting feasible schedule (nil if it is empty): jobs are
// drawn from the UER max-heap and inserted at their critical-time position
// when the schedule stays feasible at f_m. Without budget rationing it
// first tries edfHead, which settles the decisions where the greedy would
// insert every positive-UER job.
func (s *Scheduler) greedyHeadFast(now, fm float64) *task.Job {
	if !s.budgetAware {
		if head, n, ok := s.edfHead(now, fm); ok {
			s.ins.FeasibilityIterations(n)
			return head
		}
	}
	fp := &s.fp
	live, rem, uer := fp.live, fp.rem, fp.uer
	s.heapInit(len(live))

	order, orderRem, fin := fp.order[:0], fp.orderRem[:0], fp.fin[:0]
	committed := 0.0
	budgetLeft := math.Inf(1)
	constrained := false
	if s.budgetAware && s.budgetKnown {
		budgetLeft = s.energyBudget - s.spentEnergy
		constrained = s.energyConstrained(budgetLeft)
	}
	iters := 0
	for len(fp.heap) > 0 {
		idx := s.heapPop()
		if uer[idx] <= 0 {
			break // heap order: no later job has positive UER
		}
		j := live[idx]
		cost := 0.0
		if s.budgetAware {
			_, perCycle := s.fo(int(fp.liveTi[idx]), j.Task)
			cost = rem[idx] * perCycle
			if committed+cost > budgetLeft {
				// The battery cannot pay for this job on top of the
				// higher-UER work already committed: ration it out (it
				// stays pending and may abort at its termination).
				continue
			}
			// While the battery binds, expected mission utility is
			// budget·(ΣU/ΣE): spending on work below the fleet's
			// energy-weighted average utility-per-energy dilutes it —
			// those joules are worth more on the better tasks' future
			// jobs.
			if constrained && uer[idx] < s.fleetUER {
				continue
			}
		}
		iters++
		// Insertion position: first slot whose job follows j in the
		// critical-time total order (sort.Search semantics of
		// InsertByCritical).
		lo, hi := 0, len(order)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if sched.Less(j, order[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		i := lo
		// Feasibility trial: replay Feasible(tent) from the unchanged
		// prefix sum, visiting only the candidate and the suffix.
		t := now
		if i > 0 {
			t = fin[i-1]
		}
		t += rem[idx] / fm
		ok := !(t > j.Termination+1e-12*j.Termination)
		if ok {
			for k := i; k < len(order); k++ {
				t += orderRem[k] / fm
				if t > order[k].Termination+1e-12*order[k].Termination {
					ok = false
					break
				}
			}
		}
		if ok {
			order = append(order, nil)
			copy(order[i+1:], order[i:])
			order[i] = j
			orderRem = append(orderRem, 0)
			copy(orderRem[i+1:], orderRem[i:])
			orderRem[i] = rem[idx]
			fin = append(fin, 0)
			t = now
			if i > 0 {
				t = fin[i-1]
			}
			for k := i; k < len(order); k++ {
				t += orderRem[k] / fm
				fin[k] = t
			}
			committed += cost
		} else if s.strictBreak {
			break
		}
	}
	fp.order, fp.orderRem, fp.fin = order, orderRem, fin
	s.ins.FeasibilityIterations(iters)
	if len(order) == 0 {
		return nil
	}
	return order[0]
}

// edfHead is the underload shortcut of greedyHeadFast (Theorem 2: in
// underload the greedy yields EDF). It sorts the positive-UER live jobs
// into critical-time order and replays their finish times at f_m with the
// greedy's own test. If every job passes, the greedy would insert every
// one of them, so its schedule is this order: edfHead returns the head
// and the greedy's iteration count, one per positive-UER job, with ok
// set. Otherwise ok is false and the greedy must decide.
//
// Every schedule the greedy tests is a subsequence of this order. Its
// finish times accumulate the same rem/f_m terms, and the order adds
// further positive terms between them; rounded addition is monotone, so
// no finish time in a subsequence exceeds the same job's finish time
// here. Hence each of the greedy's trials passes whenever this replay
// does, with or without the strict break.
func (s *Scheduler) edfHead(now, fm float64) (head *task.Job, n int, ok bool) {
	fp := &s.fp
	live, rem := fp.live, fp.rem
	edf := fp.edf[:0]
	// work and latest screen out overloads before the sort: when the
	// summed work overruns the latest threshold, the replay cannot pass
	// (up to rounding, which can only send a passing replay on to the
	// greedy).
	work, latest := now, 0.0
	first, last := math.Inf(1), math.Inf(-1)
	for i, u := range fp.uer {
		if u > 0 {
			j := live[i]
			thr := j.Termination + 1e-12*j.Termination
			edf = append(edf, edfSlot{crit: j.AbsCritical, thr: thr, i: int32(i)})
			work += rem[i] / fm
			latest = max(latest, thr)
			first, last = min(first, j.AbsCritical), max(last, j.AbsCritical)
		} else if math.IsNaN(u) {
			return nil, 0, false // no UER order to reason about
		}
	}
	fp.edf = edf
	if len(edf) == 0 {
		return nil, 0, true
	}
	if work > latest {
		return nil, 0, false
	}
	// The replay sorts and checks the jobs critical within the first
	// eighth of the span before it sorts the rest: they are exactly the
	// head of the order, and an overload usually shows among them.
	cut := first + (last-first)/8
	k := 0
	for i := range edf {
		if edf[i].crit <= cut {
			edf[i], edf[k] = edf[k], edf[i]
			k++
		}
	}
	// sched.Less is a total order on distinct jobs, so "not before" is
	// "after".
	byCritical := func(a, b edfSlot) int {
		if a.crit < b.crit || a.crit == b.crit && sched.Less(live[a.i], live[b.i]) {
			return -1
		}
		return 1
	}
	t := now
	for _, part := range [2][]edfSlot{edf[:k], edf[k:]} {
		slices.SortFunc(part, byCritical)
		for _, e := range part {
			t += rem[e.i] / fm
			if t > e.thr {
				return nil, 0, false
			}
		}
	}
	return live[edf[0].i], len(edf), true
}

// edfSlot is one job of edfHead's replay: its live index, its absolute
// critical time (the first key of sched.Less, inline for the sort) and
// its feasibility threshold X + 1e-12·X.
type edfSlot struct {
	crit, thr float64
	i         int32
}

// decideFreqFast is Algorithm 2, the stochastic DVS technique, over the
// core's dense per-task view: earliest pending job and pending count per
// task come from two reusable arrays instead of a per-event map, entries
// reuse one buffer, and the deferral loop is the shared
// sched.LookAheadFrequency.
func (s *Scheduler) decideFreqFast(now float64, jexe *task.Job) float64 {
	fp := &s.fp
	live, liveTi, rem := fp.live, fp.liveTi, fp.rem

	// Dense per-task view: minimum by the critical-time total order is
	// iteration-order independent, so this matches the reference's
	// per-task map.
	for ti := range fp.earliest {
		fp.earliest[ti] = -1
		fp.pending[ti] = 0
	}
	for li, j := range live {
		ti := liveTi[li]
		if ti < 0 {
			continue
		}
		if e := fp.earliest[ti]; e < 0 || sched.Less(j, live[e]) {
			fp.earliest[ti] = int32(li)
		}
		fp.pending[ti]++
	}

	tab := &fp.tab
	entries := fp.entries[:0]
	for ti, t := range s.ctx.Tasks {
		crit, alloc := tab.Crit(ti), tab.Alloc(ti)
		if fp.pending[ti] == 0 {
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
		e := fp.earliest[ti]
		remaining := rem[e] + float64(t.Arrival.A-1)*alloc
		if s.noWindowed {
			remaining = rem[e]
		}
		entries = append(entries, sched.LookAheadEntry{
			AbsCritical: live[e].AbsCritical,
			Remaining:   remaining,
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
