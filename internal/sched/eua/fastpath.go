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
// two job orders kept across decisions in place of the sorts, and an
// in-place greedy insertion that reuses the feasibility prefix sums —
// while performing floating-point operations on the same operands in the
// same order, which is what makes the results bit-identical rather than
// merely close:
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
//     composition is the unique order (UER desc, ties by sched.Less)
//     whenever no UER is NaN. The core keeps both orders across
//     decisions (keepCritical, keepUER). A job's sched.Less keys never
//     change, so the critical-time order of the jobs still live is the
//     previous decision's order with the departed jobs dropped; arrivals
//     are sorted and merged in. The UER order likewise keeps every job
//     whose UER equals the one it was ranked by, and re-places the rest:
//     for memoized step-TUF jobs at most the running job, for non-step
//     TUFs and profiled tasks every job whose UER moved. Any correct
//     ordering under a strict total order is the same permutation, so
//     the greedy visits the jobs exactly as the literal sorts would.
//     A job finds its entry in this decision's live list through the
//     LivePos hint in its SchedCache, which is written for every live job
//     before any is read and verified on every read (live[hint] is the
//     job), so a hint another instance overwrote costs nothing. Ranks are
//     positions in the critical-time order, so comparing ranks is
//     comparing with sched.Less.
//   - A NaN UER has no place in the UER order: the literal stable sort
//     leaves it where the critical-time order put it and stops lesser
//     UERs in front of it, which depends on the other jobs. The core and
//     the reference both rank it after every positive UER, and the greedy
//     never inserts it, as it never inserts a job of UER ≤ 0.
//   - Underload shortcut (edfHead): by Theorem 2 the greedy yields EDF in
//     underload. Before the greedy runs, the finish times of the
//     positive-UER jobs are replayed at f_m in the kept critical-time
//     order with the greedy's own test. If all pass, every trial the
//     greedy would make tests a subsequence of this order, whose finish
//     times cannot exceed the full order's: each term is positive and
//     rounded addition is monotone. So the greedy would insert every job,
//     its schedule is this order, and its iteration count is the number
//     of jobs. Budget rationing depends on UER order, so budget-aware
//     EUA* always runs the greedy.
//   - Greedy insertion: the literal algorithm copies the schedule and
//     re-walks Feasible(tent) per candidate. Feasible accumulates
//     t += c_j/f_m left to right, so the accumulated value before any
//     position depends only on the prefix — which insertion at i does
//     not change. The core therefore caches fin[k] (the accumulated
//     time after slot k), starts each trial at fin[i−1], and replays
//     only the candidate and the suffix: the same additions on the same
//     floats as Feasible(tent). rem/f_m and X + 1e-12·X are computed once
//     per job per decision, the same expressions on the same operands.
//     Prefix checks are implied by the invariant that the current
//     schedule passed its own checks with unchanged fin values.
//   - decideFreq builds its look-ahead entries in ctx.Tasks order and
//     calls sched.LookAheadFrequency on one reusable buffer; the
//     deferral loop's sort permutes entries with equal critical times
//     exactly as the literal sort.Slice version did, so the summation
//     order — and the float — is unchanged. A task's earliest pending job
//     is its first job in the kept critical-time order.
//   - The UAM release history is a fixed ring of the last a_i release
//     times per task (uam.Window, shared with the engine's watchdog)
//     instead of a re-sliced, re-appended slice: the same values, read
//     oldest first.
//
// Under partitioning, one engine run holds several instances of this
// core, one per core, and their jobs share the SchedCache slot. Each job
// is decided by its own core's instance only.
package eua

import (
	"math"
	"slices"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// fastState holds the core's per-task caches, release history, the two
// job orders kept across decisions and reusable scratch buffers. It lives
// inside Scheduler and is populated by initFast.
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

	// The orders kept across decisions: the live jobs of the last
	// decision in sched.Less order, and the positive-UER live jobs of the
	// last greedy in (UER desc, sched.Less) order with the UERs they were
	// ranked by.
	critJobs []*task.Job
	uerJobs  []*task.Job
	uerKeys  []float64

	// Scratch buffers reused across events (never escape into Decisions),
	// sized at Init from Σ a_i, the UAM bound on live jobs under abortion.
	live     []liveJob
	crit     []int32 // live indices in critical-time order
	byUER    []int32 // positive-UER live indices in UER order
	add      []int32 // live indices to merge into crit or byUER
	tent     []slot  // the greedy's tentative schedule
	earliest []int32 // per task: live index of earliest pending job, -1 none
	pending  []int32 // per task: pending job count
	entries  []sched.LookAheadEntry
}

// liveJob is one job of a decision's live list with the values every
// reader of the kept orders needs.
type liveJob struct {
	j    *task.Job
	rem  float64 // EstimatedRemaining
	uer  float64
	dur  float64 // rem/f_m
	thr  float64 // feasibility threshold X + 1e-12·X
	ti   int32   // table position, -1 outside the table
	rank int32   // position in the critical-time order, -1 until placed
	// inUER marks a job the kept UER order still holds at its place.
	inUER bool
}

// slot is one job of the greedy's tentative schedule: its rem/f_m and
// threshold, fin (the accumulated time after it), its critical-time rank
// and its live index.
type slot struct {
	dur, thr, fin float64
	rank, i       int32
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
	s.fp = fastState{
		fm:           fm,
		perCycleFM:   s.ctx.Energy.PerCycle(fm),
		tab:          sched.NewTaskTable(ts),
		foFreq:       make([]float64, n),
		foCost:       make([]float64, n),
		stepUER:      make([]bool, n),
		arrivals:     make([]uam.Window, n),
		allCacheable: true,
		critJobs:     make([]*task.Job, 0, window),
		uerJobs:      make([]*task.Job, 0, window),
		uerKeys:      make([]float64, 0, window),
		live:         make([]liveJob, 0, window),
		crit:         make([]int32, 0, window),
		byUER:        make([]int32, 0, window),
		add:          make([]int32, 0, window),
		tent:         make([]slot, 0, window),
		earliest:     make([]int32, n),
		pending:      make([]int32, n),
		entries:      make([]sched.LookAheadEntry, 0, 2*n),
	}
	fp := &s.fp
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

// liveIndex returns j's index in this decision's live list, or -1 when j
// is not live. It reads the LivePos hint, which decideFast writes for
// every live job before any order is repaired, and verifies it.
func (fp *fastState) liveIndex(j *task.Job) int32 {
	if p := j.SchedCache.LivePos; uint(p) < uint(len(fp.live)) && fp.live[p].j == j {
		return p
	}
	return -1
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
	live := fp.live[:0]
	var aborts []*task.Job
	for _, j := range ready {
		ti := tab.Pos(j)
		r := tab.Remaining(j, ti)
		d, thr := r/fm, j.Termination+1e-12*j.Termination
		if now+d > thr {
			j.AbortReason = "infeasible at f_m"
			aborts = append(aborts, j)
			continue
		}
		j.SchedCache.LivePos = int32(len(live))
		live = append(live, liveJob{
			j: j, rem: r, uer: s.fastUER(now, j, ti, r), dur: d, thr: thr,
			ti: int32(ti), rank: -1,
		})
	}
	fp.live = live
	s.keepCritical()
	if len(live) == 0 {
		return sched.Decision{Abort: aborts}
	}

	var jexe *task.Job
	if s.noUER {
		// Ablation: plain EDF order — the head is the critical-time
		// minimum, no feasibility filtering.
		jexe = live[fp.crit[0]].j
	} else {
		jexe = s.greedyHeadFast(now)
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

// keepCritical repairs the kept critical-time order for this decision:
// it drops the jobs that left the live list, merges the arrivals in,
// and ranks every live job by its position.
func (s *Scheduler) keepCritical() {
	fp := &s.fp
	live := fp.live
	crit := fp.crit[:0]
	for _, j := range fp.critJobs {
		if p := fp.liveIndex(j); p >= 0 {
			live[p].rank = 0
			crit = append(crit, p)
		}
	}
	if len(crit) < len(live) {
		add := fp.add[:0]
		for i := range live {
			if live[i].rank < 0 {
				add = append(add, int32(i))
			}
		}
		crit = mergeSorted(crit, add, func(a, b int32) bool { return sched.Less(live[a].j, live[b].j) })
		fp.add = add
	}
	critJobs := fp.critJobs[:0]
	for r, i := range crit {
		live[i].rank = int32(r)
		critJobs = append(critJobs, live[i].j)
	}
	fp.crit, fp.critJobs = crit, critJobs
}

// keepUER repairs the kept UER order for this decision: it keeps the
// jobs still live whose UER is the one they were ranked by, and merges
// in every other positive-UER live job.
func (s *Scheduler) keepUER() {
	fp := &s.fp
	live := fp.live
	byUER := fp.byUER[:0]
	for k, j := range fp.uerJobs {
		if p := fp.liveIndex(j); p >= 0 && live[p].uer == fp.uerKeys[k] {
			live[p].inUER = true
			byUER = append(byUER, p)
		}
	}
	add := fp.add[:0]
	for i := range live {
		if live[i].uer > 0 && !live[i].inUER {
			add = append(add, int32(i))
		}
	}
	if len(add) > 0 {
		byUER = mergeSorted(byUER, add, func(a, b int32) bool {
			ua, ub := live[a].uer, live[b].uer
			return ua > ub || ua == ub && live[a].rank < live[b].rank
		})
	}
	uerJobs, uerKeys := fp.uerJobs[:0], fp.uerKeys[:0]
	for _, i := range byUER {
		uerJobs = append(uerJobs, live[i].j)
		uerKeys = append(uerKeys, live[i].uer)
	}
	fp.byUER, fp.add, fp.uerJobs, fp.uerKeys = byUER, add, uerJobs, uerKeys
}

// mergeSorted sorts add by before, a strict total order, and merges it
// into dst, already sorted by before. Each element of add finds its
// place by binary search, and every element of dst moves at most once.
func mergeSorted(dst, add []int32, before func(a, b int32) bool) []int32 {
	slices.SortFunc(add, func(a, b int32) int {
		if before(a, b) {
			return -1
		}
		return 1
	})
	hi := len(dst)
	dst = append(dst, add...)
	w := len(dst)
	for k := len(add) - 1; k >= 0; k-- {
		a := add[k]
		// lo: the first position of dst[:hi] whose element follows a.
		lo, h := 0, hi
		for lo < h {
			mid := int(uint(lo+h) >> 1)
			if before(a, dst[mid]) {
				h = mid
			} else {
				lo = mid + 1
			}
		}
		w -= hi - lo
		copy(dst[w:], dst[lo:hi])
		hi = lo
		w--
		dst[w] = a
	}
	return dst
}

// greedyHeadFast runs Algorithm 1 lines 12–18 over fp.live and returns the
// head of the resulting feasible schedule (nil if it is empty): jobs are
// drawn in the kept UER order and inserted at their critical-time
// position when the schedule stays feasible at f_m. Without budget
// rationing it first tries edfHead, which settles the decisions where the
// greedy would insert every positive-UER job.
func (s *Scheduler) greedyHeadFast(now float64) *task.Job {
	if !s.budgetAware {
		if head, n, ok := s.edfHead(now); ok {
			s.ins.FeasibilityIterations(n)
			return head
		}
	}
	s.keepUER()
	fp := &s.fp
	live := fp.live

	tent := fp.tent[:0]
	committed := 0.0
	budgetLeft := math.Inf(1)
	constrained := false
	if s.budgetAware && s.budgetKnown {
		budgetLeft = s.energyBudget - s.spentEnergy
		constrained = s.energyConstrained(budgetLeft)
	}
	iters := 0
	for _, idx := range fp.byUER {
		c := &live[idx]
		cost := 0.0
		if s.budgetAware {
			_, perCycle := s.fo(int(c.ti), c.j.Task)
			cost = c.rem * perCycle
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
			if constrained && c.uer < s.fleetUER {
				continue
			}
		}
		iters++
		// Insertion position: first slot whose job follows c in the
		// critical-time total order (sort.Search semantics of
		// InsertByCritical), by rank.
		lo, hi := 0, len(tent)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if c.rank < tent[mid].rank {
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
			t = tent[i-1].fin
		}
		t += c.dur
		ok := !(t > c.thr)
		for k := i; ok && k < len(tent); k++ {
			t += tent[k].dur
			ok = !(t > tent[k].thr)
		}
		if ok {
			tent = slices.Insert(tent, i, slot{dur: c.dur, thr: c.thr, rank: c.rank, i: idx})
			t = now
			if i > 0 {
				t = tent[i-1].fin
			}
			for k := i; k < len(tent); k++ {
				t += tent[k].dur
				tent[k].fin = t
			}
			committed += cost
		} else if s.strictBreak {
			break
		}
	}
	fp.tent = tent
	s.ins.FeasibilityIterations(iters)
	if len(tent) == 0 {
		return nil
	}
	return live[tent[0].i].j
}

// edfHead is the underload shortcut of greedyHeadFast (Theorem 2: in
// underload the greedy yields EDF). It replays the finish times of the
// positive-UER live jobs at f_m in the kept critical-time order with the
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
func (s *Scheduler) edfHead(now float64) (head *task.Job, n int, ok bool) {
	live := s.fp.live
	t := now
	for _, i := range s.fp.crit {
		c := &live[i]
		if !(c.uer > 0) {
			continue
		}
		t += c.dur
		if t > c.thr {
			return nil, 0, false
		}
		if n == 0 {
			head = c.j
		}
		n++
	}
	return head, n, true
}

// decideFreqFast is Algorithm 2, the stochastic DVS technique, over the
// core's dense per-task view: earliest pending job and pending count per
// task come from two reusable arrays instead of a per-event map, entries
// reuse one buffer, and the deferral loop is the shared
// sched.LookAheadFrequency.
func (s *Scheduler) decideFreqFast(now float64, jexe *task.Job) float64 {
	fp := &s.fp
	live := fp.live

	// Dense per-task view: a task's earliest pending job is its first in
	// the critical-time order, which matches the reference's per-task
	// minimum by sched.Less.
	for ti := range fp.earliest {
		fp.earliest[ti] = -1
		fp.pending[ti] = 0
	}
	for _, li := range fp.crit {
		ti := live[li].ti
		if ti < 0 {
			continue
		}
		if fp.earliest[ti] < 0 {
			fp.earliest[ti] = li
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
		e := &live[fp.earliest[ti]]
		remaining := e.rem + float64(t.Arrival.A-1)*alloc
		if s.noWindowed {
			remaining = e.rem
		}
		entries = append(entries, sched.LookAheadEntry{
			AbsCritical: e.j.AbsCritical,
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
