package sched

import (
	"slices"
	"sort"

	"github.com/euastar/euastar/internal/task"
)

// Sequencer is Algorithm 1's schedule construction (lines 9–18), the one
// EUA*, DASA and GUS share. A decision is three calls: Gather aborts the
// jobs infeasible at f_m and collects the rest as the live list; the
// caller writes each live job's Key (EUA* its UER, DASA and GUS its
// potential utility density) and, for the budget hook, its Cost; Head
// inserts the jobs greedily, highest key first, at their critical-time
// positions while the schedule stays feasible at f_m, and returns the
// schedule's head and its feasibility iterations.
//
// It makes exactly the decisions of the literal loop — ByCriticalTime,
// a stable sort by key descending, then InsertByCritical and Feasible
// per candidate of positive key, which the reference schedulers keep as
// the oracle — with floating-point operations on the same operands in
// the same order (see Head and EDFHead for the schedule itself):
//
//   - With no NaN key, the literal sorts compose to the unique order
//     (key desc, ties by Less), as Less is a strict total order. The
//     Sequencer keeps both orders across decisions (keepCritical,
//     keepKey). A job's Less keys never change, so the critical-time
//     order of the jobs still live is the last decision's with the
//     departed dropped and the arrivals merged in; the key order keeps
//     every job whose key is the one it was ranked by and re-places the
//     rest. A job finds its entry in the live list through the LivePos
//     hint in its SchedCache, which Gather writes for every live job
//     before any is read and which is verified on every read, so a hint
//     another instance overwrote costs time, never correctness. Ranks are
//     positions in the critical-time order, so comparing ranks is
//     comparing with Less.
//   - A NaN key has no place in the key order: a stable sort would leave
//     it where the critical-time order put it and hold lesser keys behind
//     it. It ranks after every positive key, is never inserted and counts
//     no iteration, as a key ≤ 0; the reference schedulers map it to −∞.
//
// Under partitioning, one engine run holds one Sequencer per core, and
// each job is gathered by its own core's only.
type Sequencer struct {
	fm float64

	// The orders kept across decisions: the live jobs of the last
	// decision in Less order, and the positive-key live jobs of the last
	// greedy in (key desc, Less) order with the keys they were ranked by.
	critJobs []*task.Job
	keyJobs  []*task.Job
	keys     []float64

	// Scratch buffers reused across decisions.
	live  []Live
	crit  []int32 // live indices in critical-time order
	byKey []int32 // positive-key live indices in key order
	add   []int32 // live indices to merge into crit or byKey
	tent  []slot  // the greedy's tentative schedule

	exits int // greedy runs that stopped once their head was fixed
}

// Live is one job of a decision's live list. Gather fills Job, Rem and
// TaskPos; the caller writes Key, and Cost when it passes Head a Ration.
type Live struct {
	Job     *task.Job
	Rem     float64 // EstimatedRemaining, c_i from the task table
	TaskPos int32   // table position, -1 outside the table
	Key     float64 // higher is tried first; ≤ 0 or NaN is never inserted
	Cost    float64 // the energy the job would spend, for Ration

	dur   float64 // rem/f_m
	thr   float64 // feasibility threshold X + 1e-12·X
	rank  int32   // position in the critical-time order, -1 until placed
	inKey bool    // the kept key order still holds the job at its place
}

// slot is one job of the greedy's tentative schedule: its rem/f_m and
// threshold, fin (the accumulated time after it), its critical-time rank
// and its live index.
type slot struct {
	dur, thr, fin float64
	rank, i       int32
}

// Ration is Head's budget hook, EUA*'s rationing of a finite energy
// budget. Under a Ration a candidate is passed over, counting no
// iteration, when its Cost on top of the Costs of the jobs already
// inserted exceeds Left, or when Binding is set and its Key is below
// Floor.
type Ration struct {
	Left    float64 // the energy the budget has left, +Inf while unknown
	Binding bool    // the budget binds: admit no key below Floor
	Floor   float64
}

// NewSequencer returns a Sequencer for decisions at f_m = fm, its
// buffers sized from Σ a_i over ts, the UAM bound on live jobs. Buffers
// of one type are carved from one array, each capped at its own length,
// so a buffer that outgrows it moves rather than overrun its neighbour.
func NewSequencer(fm float64, ts task.Set) Sequencer {
	window := 0
	for _, t := range ts {
		window += t.Arrival.A
	}
	jobs := make([]*task.Job, 2*window)
	idx := make([]int32, 3*window)
	return Sequencer{
		fm:       fm,
		critJobs: jobs[:0:window],
		keyJobs:  jobs[window : window : 2*window],
		keys:     make([]float64, 0, window),
		live:     make([]Live, 0, window),
		crit:     idx[:0:window],
		byKey:    idx[window : window : 2*window],
		add:      idx[2*window : 2*window : 3*window],
		tent:     make([]slot, 0, window),
	}
}

// Gather opens a decision at time now (Algorithm 1 lines 9–10): it
// aborts each ready job that could not finish by its termination time
// even alone at f_m, and collects the rest, with c_i read from tab, as
// the live list. The aborts escape into the Decision.
func (q *Sequencer) Gather(now float64, ready []*task.Job, tab *TaskTable) (aborts []*task.Job) {
	fm := q.fm
	live := q.live[:0]
	for _, j := range ready {
		ti := tab.Pos(j)
		r := tab.Remaining(j, ti)
		d, thr := r/fm, j.Termination+1e-12*j.Termination
		if !(now+d <= thr) {
			j.AbortReason = AbortInfeasible
			aborts = append(aborts, j)
			continue
		}
		j.SchedCache.LivePos = int32(len(live))
		live = append(live, Live{Job: j, Rem: r, TaskPos: int32(ti), dur: d, thr: thr, rank: -1})
	}
	q.live = live
	q.keepCritical()
	return aborts
}

// Live returns the live list of the decision Gather opened.
func (q *Sequencer) Live() []Live { return q.live }

// Critical returns the live list's indices in critical-time order.
func (q *Sequencer) Critical() []int32 { return q.crit }

// liveIndex returns j's index in this decision's live list, or -1 when j
// is not live, from its verified LivePos hint.
func (q *Sequencer) liveIndex(j *task.Job) int32 {
	if p := j.SchedCache.LivePos; uint(p) < uint(len(q.live)) && q.live[p].Job == j {
		return p
	}
	return -1
}

// keepCritical repairs the kept critical-time order for this decision:
// it drops the jobs that left the live list, merges the arrivals in,
// and ranks every live job by its position.
func (q *Sequencer) keepCritical() {
	live := q.live
	crit := q.crit[:0]
	for _, j := range q.critJobs {
		if p := q.liveIndex(j); p >= 0 {
			live[p].rank = 0
			crit = append(crit, p)
		}
	}
	if len(crit) < len(live) {
		add := q.add[:0]
		for i := range live {
			if live[i].rank < 0 {
				add = append(add, int32(i))
			}
		}
		crit = mergeSorted(crit, add, func(a, b int32) bool { return Less(live[a].Job, live[b].Job) })
		q.add = add
	}
	critJobs := q.critJobs[:0]
	for r, i := range crit {
		live[i].rank = int32(r)
		critJobs = append(critJobs, live[i].Job)
	}
	q.crit, q.critJobs = crit, critJobs
}

// keepKey repairs the kept key order for this decision: it keeps the
// jobs still live whose key is the one they were ranked by, and merges
// in every other positive-key live job.
func (q *Sequencer) keepKey() {
	live := q.live
	byKey := q.byKey[:0]
	for k, j := range q.keyJobs {
		if p := q.liveIndex(j); p >= 0 && live[p].Key == q.keys[k] {
			live[p].inKey = true
			byKey = append(byKey, p)
		}
	}
	add := q.add[:0]
	for i := range live {
		if live[i].Key > 0 && !live[i].inKey {
			add = append(add, int32(i))
		}
	}
	if len(add) > 0 {
		byKey = mergeSorted(byKey, add, func(a, b int32) bool {
			ka, kb := live[a].Key, live[b].Key
			return ka > kb || ka == kb && live[a].rank < live[b].rank
		})
	}
	keyJobs, keys := q.keyJobs[:0], q.keys[:0]
	for _, i := range byKey {
		keyJobs = append(keyJobs, live[i].Job)
		keys = append(keys, live[i].Key)
	}
	q.byKey, q.add, q.keyJobs, q.keys = byKey, add, keyJobs, keys
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
		lo := sort.Search(hi, func(m int) bool { return before(a, dst[m]) })
		w -= hi - lo
		copy(dst[w:], dst[lo:hi])
		hi = lo
		w--
		dst[w] = a
	}
	return dst
}

// Head runs Algorithm 1 lines 12–18 over the live list and returns the
// head of the resulting feasible schedule (nil if it is empty) and the
// number of feasibility iterations, one per candidate tried. With
// strict, the greedy stops at the first candidate that does not fit (a
// literal reading of line 18) instead of passing over it. Without a
// Ration it first tries EDFHead; rationing passes jobs over by their
// place in the key order, so a Ration always runs the greedy.
//
// The literal loop copies the schedule and re-walks Feasible(tent) per
// candidate, accumulating t += rem/f_m left to right, so the value
// before any position depends only on the prefix, which insertion at i
// does not change. Head keeps fin[k], the accumulated time after slot k,
// starts each trial at fin[i−1] and replays only the candidate and the
// suffix: the same additions on the same floats. rem/f_m and
// X + 1e-12·X are computed once per job, in Gather. The prefix needs no
// check: it passed its own with the same fin values.
//
// Without a Ration and without strict, Head stops as soon as the head is
// fixed: when no remaining candidate in key order has a smaller critical-
// time rank than the schedule's head. Each such candidate is inserted
// after the head or refused, and each is tried, so the literal loop would
// end with the same head and one iteration per candidate in byKey, which
// is what Head returns. A Ration may pass candidates over and strict may
// break off, so both finish the loop to count their iterations.
func (q *Sequencer) Head(now float64, strict bool, r *Ration) (head *task.Job, iters int) {
	if r == nil {
		if head, n, ok := q.EDFHead(now); ok {
			return head, n
		}
	}
	q.keepKey()
	live, byKey := q.live, q.byKey
	// minRank[k] is the smallest rank among byKey[k:], kept in the add
	// buffer, which keepKey has finished with.
	var minRank []int32
	if r == nil && !strict {
		minRank = slices.Grow(q.add[:0], len(byKey))[:len(byKey)]
		low := int32(len(live))
		for k := len(byKey) - 1; k >= 0; k-- {
			low = min(low, live[byKey[k]].rank)
			minRank[k] = low
		}
		q.add = minRank[:0]
	}
	tent := q.tent[:0]
	committed := 0.0
	for n, idx := range byKey {
		if minRank != nil && len(tent) > 0 && minRank[n] > tent[0].rank {
			q.tent = tent
			q.exits++
			return live[tent[0].i].Job, len(byKey)
		}
		c := &live[idx]
		// Rationed out, the job stays pending and may abort at its
		// termination time.
		if r != nil && (committed+c.Cost > r.Left || r.Binding && c.Key < r.Floor) {
			continue
		}
		iters++
		// Insertion position: the first slot whose job follows c in the
		// critical-time order, found as InsertByCritical finds it.
		i, hi := 0, len(tent)
		for i < hi {
			m := int(uint(i+hi) >> 1)
			if c.rank < tent[m].rank {
				hi = m
			} else {
				i = m + 1
			}
		}
		// Feasibility trial: replay Feasible(tent) from the unchanged
		// prefix sum, visiting only the candidate and the suffix.
		start := now
		if i > 0 {
			start = tent[i-1].fin
		}
		t := start + c.dur
		ok := !(t > c.thr)
		for k := i; ok && k < len(tent); k++ {
			t += tent[k].dur
			ok = !(t > tent[k].thr)
		}
		if ok {
			tent = append(tent, slot{})
			copy(tent[i+1:], tent[i:])
			tent[i] = slot{dur: c.dur, thr: c.thr, rank: c.rank, i: idx}
			t = start
			for k := i; k < len(tent); k++ {
				t += tent[k].dur
				tent[k].fin = t
			}
			committed += c.Cost
		} else if strict {
			break
		}
	}
	q.tent = tent
	if len(tent) == 0 {
		return nil, iters
	}
	return live[tent[0].i].Job, iters
}

// Exits returns how many of this Sequencer's greedy runs stopped early
// because their head was fixed.
func (q *Sequencer) Exits() int { return q.exits }

// EDFHead is Head's underload shortcut (Theorem 2: in underload the
// greedy yields EDF). It replays the finish times of the positive-key
// live jobs at f_m in critical-time order with the greedy's own test. If
// every job passes, ok is set, and head and n are the greedy's head and
// iteration count: every schedule the greedy tests is a subsequence of
// this order, whose finish times add further positive rem/f_m terms, and
// rounded addition is monotone, so each trial passes, with or without
// the strict break, and the greedy inserts every job.
func (q *Sequencer) EDFHead(now float64) (head *task.Job, n int, ok bool) {
	live := q.live
	t := now
	for _, i := range q.crit {
		c := &live[i]
		if !(c.Key > 0) {
			continue
		}
		t += c.dur
		if t > c.thr {
			return nil, 0, false
		}
		if n == 0 {
			head = c.Job
		}
		n++
	}
	return head, n, true
}
