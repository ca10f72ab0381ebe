package sched

import (
	"math"
	"slices"
)

// LookAheadEntry is one task's input to the deferral analysis of
// Algorithm 2 (decideFreq), the UAM generalization of Pillai–Shin
// look-ahead EDF.
type LookAheadEntry struct {
	// AbsCritical is D_i^a, the task's earliest pending invocation's
	// absolute critical time.
	AbsCritical float64
	// Remaining is C_i^r, the task's remaining allocated cycles in the
	// current window.
	Remaining float64
	// StaticUtil is the task's static demand rate C_i/D_i in cycles per
	// second (Theorem 1's frequency bound).
	StaticUtil float64
}

// LookAheadFrequency runs the deferral loop of Algorithm 2 lines 2–9 and
// returns the minimum frequency (cycles/second) that executes, before the
// earliest critical time D_n^a, every cycle that cannot be deferred past
// it. The result is uncapped: callers clamp it to the frequency table
// (during overloads it may exceed f_m, and the algorithm "sets the upper
// limit ... to be the highest frequency").
//
// The loop walks tasks in reverse EDF order (latest critical time first),
// assuming worst-case aggregate demand Util by earlier-critical-time tasks,
// and pushes as much of each task's work as possible beyond D_n^a.
// entries is reordered in place, so callers can keep one reusable entry
// buffer; entries with equal critical times are always processed in the
// same order for the same input sequence, and so summed into the same
// float.
func LookAheadFrequency(now, fmax float64, entries []LookAheadEntry) float64 {
	if len(entries) == 0 {
		return 0
	}
	// Reverse EDF order: latest absolute critical time first.
	// slices.SortFunc runs the pdqsort sort.Slice runs for the same less
	// relation, so equal critical times land in the same order (and the
	// sums below in the same float) without sort.Slice's reflective
	// swapper and escaping closure.
	order := entries
	slices.SortFunc(order, byCriticalDesc)
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
			// Tasks whose critical time is the closest one: none of their
			// remaining cycles can be deferred (Algorithm 2 line 7's
			// degenerate case; the paper adds full capacity to Util).
			s += e.Remaining
			util += fmax
			continue
		}
		// x: minimum cycles the task must execute before dn to still meet
		// its own critical time given capacity (fmax − Util) until then.
		x := e.Remaining - (fmax-util)*span
		if x < 0 {
			x = 0
		}
		s += x
		// Adjust Util to the task's actual demand after dn.
		util += (e.Remaining - x) / span
	}
	if s <= 0 {
		return 0
	}
	if dn <= now {
		// Work is due immediately: no finite frequency suffices.
		return math.Inf(1)
	}
	return s / (dn - now)
}

// byCriticalDesc orders look-ahead entries latest critical time first.
// The sort only asks whether the result is negative: exactly when
// a.AbsCritical > b.AbsCritical.
func byCriticalDesc(a, b LookAheadEntry) int {
	switch {
	case a.AbsCritical > b.AbsCritical:
		return -1
	case a.AbsCritical < b.AbsCritical:
		return 1
	}
	return 0
}
