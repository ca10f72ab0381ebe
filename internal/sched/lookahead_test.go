package sched

import (
	"math"
	"sort"
	"testing"

	"github.com/euastar/euastar/internal/rng"
)

// lookAheadSortSlice is LookAheadFrequency as it was written on
// sort.Slice, kept verbatim as the baseline for the slices.SortFunc
// version: same deferral loop, entries reordered in place.
func lookAheadSortSlice(now, fmax float64, entries []LookAheadEntry) float64 {
	if len(entries) == 0 {
		return 0
	}
	order := entries
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

// TestLookAheadSortMatchesSortSlice is the property behind swapping
// sort.Slice for slices.SortFunc: on entry sets where most critical times
// tie — where the sort's treatment of equal keys decides the order in
// which Remaining and StaticUtil are summed — both sorts produce the same
// permutation and the deferral loop the bit-identical float. Sizes run
// past pdqsort's 12-element insertion-sort cutoff so partitioning,
// equal-pivot partitioning and pattern breaking all execute.
func TestLookAheadSortMatchesSortSlice(t *testing.T) {
	src := rng.New(0x5eed)
	for trial := 0; trial < 3000; trial++ {
		n := src.Intn(200)
		keys := make([]float64, 1+src.Intn(6)) // few distinct critical times
		for i := range keys {
			keys[i] = src.Uniform(0.01, 0.3)
		}
		entries := make([]LookAheadEntry, n)
		for i := range entries {
			d := keys[src.Intn(len(keys))]
			rem := src.Uniform(0, 5e7)
			entries[i] = LookAheadEntry{AbsCritical: d, Remaining: rem, StaticUtil: src.Uniform(0, 2e8)}
			if src.Bernoulli(0.2) {
				entries[i].StaticUtil = 0 // phantom-burst entries carry no rate
			}
		}
		now := src.Uniform(0, 0.02)
		want := append([]LookAheadEntry(nil), entries...)
		got := append([]LookAheadEntry(nil), entries...)
		wantF := lookAheadSortSlice(now, 1000e6, want)
		gotF := LookAheadFrequency(now, 1000e6, got)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d (n=%d, %d keys): entry %d is %+v, sort.Slice put %+v there",
					trial, n, len(keys), i, got[i], want[i])
			}
		}
		if math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Fatalf("trial %d (n=%d, %d keys): frequency %v, sort.Slice version %v", trial, n, len(keys), gotF, wantF)
		}
	}
}
