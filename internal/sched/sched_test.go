package sched

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

func mkTask(id int, p float64) *task.Task {
	return &task.Task{
		ID: id, Arrival: uam.Spec{A: 1, P: p},
		TUF:    tuf.NewStep(10, p),
		Demand: task.Demand{Mean: 1e6, Variance: 0},
		Req:    task.Requirement{Nu: 1, Rho: 0.9},
	}
}

func mkJob(t *task.Task, idx int, at float64) *task.Job {
	j := task.NewJob(t, idx, at, rng.New(uint64(idx)+1))
	j.ActualCycles = t.Demand.Mean
	return j
}

func TestContextValidate(t *testing.T) {
	ft := cpu.PowerNowK6()
	good := &Context{
		Tasks:  task.Set{mkTask(1, 0.1)},
		Freqs:  ft,
		Energy: energy.MustPreset(energy.E1, ft.Max()),
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	var nilCtx *Context
	if err := nilCtx.Validate(); err == nil {
		t.Fatal("nil context accepted")
	}
	bad := *good
	bad.Freqs = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil freqs accepted")
	}
	bad2 := *good
	bad2.Energy = energy.Model{}
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero energy model accepted")
	}
}

func TestByCriticalTime(t *testing.T) {
	ta, tb := mkTask(1, 0.1), mkTask(2, 0.05)
	j1 := mkJob(ta, 0, 0)   // D^a = 0.1
	j2 := mkJob(tb, 0, 0)   // D^a = 0.05
	j3 := mkJob(ta, 1, 0.1) // D^a = 0.2
	jobs := []*task.Job{j3, j1, j2}
	ByCriticalTime(jobs)
	if jobs[0] != j2 || jobs[1] != j1 || jobs[2] != j3 {
		t.Fatalf("order = %v", jobs)
	}
}

func TestByCriticalTimeTieBreak(t *testing.T) {
	ta, tb := mkTask(1, 0.1), mkTask(2, 0.1)
	j1, j2 := mkJob(ta, 0, 0), mkJob(tb, 0, 0) // identical D^a
	jobs := []*task.Job{j2, j1}
	ByCriticalTime(jobs)
	if jobs[0] != j1 || jobs[1] != j2 {
		t.Fatal("tie-break by task ID failed")
	}
}

func TestFeasible(t *testing.T) {
	tk := mkTask(1, 0.1) // c = 1e6 cycles, 1ms at f_m
	fm := 1000e6
	j1, j2 := mkJob(tk, 0, 0), mkJob(tk, 1, 0)
	j2.Termination = 0.1
	// Two 1ms jobs, both due at 0.1: trivially feasible.
	if !Feasible([]*task.Job{j1, j2}, 0, fm) {
		t.Fatal("feasible schedule rejected")
	}
	// Start too late: 99.5ms leaves room for only one job.
	if Feasible([]*task.Job{j1, j2}, 0.0995, fm) {
		t.Fatal("infeasible schedule accepted")
	}
	if !Feasible(nil, 0, fm) {
		t.Fatal("empty schedule infeasible")
	}
}

func TestFeasibleCumulative(t *testing.T) {
	// Feasibility is cumulative, so order matters: the tight job (99.5 ms
	// of work, due at 100 ms) must run first; behind the slack job the
	// chain pushes it past its termination time.
	slack := mkTask(1, 0.2) // 1 ms of work, due at 200 ms
	big := mkTask(2, 0.1)
	big.Demand = task.Demand{Mean: 99.5e6, Variance: 0} // 99.5 ms at f_m
	j1 := mkJob(big, 0, 0)
	j2 := mkJob(slack, 0, 0)
	fm := 1000e6
	if !Feasible([]*task.Job{j1, j2}, 0, fm) {
		t.Fatal("tight-first schedule rejected")
	}
	if Feasible([]*task.Job{j2, j1}, 0, fm) {
		t.Fatal("slack-first schedule accepted")
	}
}

func TestJobFeasible(t *testing.T) {
	tk := mkTask(1, 0.1)
	j := mkJob(tk, 0, 0)
	fm := 1000e6
	if !JobFeasible(j, 0, fm) {
		t.Fatal("fresh job infeasible")
	}
	if JobFeasible(j, 0.0999, fm) {
		t.Fatal("doomed job feasible")
	}
	// Exactly at the boundary: still feasible (completes at termination).
	if !JobFeasible(j, 0.099, fm) {
		t.Fatal("boundary job infeasible")
	}
}

func TestInsertByCritical(t *testing.T) {
	ta, tb, tc := mkTask(1, 0.05), mkTask(2, 0.1), mkTask(3, 0.2)
	j1, j2, j3 := mkJob(ta, 0, 0), mkJob(tb, 0, 0), mkJob(tc, 0, 0)
	var order []*task.Job
	order = InsertByCritical(order, j2)
	order = InsertByCritical(order, j3)
	order = InsertByCritical(order, j1)
	if order[0] != j1 || order[1] != j2 || order[2] != j3 {
		t.Fatalf("order wrong")
	}
}

func TestInsertByCriticalAfterEqual(t *testing.T) {
	// Equal keys: the new entry goes after existing ones (Algorithm 1's
	// insert semantics).
	ta := mkTask(1, 0.1)
	tb := mkTask(2, 0.1)
	j1, j2 := mkJob(ta, 0, 0), mkJob(tb, 0, 0)
	order := InsertByCritical(nil, j1)
	order = InsertByCritical(order, j2)
	if order[0] != j1 || order[1] != j2 {
		t.Fatal("equal-key insert not after existing")
	}
}

func TestQuickInsertKeepsSorted(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		src := rng.New(seed)
		var order []*task.Job
		for i := 0; i < n; i++ {
			tk := mkTask(i+1, src.Uniform(0.01, 0.5))
			order = InsertByCritical(order, mkJob(tk, 0, src.Uniform(0, 1)))
		}
		for i := 1; i < len(order); i++ {
			if order[i].AbsCritical < order[i-1].AbsCritical {
				return false
			}
		}
		return len(order) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLookAheadFrequencyEmpty(t *testing.T) {
	if f := LookAheadFrequency(0, 1000e6, nil); f != 0 {
		t.Fatalf("empty → %v", f)
	}
}

func TestLookAheadFrequencySingleTask(t *testing.T) {
	// One task, all cycles due at its critical time: required frequency is
	// exactly C^r / (D^a − now).
	e := LookAheadEntry{AbsCritical: 0.1, Remaining: 1e6, StaticUtil: 1e7}
	got := LookAheadFrequency(0, 1000e6, []LookAheadEntry{e})
	if math.Abs(got-1e7) > 1 {
		t.Fatalf("f = %v, want 1e7", got)
	}
}

func TestLookAheadFrequencyDefersLaterWork(t *testing.T) {
	fm := 1000e6
	// Task A due at 10ms with 1e6 cycles; task B due at 100ms with 50e6
	// cycles. B's work can be executed after 10ms at a modest rate, so the
	// required frequency should be far below (1e6+50e6)/0.01.
	entries := []LookAheadEntry{
		{AbsCritical: 0.01, Remaining: 1e6, StaticUtil: 1e6 / 0.01},
		{AbsCritical: 0.1, Remaining: 50e6, StaticUtil: 50e6 / 0.1},
	}
	got := LookAheadFrequency(0, fm, entries)
	// Must at least cover A's own demand…
	if got < 1e6/0.01 {
		t.Fatalf("f = %v below task A's need", got)
	}
	// …but far below executing everything before 10ms.
	if got > 0.5*(51e6/0.01) {
		t.Fatalf("f = %v, deferral ineffective", got)
	}
}

func TestLookAheadFrequencyOverloadUnbounded(t *testing.T) {
	// Work already due: infinite requirement (callers clamp to f_m).
	entries := []LookAheadEntry{{AbsCritical: 0.05, Remaining: 1e6, StaticUtil: 1e7}}
	got := LookAheadFrequency(0.05, 1000e6, entries)
	if !math.IsInf(got, 1) {
		t.Fatalf("f = %v, want +Inf", got)
	}
	got2 := LookAheadFrequency(0.06, 1000e6, entries)
	if !math.IsInf(got2, 1) {
		t.Fatalf("past-due f = %v, want +Inf", got2)
	}
}

func TestLookAheadFrequencyEqualCriticalTimes(t *testing.T) {
	// Two tasks sharing the earliest critical time ("which can occur,
	// especially during overloads"): both remainders are non-deferrable.
	entries := []LookAheadEntry{
		{AbsCritical: 0.1, Remaining: 2e6, StaticUtil: 2e7},
		{AbsCritical: 0.1, Remaining: 3e6, StaticUtil: 3e7},
	}
	got := LookAheadFrequency(0, 1000e6, entries)
	if math.Abs(got-5e7) > 1 {
		t.Fatalf("f = %v, want 5e7", got)
	}
}

func TestLookAheadFrequencyZeroRemaining(t *testing.T) {
	entries := []LookAheadEntry{
		{AbsCritical: 0.1, Remaining: 0, StaticUtil: 1e7},
		{AbsCritical: 0.2, Remaining: 0, StaticUtil: 1e7},
	}
	if got := LookAheadFrequency(0, 1000e6, entries); got != 0 {
		t.Fatalf("f = %v, want 0", got)
	}
}

func TestQuickLookAheadCoversEarliestDemand(t *testing.T) {
	// Whatever the mix, the result must cover the non-deferrable work of
	// the earliest-critical-time task executed alone.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%5) + 1
		src := rng.New(seed)
		now := 0.0
		entries := make([]LookAheadEntry, n)
		for i := range entries {
			d := src.Uniform(0.01, 0.3)
			rem := src.Uniform(1e5, 5e7)
			entries[i] = LookAheadEntry{AbsCritical: d, Remaining: rem, StaticUtil: rem / d}
		}
		// Lower bound: the earliest task's own remaining over its window,
		// taken before LookAheadFrequency reorders entries.
		minD, minRem := math.Inf(1), 0.0
		for _, e := range entries {
			if e.AbsCritical < minD {
				minD, minRem = e.AbsCritical, e.Remaining
			}
		}
		got := LookAheadFrequency(now, 1000e6, entries)
		return got >= minRem/(minD-now)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLookAheadMonotoneInRemaining(t *testing.T) {
	// Adding work to any task cannot reduce the required frequency.
	f := func(seed uint64) bool {
		src := rng.New(seed)
		entries := []LookAheadEntry{
			{AbsCritical: src.Uniform(0.02, 0.1), Remaining: src.Uniform(1e5, 1e7)},
			{AbsCritical: src.Uniform(0.02, 0.1), Remaining: src.Uniform(1e5, 1e7)},
		}
		for i := range entries {
			entries[i].StaticUtil = entries[i].Remaining / entries[i].AbsCritical
		}
		// Grow the first generated entry, which holds the earlier critical
		// time in about half the cases; copy before LookAheadFrequency
		// reorders entries in place.
		grown := append([]LookAheadEntry(nil), entries...)
		grown[0].Remaining *= 1.5
		base := LookAheadFrequency(0, 1000e6, entries)
		more := LookAheadFrequency(0, 1000e6, grown)
		return more >= base-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookAheadFrequency(b *testing.B) {
	src := rng.New(3)
	entries := make([]LookAheadEntry, 18)
	for i := range entries {
		d := src.Uniform(0.01, 0.3)
		rem := src.Uniform(1e5, 5e7)
		entries[i] = LookAheadEntry{AbsCritical: d, Remaining: rem, StaticUtil: rem / d}
	}
	buf := make([]LookAheadEntry, len(entries))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, entries) // LookAheadFrequency sorts its entries in place
		LookAheadFrequency(0, 1000e6, buf)
	}
}

func BenchmarkFeasible(b *testing.B) {
	jobs := make([]*task.Job, 18)
	for i := range jobs {
		jobs[i] = mkJob(mkTask(i+1, 0.02*float64(i+1)), 0, 0)
	}
	ByCriticalTime(jobs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Feasible(jobs, 0, 1000e6)
	}
}
