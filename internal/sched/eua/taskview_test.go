package eua

import (
	"math"
	"testing"

	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// Unit tests of the reference's per-task view (earliestByTask,
// windowRemaining in reference_test.go).

func viewTask(id int, p float64) *task.Task {
	return &task.Task{
		ID: id, Arrival: uam.Spec{A: 1, P: p},
		TUF:    tuf.NewStep(10, p),
		Demand: task.Demand{Mean: 1e6, Variance: 0},
		Req:    task.Requirement{Nu: 1, Rho: 0.9},
	}
}

func viewJob(t *task.Task, idx int, at float64) *task.Job {
	j := task.NewJob(t, idx, at, rng.New(uint64(idx)+1))
	j.ActualCycles = t.Demand.Mean
	return j
}

func TestEarliestByTask(t *testing.T) {
	ta, tb := viewTask(1, 0.1), viewTask(2, 0.1)
	j1 := viewJob(ta, 0, 0)
	j2 := viewJob(ta, 1, 0.02)
	j3 := viewJob(tb, 0, 0.01)
	views := earliestByTask([]*task.Job{j2, j3, j1})
	if len(views) != 2 {
		t.Fatalf("views = %v", views)
	}
	if v := views[1]; v.Earliest != j1 || v.Pending != 2 {
		t.Fatalf("task 1 view = %+v", v)
	}
	if v := views[2]; v.Earliest != j3 || v.Pending != 1 {
		t.Fatalf("task 2 view = %+v", v)
	}
}

func TestWindowRemaining(t *testing.T) {
	tk := viewTask(1, 0.1)
	tk.Arrival.A = 3
	c := tk.CycleAllocation()
	j1, j2 := viewJob(tk, 0, 0), viewJob(tk, 1, 0)
	j1.Executed = c / 2
	// a_i = 3: the window may still carry 2 more full instances beyond the
	// earliest, regardless of how many have arrived so far.
	v := taskView{Earliest: j1, Pending: 2}
	want := c/2 + 2*c
	if got := windowRemaining(tk, v); math.Abs(got-want) > 1e-6 {
		t.Fatalf("C^r = %v, want %v", got, want)
	}
	// Cap at a_i instances even with more pending.
	v5 := taskView{Earliest: j2, Pending: 5}
	wantCap := c + 2*c
	if got := windowRemaining(tk, v5); math.Abs(got-wantCap) > 1e-6 {
		t.Fatalf("capped C^r = %v, want %v", got, wantCap)
	}
	if got := windowRemaining(tk, taskView{}); got != 0 {
		t.Fatalf("empty view C^r = %v", got)
	}
}
