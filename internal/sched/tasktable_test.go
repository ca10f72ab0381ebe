package sched

import (
	"math/rand"
	"testing"

	"github.com/euastar/euastar/internal/profile"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// tableTasks is a mixed set: step, linear and piecewise-linear TUFs,
// bursts, and a profiled task, in an order that is not by ID.
func tableTasks() task.Set {
	pw := tuf.MustPiecewiseLinear([]tuf.Point{{T: 0, U: 8}, {T: 0.02, U: 5}, {T: 0.07, U: 0}})
	return task.Set{
		{ID: 7, Arrival: uam.Spec{A: 3, P: 0.05}, TUF: tuf.NewStep(10, 0.05),
			Demand: task.Demand{Mean: 1.3e6, Variance: 4e10}, Req: task.Requirement{Nu: 1, Rho: 0.96}},
		{ID: 2, Arrival: uam.Spec{A: 1, P: 0.03}, TUF: tuf.NewLinear(6, 0, 0.03),
			Demand: task.Demand{Mean: 7e5, Variance: 1e9}, Req: task.Requirement{Nu: 0.4, Rho: 0.8}},
		{ID: 4, Arrival: uam.Spec{A: 2, P: 0.07}, TUF: pw,
			Demand: task.Demand{Mean: 2e6, Variance: 3e11}, Req: task.Requirement{Nu: 0.6, Rho: 0.9},
			Profiler: profile.MustNew(2.4e6, 3e11, 1)},
	}
}

// requireTableMatches checks every row against the task's own methods,
// bit for bit.
func requireTableMatches(t *testing.T, tt *TaskTable, ts task.Set) {
	t.Helper()
	for i, tk := range ts {
		if tt.Alloc(i) != tk.CycleAllocation() || tt.MinFreq(i) != tk.MinFrequency() || tt.Crit(i) != tk.CriticalTime() {
			t.Fatalf("task %d: table (%v, %v, %v), task (%v, %v, %v)", tk.ID,
				tt.Alloc(i), tt.MinFreq(i), tt.Crit(i), tk.CycleAllocation(), tk.MinFrequency(), tk.CriticalTime())
		}
	}
}

func TestTaskTableMatchesTaskMethods(t *testing.T) {
	ts := tableTasks()
	tt := NewTaskTable(ts)
	requireTableMatches(t, &tt, ts)

	// Random bursts, windows and moments: any reassociation of
	// a_i·c_i/D_i shows up as a differing last bit on some of them.
	r := rand.New(rand.NewSource(2))
	var many task.Set
	for i := 0; i < 300; i++ {
		p := 0.005 + r.Float64()*0.1
		mean := 1e5 + r.Float64()*1e7
		many = append(many, &task.Task{
			ID: i, Arrival: uam.Spec{A: 1 + r.Intn(7), P: p}, TUF: tuf.NewLinear(5, 0, p),
			Demand: task.Demand{Mean: mean, Variance: mean * mean * r.Float64()},
			Req:    task.Requirement{Nu: 0.2 + 0.7*r.Float64(), Rho: 0.5 + 0.45*r.Float64()},
		})
	}
	mt := NewTaskTable(many)
	requireTableMatches(t, &mt, many)

	// The profiler moves the third task's moments; Refresh follows them.
	prof := ts[2].Profiler
	for _, x := range []float64{1.1e6, 3.5e6, 2.2e6} {
		before := tt.Alloc(2)
		prof.Observe(x)
		tt.Refresh()
		requireTableMatches(t, &tt, ts)
		if tt.Alloc(2) == before {
			t.Fatalf("observing %v left c_i at %v", x, before)
		}
	}
}

func TestTaskTablePos(t *testing.T) {
	ts := tableTasks()
	tt := NewTaskTable(ts)
	for i, tk := range ts {
		j := mkJob(tk, 0, 0)
		if p := tt.Pos(j); p != i {
			t.Fatalf("task %d: Pos = %d, want %d", tk.ID, p, i)
		}
		if j.SchedCache.TaskPos != int32(i) {
			t.Fatalf("task %d: slot holds %d after Pos", tk.ID, j.SchedCache.TaskPos)
		}
		if got, want := tt.Remaining(j, i), j.EstimatedRemaining(); got != want {
			t.Fatalf("task %d: Remaining %v, want %v", tk.ID, got, want)
		}
	}

	// A slot filled by another table is refilled from this one.
	other := NewTaskTable(task.Set{ts[2], ts[0]})
	j := mkJob(ts[0], 1, 0)
	if p := other.Pos(j); p != 1 {
		t.Fatalf("other table: Pos = %d, want 1", p)
	}
	if p := tt.Pos(j); p != 0 {
		t.Fatalf("after another table: Pos = %d, want 0", p)
	}

	// A task outside the table has no position; its job's estimate comes
	// from its own task.
	foreign := mkTask(99, 0.1)
	fj := mkJob(foreign, 0, 0)
	if p := tt.Pos(fj); p != -1 {
		t.Fatalf("foreign task: Pos = %d, want -1", p)
	}
	if got, want := tt.Remaining(fj, -1), fj.EstimatedRemaining(); got != want {
		t.Fatalf("foreign task: Remaining %v, want %v", got, want)
	}

	// Lookups by slot allocate nothing.
	jobs := []*task.Job{mkJob(ts[0], 2, 0), mkJob(ts[1], 0, 0), mkJob(ts[2], 0, 0)}
	if n := testing.AllocsPerRun(100, func() {
		for _, j := range jobs {
			tt.Pos(j)
		}
	}); n != 0 {
		t.Fatalf("Pos allocates %v times per round", n)
	}
}
