package sched

import "github.com/euastar/euastar/internal/task"

// TaskTable is the per-task view the schedulers read at every decision:
// each task's position in Context.Tasks, its Cantelli cycle allocation
// c_i, its Theorem 1 rate C_i/D_i and its critical time D_i. Build it
// once at Init with NewTaskTable.
//
// Every value is the float the task's own method returns —
// CycleAllocation, MinFrequency (WindowCycles over CriticalTime) and
// CriticalTime — because the table evaluates the same expressions on
// the same operands. For a task without an online Profiler the values
// are pure in the task model and are derived once. A profiled task's
// moments move only between decisions, when the engine observes a
// completion, so Refresh re-derives its c_i and C_i/D_i once per
// decision.
type TaskTable struct {
	tasks    task.Set
	index    map[int]int // task ID → position
	alloc    []float64   // c_i
	minFreq  []float64   // C_i/D_i
	crit     []float64   // D_i
	profiled []int       // positions of the tasks with a Profiler
}

// NewTaskTable derives the table of ts, which must be valid.
func NewTaskTable(ts task.Set) TaskTable {
	n := len(ts)
	vals := make([]float64, 3*n)
	tt := TaskTable{
		tasks:   ts,
		index:   make(map[int]int, n),
		alloc:   vals[:n:n],
		minFreq: vals[n : 2*n : 2*n],
		crit:    vals[2*n:],
	}
	for i, t := range ts {
		tt.index[t.ID] = i
		tt.crit[i] = t.CriticalTime()
		if t.Profiler != nil {
			tt.profiled = append(tt.profiled, i)
		}
		tt.derive(i)
	}
	return tt
}

// derive evaluates position i's allocation-dependent values.
func (tt *TaskTable) derive(i int) {
	t := tt.tasks[i]
	tt.alloc[i] = t.CycleAllocation()
	tt.minFreq[i] = float64(t.Arrival.A) * tt.alloc[i] / tt.crit[i]
}

// Refresh re-derives the values of the profiled tasks from their current
// moments. Call it once per decision, before reading the table.
func (tt *TaskTable) Refresh() {
	for _, i := range tt.profiled {
		tt.derive(i)
	}
}

// Pos returns the position of j's task in the table, or -1 when no task
// of the table has its ID. The job's SchedCache slot remembers the
// position; a slot that does not hold j's own task (a fresh job, or one
// filled by another table) is refilled from the ID map.
func (tt *TaskTable) Pos(j *task.Job) int {
	if p := j.SchedCache.TaskPos; int(p) < len(tt.tasks) && tt.tasks[p] == j.Task {
		return int(p)
	}
	p, ok := tt.index[j.Task.ID]
	if !ok {
		return -1
	}
	j.SchedCache.TaskPos = int32(p)
	return p
}

// Alloc returns c_i of the task at position i.
func (tt *TaskTable) Alloc(i int) float64 { return tt.alloc[i] }

// MinFreq returns C_i/D_i of the task at position i.
func (tt *TaskTable) MinFreq(i int) float64 { return tt.minFreq[i] }

// Crit returns D_i of the task at position i.
func (tt *TaskTable) Crit(i int) float64 { return tt.crit[i] }

// Remaining returns j.EstimatedRemaining() for the job at table position
// p (from Pos), reading c_i from the table; a job outside the table
// (p < 0) derives it from its own task.
func (tt *TaskTable) Remaining(j *task.Job, p int) float64 {
	if p < 0 {
		return j.EstimatedRemaining()
	}
	return j.EstimatedRemainingWith(tt.alloc[p])
}
