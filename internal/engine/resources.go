package engine

import (
	"fmt"
	"math"

	"github.com/euastar/euastar/internal/task"
)

// Resource semantics (the shared-resource model of the companion EMSOFT'04
// work, which this paper's independent-task model specializes):
//
//   - Resources are single-unit and mutually exclusive; a task's critical
//     sections are fractions [Start, End) of each job's realized cycles.
//   - A job reaching an acquire boundary takes the resource if free and
//     otherwise cannot progress until the holder releases.
//   - The engine resolves blocking transparently: when the scheduler
//     selects a blocked job, the engine executes the head of its blocking
//     chain instead (execution-time inheritance — the holder inherits the
//     selected job's dispatch, the uniprocessor analogue of priority
//     inheritance). The scheduler's frequency choice applies to the
//     inherited execution.
//   - A cyclic chain (deadlock) is resolved by aborting the selected job,
//     releasing its resources.
//
// Jobs of tasks without sections never touch any of this machinery.

// boundaryEps tolerates float rounding when comparing executed cycles to
// section boundaries (which are fractions of ActualCycles).
const boundaryEps = 1e-6

// syncResources updates j's held set for its current progress: releases
// sections whose end has been reached and acquires free resources for
// sections the job is inside of. It returns the resource id blocking j
// (with its holder) when an acquisition fails, or -1.
func (st *state) syncResources(j *task.Job) (blockedOn int, holder *task.Job) {
	blockedOn = -1
	if len(j.Task.Sections) == 0 {
		return blockedOn, nil
	}
	eps := boundaryEps * j.ActualCycles
	for _, sec := range j.Task.Sections {
		startCyc := sec.Start * j.ActualCycles
		endCyc := sec.End * j.ActualCycles
		switch {
		case j.Holds(sec.Resource):
			if j.Executed >= endCyc-eps {
				st.release(j, sec.Resource)
			}
		case j.Executed >= startCyc-eps && j.Executed < endCyc-eps:
			h := st.holders[sec.Resource]
			if h == nil {
				st.acquire(j, sec.Resource)
			} else if h != j {
				blockedOn, holder = sec.Resource, h
			}
		}
	}
	j.BlockedBy = holder
	return blockedOn, holder
}

func (st *state) acquire(j *task.Job, r int) {
	if st.holders == nil {
		st.holders = make(map[int]*task.Job)
	}
	if h := st.holders[r]; h != nil {
		panic(fmt.Sprintf("engine: job %v acquiring resource %d held by %v", j, r, h))
	}
	st.holders[r] = j
	if j.Held == nil {
		j.Held = make(map[int]bool)
	}
	j.Held[r] = true
}

func (st *state) release(j *task.Job, r int) {
	if st.holders[r] != j {
		panic(fmt.Sprintf("engine: job %v releasing resource %d it does not hold", j, r))
	}
	delete(st.holders, r)
	delete(j.Held, r)
}

// releaseAll drops every resource j holds (at completion or abortion).
func (st *state) releaseAll(j *task.Job) {
	for r := range j.Held {
		st.release(j, r)
	}
	j.BlockedBy = nil
}

// errDeadlock marks a cyclic blocking chain.
var errDeadlock = fmt.Errorf("engine: resource deadlock")

// effective follows j's blocking chain to the job that can actually make
// progress, acquiring free resources along the way. It returns errDeadlock
// on a cycle.
func (st *state) effective(j *task.Job) (*task.Job, error) {
	if len(j.Task.Sections) == 0 {
		return j, nil // independent tasks never block
	}
	seen := map[*task.Job]bool{}
	for {
		if seen[j] {
			return nil, errDeadlock
		}
		seen[j] = true
		_, holder := st.syncResources(j)
		if holder == nil {
			return j, nil
		}
		j = holder
	}
}

// nextBoundaryCycles returns how many further cycles j can execute before
// its next section boundary (acquire of a not-yet-held section or release
// of a held one), or +Inf when no boundary remains.
func nextBoundaryCycles(j *task.Job) float64 {
	if len(j.Task.Sections) == 0 {
		return math.Inf(1)
	}
	eps := boundaryEps * j.ActualCycles
	next := math.Inf(1)
	for _, sec := range j.Task.Sections {
		var boundary float64
		if j.Holds(sec.Resource) {
			boundary = sec.End * j.ActualCycles
		} else {
			boundary = sec.Start * j.ActualCycles
			if j.Executed >= boundary-eps {
				// Already at/past the acquire point without holding the
				// resource: the very next sync resolves it; treat the end
				// as the next boundary once acquired. A blocked job never
				// reaches here because effective() stops it earlier.
				boundary = sec.End * j.ActualCycles
			}
		}
		if d := boundary - j.Executed; d > eps && d < next {
			next = d
		}
	}
	return next
}
