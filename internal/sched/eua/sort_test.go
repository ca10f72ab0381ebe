package eua

import (
	"testing"

	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
)

// TestStableSortByUERDescTieBreak pins the tandem sort's contract: jobs
// order by UER non-increasing, exact UER ties keep their incoming
// (critical-time) order, and the positional uer slice is permuted in
// lockstep with the jobs — uer[i] must still belong to jobs[i] afterwards.
// The core's kept UER order reproduces exactly this order, so a
// behaviour change here is a bit-identity break, not a refactor.
func TestStableSortByUERDescTieBreak(t *testing.T) {
	mk := func(id int) *task.Job {
		return &task.Job{
			Task:        &task.Task{ID: id, TUF: tuf.NewStep(10, 1)},
			AbsCritical: float64(id), // incoming order encodes critical time
		}
	}
	// Incoming order is critical-time order (ids ascending). UERs: 5 and
	// 2 appear twice; the ties must keep id order.
	jobs := []*task.Job{mk(1), mk(2), mk(3), mk(4), mk(5), mk(6)}
	uer := []float64{2, 5, 9, 5, 2, 7}

	stableSortByUERDesc(jobs, uer)

	wantIDs := []int{3, 6, 2, 4, 1, 5}
	wantUER := []float64{9, 7, 5, 5, 2, 2}
	for i := range jobs {
		if jobs[i].Task.ID != wantIDs[i] {
			got := make([]int, len(jobs))
			for k, j := range jobs {
				got[k] = j.Task.ID
			}
			t.Fatalf("job order %v, want %v", got, wantIDs)
		}
		if uer[i] != wantUER[i] {
			t.Fatalf("uer[%d] = %v, want %v (uer slice not permuted in tandem)", i, uer[i], wantUER[i])
		}
	}
}

// TestStableSortByUERDescAlreadySorted covers the no-op and single-element
// edges.
func TestStableSortByUERDescAlreadySorted(t *testing.T) {
	j := &task.Job{Task: &task.Task{ID: 1, TUF: tuf.NewStep(1, 1)}}
	jobs := []*task.Job{j}
	uer := []float64{3}
	stableSortByUERDesc(jobs, uer)
	if jobs[0] != j || uer[0] != 3 {
		t.Fatal("single-element sort changed the slice")
	}
	stableSortByUERDesc(nil, nil)
}
