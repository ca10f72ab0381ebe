package eua

import (
	"testing"

	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/uam"
)

// TestArrivalRingMatchesSliceHistory drives the core's fixed release ring
// and the reference's re-sliced history with the same release sequences
// and requires nextPossibleArrival to agree at every query — including
// bursts of simultaneous releases and windows that wrap the ring many
// times over.
func TestArrivalRingMatchesSliceHistory(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 500; trial++ {
		tk := &task.Task{ID: 1, Arrival: uam.Spec{A: 1 + src.Intn(6), P: src.Uniform(0.01, 0.1)}}
		core := &Scheduler{}
		core.fp.arrivals = []uam.Window{uam.NewWindow(make([]float64, tk.Arrival.A))}
		ref := &refScheduler{arrivals: map[int][]float64{}}
		now := 0.0
		for step := 0; step < 40; step++ {
			if src.Bernoulli(0.6) {
				core.fp.arrivals[0].Push(now)
				ref.OnRelease(now, &task.Job{Task: tk})
			}
			q := now + src.Uniform(0, 0.05)
			gotAt, gotN := core.nextPossibleArrival(q, 0, tk)
			wantAt, wantN := ref.nextPossibleArrival(q, tk)
			if gotAt != wantAt || gotN != wantN {
				t.Fatalf("trial %d step %d (a=%d): ring says (%v, %d), slice history (%v, %d)",
					trial, step, tk.Arrival.A, gotAt, gotN, wantAt, wantN)
			}
			if !src.Bernoulli(0.3) { // else: a simultaneous release
				now += src.Exponential(1 / tk.Arrival.P)
			}
		}
	}
}
