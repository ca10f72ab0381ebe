package eua

import (
	"math"
	"testing"

	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
)

// nanTUF is a caller's TUF whose utility is NaN wherever it is defined,
// so every job of its task has a NaN UER.
type nanTUF struct{ tuf.Step }

func (nanTUF) Utility(float64) float64 { return math.NaN() }

// nanCase is three jobs released together: N of a NaN-utility task, the
// earliest critical time; B of high UER; A of low UER, the latest.
// Under overload N and B do not fit together.
func nanCase(overload bool) task.Set {
	const fm = shortcutFm
	nMean, bMean := 0.0625*fm, 0.125*fm
	if overload {
		nMean, bMean = 0.125*fm, 0.1875*fm
	}
	return task.Set{
		shortcutTask(1, 1, 0.125, nanTUF{tuf.NewStep(5, 0.125)}, 1, nMean),
		shortcutTask(2, 1, 0.25, tuf.NewStep(100, 0.25), 1, bMean),
		shortcutTask(3, 1, 0.5, tuf.NewStep(1, 0.5), 1, 0.0625*fm),
	}
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestNaNUERNeverInserted pins EUA*'s rule for a NaN UER, which a
// caller's TUF can produce: the job ranks after every positive UER and
// the greedy never inserts it, in every ready order, on the core and on
// the reference alike. A NaN has no place in a UER order: a stable sort
// would leave it where the critical-time order put it and hold lesser
// UERs behind it, and a heap would place it by its own mechanics, which
// depend on the ready order.
func TestNaNUERNeverInserted(t *testing.T) {
	for _, overload := range []bool{false, true} {
		ts := nanCase(overload)
		for _, p := range permutations(len(ts)) {
			jobs := func() []*task.Job {
				out := make([]*task.Job, len(p))
				for i, k := range p {
					out[i] = releasedJob(ts[k], 0, 0, 0)
				}
				return out
			}
			core, ref := New(), NewReference().(*refScheduler)
			coreCtx, refCtx := shortcutCtx(ts), shortcutCtx(ts)
			if err := core.Init(coreCtx); err != nil {
				t.Fatal(err)
			}
			if err := ref.Init(refCtx); err != nil {
				t.Fatal(err)
			}
			got, want := core.Decide(0, jobs()), ref.Decide(0, jobs())
			if runID(got) != 2 || runID(want) != 2 {
				t.Fatalf("overload %v, order %v: core runs task %d, reference %d; want B (2)", overload, p, runID(got), runID(want))
			}
			if got.Freq != want.Freq {
				t.Fatalf("overload %v, order %v: freq: core %v, reference %v", overload, p, got.Freq, want.Freq)
			}
			if gi, wi := feasIters(coreCtx, core.Name()), feasIters(refCtx, ref.Name()); gi != 2 || wi != 2 {
				t.Fatalf("overload %v, order %v: feasibility iterations: core %d, reference %d; want 2", overload, p, gi, wi)
			}
		}
	}
	// With only NaN UERs there is nothing to insert: both idle.
	ts := nanCase(false)[:1]
	core, ref := New(), NewReference()
	if err := core.Init(shortcutCtx(ts)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Init(shortcutCtx(ts)); err != nil {
		t.Fatal(err)
	}
	if got, want := core.Decide(0, []*task.Job{releasedJob(ts[0], 0, 0, 0)}), ref.Decide(0, []*task.Job{releasedJob(ts[0], 0, 0, 0)}); got.Run != nil || want.Run != nil {
		t.Fatalf("NaN only: core runs %v, reference %v; want idle", got.Run, want.Run)
	}
}
