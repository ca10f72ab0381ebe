package eua

import (
	"math"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// Decide-level tests of the underload shortcut (edfHead) on hand-built
// ready sets: the core's decision and feasibility-iteration count must
// equal the reference's, and the shortcut must fire exactly where the
// greedy would insert every positive-UER job.

// shortcutFm is f_m of the test table: a power of two, so that every
// rem/f_m below is exact and finish times can be placed on a chosen
// float.
const shortcutFm = 1 << 30

// shortcutCase is one ready set at time now. jobs builds a fresh copy
// per scheduler (Decide writes to jobs). shortcut is whether edfHead
// settles the decision, and head the task ID of the job EUA* runs (0 to
// idle).
type shortcutCase struct {
	name     string
	tasks    task.Set
	now      float64
	jobs     func() []*task.Job
	shortcut bool
	head     int
}

// shortcutTask is a task with a zero-variance demand, so that c_i is
// exactly mean cycles.
func shortcutTask(id, a int, p float64, f tuf.TUF, nu, mean float64) *task.Task {
	return &task.Task{
		ID: id, Arrival: uam.Spec{A: a, P: p}, TUF: f,
		Demand: task.Demand{Mean: mean},
		Req:    task.Requirement{Nu: nu, Rho: 0.9},
	}
}

// releasedJob is t's index-th job released at `at`, with executed
// cycles already run.
func releasedJob(t *task.Task, index int, at, executed float64) *task.Job {
	j := task.NewJob(t, index, at, rng.New(uint64(index)+1))
	j.Executed = executed
	return j
}

func shortcutCases() []shortcutCase {
	var cases []shortcutCase

	// Two step jobs in EDF order: a short one whose UER is low (the
	// critical-time head) and a long one whose UER is high. The EDF
	// schedule ends at b + 2^-10 against the long job's threshold
	// thr = X + 1e-12·X. With rem = b·f_m exactly, it ends on thr; one
	// ulp more of remaining work ends one ulp past it. thr − 2^-10 is
	// exact: both lie in [1/8, 1/4), where 2^-10 is a multiple of the
	// ulp.
	const short = 1.0 / 1024
	x := 0.2
	thr := x + 1e-12*x
	b := thr - short
	if b+short != thr {
		panic("boundary construction is not exact")
	}
	// On the threshold the EDF head runs; one ulp past, the greedy keeps
	// only the high-UER job.
	for _, c := range []struct {
		name     string
		rem      float64
		shortcut bool
		head     int
	}{
		{"boundary/ends-on-threshold", b * shortcutFm, true, 1},
		{"boundary/one-ulp-past", math.Nextafter(b*shortcutFm, math.Inf(1)), false, 2},
	} {
		head := shortcutTask(1, 1, 0.125, tuf.NewStep(1, 0.125), 1, short*shortcutFm)
		long := shortcutTask(2, 1, x, tuf.NewStep(1000, x), 1, c.rem)
		cases = append(cases, shortcutCase{
			name: c.name, tasks: task.Set{head, long}, shortcut: c.shortcut, head: c.head,
			jobs: func() []*task.Job {
				return []*task.Job{releasedJob(long, 0, 0, 0), releasedJob(head, 0, 0, 0)}
			},
		})
	}

	// Zero UER: a linear TUF whose job finishes exactly at its
	// termination time (utility 0 there), and a piecewise-linear TUF past
	// its zero point. The positive-UER step job is scheduled either way.
	lin := shortcutTask(1, 1, 0.25, tuf.NewLinear(10, 0, 0.25), 0.5, 0.25*shortcutFm)
	pw := shortcutTask(2, 1, 0.5, tuf.MustPiecewiseLinear([]tuf.Point{{T: 0, U: 10}, {T: 0.125, U: 0}, {T: 0.5, U: 0}}), 0.5, 0.25*shortcutFm)
	step := shortcutTask(3, 1, 0.5, tuf.NewStep(5, 0.5), 1, 0.0625*shortcutFm)
	cases = append(cases, shortcutCase{
		name: "zero-uer/underload", tasks: task.Set{lin, pw, step}, shortcut: true, head: 3,
		jobs: func() []*task.Job {
			return []*task.Job{releasedJob(lin, 0, 0, 0), releasedJob(pw, 0, 0, 0), releasedJob(step, 0, 0, 0)}
		},
	})
	cases = append(cases, shortcutCase{
		name: "zero-uer/only", tasks: task.Set{lin, pw}, shortcut: true,
		jobs: func() []*task.Job {
			return []*task.Job{releasedJob(lin, 0, 0, 0), releasedJob(pw, 0, 0, 0)}
		},
	})

	// Equal critical times broken by arrival (C arrives later with a
	// shorter window), then task ID (A and B), then index (A's burst of
	// two). Every job has the same UER, so the UER order's tie-break is the
	// same order; A's first job heads it.
	mkTies := func(mean float64) task.Set {
		return task.Set{
			shortcutTask(1, 2, 0.25, tuf.NewStep(4, 0.25), 1, mean),
			shortcutTask(2, 1, 0.25, tuf.NewStep(4, 0.25), 1, mean),
			shortcutTask(3, 1, 0.125, tuf.NewStep(4, 0.125), 1, mean),
		}
	}
	for _, c := range []struct {
		name     string
		mean     float64
		shortcut bool
	}{
		{"ties/underload", 0.015625 * shortcutFm, true},
		{"ties/overload", 0.0625 * shortcutFm, false},
	} {
		ts := mkTies(c.mean)
		cases = append(cases, shortcutCase{
			name: c.name, tasks: ts, now: 0.125, shortcut: c.shortcut, head: 1,
			jobs: func() []*task.Job {
				return []*task.Job{
					releasedJob(ts[2], 0, 0.125, 0),
					releasedJob(ts[0], 1, 0, 0),
					releasedJob(ts[1], 0, 0, 0),
					releasedJob(ts[0], 0, 0, 0),
				}
			},
		})
	}

	// Partly executed jobs and an idle task: remaining work is c − e.
	busy := shortcutTask(1, 3, 0.5, tuf.NewStep(8, 0.5), 1, 0.125*shortcutFm)
	idle := shortcutTask(2, 1, 0.25, tuf.NewStep(2, 0.25), 1, 0.03125*shortcutFm)
	cases = append(cases, shortcutCase{
		name: "executed/underload", tasks: task.Set{busy, idle}, now: 0.0625, shortcut: true, head: 1,
		jobs: func() []*task.Job {
			return []*task.Job{releasedJob(busy, 0, 0, 0.0625*shortcutFm), releasedJob(busy, 1, 0.03125, 0)}
		},
	})
	return cases
}

// shortcutCtx is a context on the power-of-two table with its own
// registry, so that each scheduler's iteration count can be read back.
func shortcutCtx(ts task.Set) *sched.Context {
	ft := cpu.FrequencyTable{shortcutFm / 4, shortcutFm / 2, shortcutFm}
	return &sched.Context{
		Tasks: ts, Freqs: ft, Energy: energy.MustPreset(energy.E1, ft.Max()),
		Telemetry: telemetry.NewRegistry(),
	}
}

// feasIters reads a scheduler's iteration counter from its registry.
func feasIters(ctx *sched.Context, scheme string) uint64 {
	return ctx.Telemetry.Counter(sched.MetricFeasIters, "", telemetry.L("scheme", scheme)).Value()
}

// runID is the task ID of the job d runs, 0 when it idles.
func runID(d sched.Decision) int {
	if d.Run == nil {
		return 0
	}
	return d.Run.Task.ID
}

func TestShortcutDecideMatchesReference(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"strictBreak", []Option{WithStrictBreak()}},
		{"budget", []Option{WithBudgetAwareness(0)}},
	}
	for _, c := range shortcutCases() {
		for _, v := range variants {
			t.Run(c.name+"/"+v.name, func(t *testing.T) {
				core := New(v.opts...)
				ref := NewReference(v.opts...).(*refScheduler)
				coreCtx, refCtx := shortcutCtx(c.tasks), shortcutCtx(c.tasks)
				if err := core.Init(coreCtx); err != nil {
					t.Fatal(err)
				}
				if err := ref.Init(refCtx); err != nil {
					t.Fatal(err)
				}
				if v.name == "budget" {
					core.OnEnergy(0, 1e30)
					ref.OnEnergy(0, 1e30)
				}
				got := core.Decide(c.now, c.jobs())
				want := ref.Decide(c.now, c.jobs())
				if id := runID(got); id != c.head {
					t.Fatalf("core runs task %d, the case is built for %d", id, c.head)
				}
				if got.Run == nil || want.Run == nil {
					if got.Run != want.Run {
						t.Fatalf("run: core %v, reference %v", got.Run, want.Run)
					}
				} else if got.Run.Task.ID != want.Run.Task.ID || got.Run.Index != want.Run.Index {
					t.Fatalf("run: core %v, reference %v", got.Run, want.Run)
				}
				if got.Freq != want.Freq {
					t.Fatalf("freq: core %v, reference %v", got.Freq, want.Freq)
				}
				if len(got.Abort) != 0 || len(want.Abort) != 0 {
					t.Fatalf("aborts: core %v, reference %v (every case is feasible job by job)", got.Abort, want.Abort)
				}
				gi, wi := feasIters(coreCtx, core.Name()), feasIters(refCtx, ref.Name())
				if gi != wi {
					t.Fatalf("feasibility iterations: core %d, reference %d", gi, wi)
				}
				if _, _, ok := core.edfHead(c.now); ok != c.shortcut {
					t.Fatalf("shortcut settles the decision: %v, want %v", ok, c.shortcut)
				}
			})
		}
	}
}
