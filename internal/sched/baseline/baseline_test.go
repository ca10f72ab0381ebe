package baseline_test

import (
	"strings"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// variants lists every scheme the package builds, by its scheme name.
var variants = []struct {
	name string
	mk   func() sched.Scheduler
}{
	{"EDF-fm", func() sched.Scheduler { return baseline.NewEDF(true) }},
	{"EDF-fm-NA", func() sched.Scheduler { return baseline.NewEDF(false) }},
	{"staticEDF", func() sched.Scheduler { return baseline.NewStaticEDF(true) }},
	{"staticEDF-NA", func() sched.Scheduler { return baseline.NewStaticEDF(false) }},
	{"ccEDF", func() sched.Scheduler { return baseline.NewCCEDF(true) }},
	{"ccEDF-NA", func() sched.Scheduler { return baseline.NewCCEDF(false) }},
	{"laEDF", func() sched.Scheduler { return baseline.NewLAEDF(true) }},
	{"laEDF-NA", func() sched.Scheduler { return baseline.NewLAEDF(false) }},
	{"DASA", func() sched.Scheduler { return baseline.NewDASA() }},
	{"GUS", func() sched.Scheduler { return baseline.NewGUS() }},
}

// aborts reports whether a scheme aborts jobs infeasible at f_m.
func aborts(name string) bool { return !strings.HasSuffix(name, "-NA") }

// isEDF reports whether a scheme is one of the EDF variants.
func isEDF(name string) bool { return name != "DASA" && name != "GUS" }

func stepTask(id int, p, height, mean float64) *task.Task {
	return &task.Task{
		ID: id, Arrival: uam.Spec{A: 1, P: p},
		TUF:    tuf.NewStep(height, p),
		Demand: task.Demand{Mean: mean, Variance: 0},
		Req:    task.Requirement{Nu: 1, Rho: 0.9},
	}
}

func ctx(ts task.Set) *sched.Context {
	ft := cpu.PowerNowK6()
	return &sched.Context{Tasks: ts, Freqs: ft, Energy: energy.MustPreset(energy.E1, ft.Max())}
}

// initOn returns s initialized on the task set.
func initOn[S sched.Scheduler](t *testing.T, s S, ts ...*task.Task) S {
	t.Helper()
	if err := s.Init(ctx(ts)); err != nil {
		t.Fatal(err)
	}
	return s
}

// job releases task tk's first job at time 0.
func job(tk *task.Task, seed uint64) *task.Job { return task.NewJob(tk, 0, 0, rng.New(seed)) }

// simulate runs s on ts over the PowerNow! K6 table and the E1 model,
// aborting at termination times unless s is a no-abort variant.
func simulate(t *testing.T, ts task.Set, s sched.Scheduler, horizon float64, seed uint64) *engine.Result {
	t.Helper()
	ft := cpu.PowerNowK6()
	res, err := engine.Run(engine.Config{
		Tasks: ts, Scheduler: s, Freqs: ft,
		Energy:  energy.MustPreset(energy.E1, ft.Max()),
		Horizon: horizon, Seed: seed, AbortAtTermination: aborts(s.Name()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNames(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if got := v.mk().Name(); got != v.name {
				t.Errorf("Name() = %q, want %q", got, v.name)
			}
		})
	}
}

func TestInitValidates(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if err := v.mk().Init(&sched.Context{}); err == nil {
				t.Error("empty context accepted")
			}
			if err := v.mk().Init(ctx(task.Set{stepTask(1, 0.1, 10, 1e6)})); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOnlyCCEDFObservesEvents: the ccEDF ledger is the only per-variant
// state fed by release and completion events, so only the two ccEDF
// variants implement engine.EventObserver and the engine calls no empty
// hooks on the others.
func TestOnlyCCEDFObservesEvents(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			_, ok := v.mk().(engine.EventObserver)
			if want := strings.HasPrefix(v.name, "ccEDF"); ok != want {
				t.Errorf("implements engine.EventObserver = %v, want %v", ok, want)
			}
		})
	}
}

// TestAbortInfeasible: a job that can no longer finish by its
// termination time even at f_m is aborted by every aborting variant,
// which then idles, and run anyway by every -NA variant. The job is
// released through the scheme's event hooks first, as the engine does.
func TestAbortInfeasible(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 50e6)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			s := initOn(t, v.mk(), tk)
			j := job(tk, 1)
			if o, ok := s.(engine.EventObserver); ok {
				o.OnRelease(0, j)
			}
			d := s.Decide(0.06, []*task.Job{j})
			switch {
			case aborts(v.name) && (len(d.Abort) != 1 || d.Abort[0] != j || d.Run != nil):
				t.Errorf("kept the infeasible job: %+v", d)
			case aborts(v.name) && j.AbortReason != "infeasible at f_m":
				t.Errorf("abort reason %q", j.AbortReason)
			case !aborts(v.name) && (len(d.Abort) != 0 || d.Run != j):
				t.Errorf("dropped the job: %+v", d)
			}
		})
	}
}

// TestFixedMaxFrequency: EDF-fm, DASA and GUS never scale the frequency.
func TestFixedMaxFrequency(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 1e6)
	for _, v := range variants {
		if v.name != "EDF-fm" && v.name != "DASA" && v.name != "GUS" {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			s := initOn(t, v.mk(), tk)
			j := job(tk, 1)
			if d := s.Decide(0, []*task.Job{j}); d.Freq != 1000e6 || d.Run != j {
				t.Errorf("decision = %+v", d)
			}
		})
	}
}
