package baseline

import (
	"fmt"
	"strings"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/profile"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
	"github.com/euastar/euastar/internal/workload"
)

// The baseline differential: every production baseline runs each
// workload of a grid beside its reference twin (reference_test.go), and
// the two runs must be identical bit for bit — every job's state, finish
// time, executed cycles and utility, the energy accounting, every trace
// span and the feasibility-iteration count. The grid is each scheme ×
// step and linear TUFs × loads {0.4, 0.9, 1.6} × seeds 1–3, with and
// without online profilers on half the tasks (a profiler moves c_i
// between decisions, which the table must follow). UA also runs with
// shared resource sections, so that GUS's blocking chains form.

// diffSchemes lists every baseline constructor.
var diffSchemes = []func() sched.Scheduler{
	func() sched.Scheduler { return NewEDF(true) },
	func() sched.Scheduler { return NewEDF(false) },
	func() sched.Scheduler { return NewStaticEDF(true) },
	func() sched.Scheduler { return NewStaticEDF(false) },
	func() sched.Scheduler { return NewCCEDF(true) },
	func() sched.Scheduler { return NewCCEDF(false) },
	func() sched.Scheduler { return NewLAEDF(true) },
	func() sched.Scheduler { return NewLAEDF(false) },
	func() sched.Scheduler { return NewDASA() },
	func() sched.Scheduler { return NewGUS() },
}

// diffConfig builds one run of s: a freshly synthesized task set (the
// same floats on every call) with fresh profilers, so the two sides of a
// case share no mutable state.
func diffConfig(s sched.Scheduler, shape workload.Shape, load float64, seed uint64, profiled, sections bool) engine.Config {
	ft := cpu.PowerNowK6()
	app := []workload.App{workload.A1(), workload.A2(), workload.A3()}[seed%3]
	ts := app.MustSynthesize(rng.New(seed*0x9e3779b9), workload.Options{Shape: shape}).ScaleToLoad(load, ft.Max())
	for i, tk := range ts {
		if profiled && i%2 == 0 {
			est, err := profile.New(tk.Demand.Mean*1.3, tk.Demand.Variance, 4)
			if err != nil {
				panic(err)
			}
			tk.Profiler = est
		}
		if sections && i < 3 {
			tk.Sections = []task.Section{{Resource: 1, Start: 0.1 * float64(i+1), End: 0.1*float64(i+1) + 0.4}}
		}
	}
	return engine.Config{
		Tasks:              ts,
		Scheduler:          s,
		Freqs:              ft,
		Energy:             energy.MustPreset(energy.E1, ft.Max()),
		Horizon:            0.5,
		Seed:               seed,
		AbortAtTermination: !strings.HasSuffix(s.Name(), "-NA"),
		RecordTrace:        true,
		Telemetry:          telemetry.NewRegistry(),
	}
}

func TestBaselineDifferential(t *testing.T) {
	cases := 0
	for _, mk := range diffSchemes {
		name := mk().Name()
		sections := []bool{false}
		if _, ua := mk().(*UA); ua {
			sections = append(sections, true)
		}
		for _, shape := range []workload.Shape{workload.Step, workload.LinearDecay} {
			for _, load := range []float64{0.4, 0.9, 1.6} {
				for seed := uint64(1); seed <= 3; seed++ {
					for _, profiled := range []bool{false, true} {
						for _, sec := range sections {
							cases++
							label := fmt.Sprintf("%s/%s-L%.1f-s%d-prof=%v-sec=%v", name, shape, load, seed, profiled, sec)
							t.Run(label, func(t *testing.T) {
								t.Parallel()
								s := mk()
								refCfg := diffConfig(reference(s), shape, load, seed, profiled, sec)
								gotCfg := diffConfig(s, shape, load, seed, profiled, sec)
								ref, err := engine.Run(refCfg)
								if err != nil {
									t.Fatalf("reference run: %v", err)
								}
								got, err := engine.Run(gotCfg)
								if err != nil {
									t.Fatalf("run: %v", err)
								}
								requireSameRun(t, ref, got)
								if a, b := feasIterations(refCfg.Telemetry), feasIterations(gotCfg.Telemetry); a != b {
									t.Fatalf("feasibility iterations: reference %v, baseline %v", a, b)
								}
							})
						}
					}
				}
			}
		}
	}
	if cases < 8*2*3*3*2 {
		t.Fatalf("grid shrank to %d cases", cases)
	}
}

// feasIterations sums a run's feasibility-iteration counters.
func feasIterations(reg *telemetry.Registry) float64 {
	total := 0.0
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == sched.MetricFeasIters {
			total += m.Value
		}
	}
	return total
}

// requireSameRun compares two results with exact equality.
func requireSameRun(t *testing.T, ref, got *engine.Result) {
	t.Helper()
	for _, f := range []struct {
		name     string
		ref, got float64
	}{
		{"TotalEnergy", ref.TotalEnergy, got.TotalEnergy},
		{"IdleEnergy", ref.IdleEnergy, got.IdleEnergy},
		{"Cycles", ref.Cycles, got.Cycles},
		{"BusyTime", ref.BusyTime, got.BusyTime},
		{"EndTime", ref.EndTime, got.EndTime},
		{"AbortCycles", ref.AbortCycles, got.AbortCycles},
		{"Decisions", float64(ref.Decisions), float64(got.Decisions)},
		{"Switches", float64(ref.Switches), float64(got.Switches)},
		{"Jobs", float64(len(ref.Jobs)), float64(len(got.Jobs))},
		{"TraceSpans", float64(len(ref.Trace)), float64(len(got.Trace))},
	} {
		if f.ref != f.got {
			t.Fatalf("%s: reference %v, baseline %v", f.name, f.ref, f.got)
		}
	}
	for i := range ref.Jobs {
		a, b := ref.Jobs[i], got.Jobs[i]
		if a.Task.ID != b.Task.ID || a.Index != b.Index {
			t.Fatalf("job %d: %v vs %v", i, a, b)
		}
		if a.State != b.State || a.FinishedAt != b.FinishedAt || a.Executed != b.Executed ||
			a.Utility != b.Utility || a.AbortReason != b.AbortReason {
			t.Fatalf("job %v: reference %v at %v, %v cycles, utility %v, %q; baseline %v at %v, %v cycles, utility %v, %q",
				a, a.State, a.FinishedAt, a.Executed, a.Utility, a.AbortReason,
				b.State, b.FinishedAt, b.Executed, b.Utility, b.AbortReason)
		}
	}
	for i := range ref.Trace {
		a, b := ref.Trace[i], got.Trace[i]
		if a.Job.Task.ID != b.Job.Task.ID || a.Job.Index != b.Job.Index ||
			a.Start != b.Start || a.End != b.End || a.Frequency != b.Frequency || a.Cycles != b.Cycles {
			t.Fatalf("span %d: reference %v [%v,%v]@%v/%v, baseline %v [%v,%v]@%v/%v",
				i, a.Job, a.Start, a.End, a.Frequency, a.Cycles, b.Job, b.Start, b.End, b.Frequency, b.Cycles)
		}
	}
}

// TestCCEDFReleaseFollowsProfiler pins the case the grid rarely meets: a
// profiled task's moments move after a decision (a censored abort or a
// completion in the same batch as the release), and ccEDF's ledger must
// take the rate from the moved moments, as the reference does.
func TestCCEDFReleaseFollowsProfiler(t *testing.T) {
	tk := &task.Task{
		ID: 1, Arrival: uam.Spec{A: 2, P: 0.1},
		TUF:      tuf.NewStep(10, 0.1),
		Demand:   task.Demand{Mean: 1e6, Variance: 1e10},
		Req:      task.Requirement{Nu: 1, Rho: 0.9},
		Profiler: profile.MustNew(1e6, 1e10, 1),
	}
	ft := cpu.PowerNowK6()
	s := NewCCEDF(true)
	r := reference(NewCCEDF(true)).(*refCCEDF)
	for _, x := range []sched.Scheduler{s, r} {
		if err := x.Init(&sched.Context{Tasks: task.Set{tk}, Freqs: ft, Energy: energy.MustPreset(energy.E1, ft.Max())}); err != nil {
			t.Fatal(err)
		}
		x.Decide(0, []*task.Job{task.NewJob(tk, 0, 0, rng.New(1))})
	}
	before := tk.MinFrequency()
	tk.Profiler.Observe(4e6)
	if tk.MinFrequency() == before {
		t.Fatal("the observation did not move the allocation")
	}
	j := task.NewJob(tk, 1, 0.05, rng.New(2))
	s.OnRelease(0.05, j)
	r.OnRelease(0.05, j)
	if s.util[0] != r.util[0] || s.util[0] != tk.MinFrequency() {
		t.Fatalf("ledger after release: %v, reference %v, task %v", s.util[0], r.util[0], tk.MinFrequency())
	}
}
