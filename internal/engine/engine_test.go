package engine

import (
	"math"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// stepTask builds a deterministic periodic task: step TUF of the given
// height over window p, fixed demand of mean cycles (variance 0 so every
// job needs exactly mean cycles).
func stepTask(id int, p, height, mean float64) *task.Task {
	return &task.Task{
		ID:      id,
		Arrival: uam.Spec{A: 1, P: p},
		TUF:     tuf.NewStep(height, p),
		Demand:  task.Demand{Mean: mean, Variance: 0},
		Req:     task.Requirement{Nu: 1, Rho: 0.9},
	}
}

func baseConfig(ts task.Set, s sched.Scheduler, horizon float64) Config {
	ft := cpu.PowerNowK6()
	return Config{
		Tasks:              ts,
		Scheduler:          s,
		Freqs:              ft,
		Energy:             energy.MustPreset(energy.E1, ft.Max()),
		Horizon:            horizon,
		Seed:               1,
		AbortAtTermination: true,
	}
}

func TestSinglePeriodicTaskEDF(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 1e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 1.0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 10 {
		t.Fatalf("released %d jobs, want 10", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.State != task.Completed {
			t.Fatalf("job %v state %v", j, j.State)
		}
		// At f_m = 1 GHz a 1e6-cycle job takes exactly 1 ms.
		if got := j.FinishedAt - j.Arrival; math.Abs(got-1e-3) > 1e-9 {
			t.Fatalf("job %v sojourn %v, want 1ms", j, got)
		}
		if j.Utility != 10 {
			t.Fatalf("job %v utility %v", j, j.Utility)
		}
	}
	wantEnergy := 1e7 * cfg.Energy.PerCycle(1000e6)
	if math.Abs(res.TotalEnergy-wantEnergy) > 1e-6*wantEnergy {
		t.Fatalf("energy = %v, want %v", res.TotalEnergy, wantEnergy)
	}
	if math.Abs(res.Cycles-1e7) > 1 {
		t.Fatalf("cycles = %v", res.Cycles)
	}
	if math.Abs(res.BusyTime-0.01) > 1e-9 {
		t.Fatalf("busy = %v", res.BusyTime)
	}
}

func TestPreemptionEDFOrder(t *testing.T) {
	// Long low-priority-window task plus a short task arriving mid-run:
	// the short task has the earlier critical time and must preempt.
	long := stepTask(1, 1.0, 10, 100e6) // 100 ms at f_m
	short := stepTask(2, 0.05, 5, 10e6) // 10 ms at f_m
	// Short task arrives at 0.02 via offset.
	cfg := baseConfig(task.Set{long, short}, baseline.NewEDF(true), 0.06)
	cfg.Arrivals = func(tk *task.Task) uam.Generator {
		if tk.ID == 2 {
			return uam.Burst{S: tk.Arrival, Offset: 0.02}
		}
		return uam.Even{S: tk.Arrival}
	}
	cfg.RecordTrace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var shortJob, longJob *task.Job
	for _, j := range res.Jobs {
		switch j.Task.ID {
		case 1:
			longJob = j
		case 2:
			shortJob = j
		}
	}
	if shortJob == nil || longJob == nil {
		t.Fatal("missing jobs")
	}
	// Short: arrives 0.02, preempts, runs 10ms → completes at 0.03.
	if shortJob.State != task.Completed || math.Abs(shortJob.FinishedAt-0.03) > 1e-9 {
		t.Fatalf("short job finished at %v, state %v", shortJob.FinishedAt, shortJob.State)
	}
	// Long: 20ms before preemption + 10ms wait + 80ms after = done at 0.11.
	if longJob.State != task.Completed || math.Abs(longJob.FinishedAt-0.11) > 1e-9 {
		t.Fatalf("long job finished at %v, state %v", longJob.FinishedAt, longJob.State)
	}
	// After merging contiguous same-job spans (the engine may split a span
	// at any scheduling event), the trace must read long, short, long.
	var segs []*task.Job
	for _, sp := range res.Trace {
		if len(segs) == 0 || segs[len(segs)-1] != sp.Job {
			segs = append(segs, sp.Job)
		}
	}
	if len(segs) != 3 || segs[0] != longJob || segs[1] != shortJob || segs[2] != longJob {
		t.Fatalf("unexpected segment order: %v", segs)
	}
}

func TestOverloadAbortAtTermination(t *testing.T) {
	// Demand of 150 ms at f_m per 100 ms window: persistent overload.
	tk := stepTask(1, 0.1, 10, 150e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(false), 0.5) // no scheduler aborts
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aborted := 0
	for _, j := range res.Jobs {
		if j.State == task.Aborted {
			aborted++
			if j.Utility != 0 {
				t.Fatalf("aborted job %v has utility %v", j, j.Utility)
			}
			if math.Abs(j.FinishedAt-j.Termination) > 1e-9 {
				t.Fatalf("aborted job %v at %v, termination %v", j, j.FinishedAt, j.Termination)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no jobs aborted under persistent overload")
	}
}

func TestNoAbortRunsPastTermination(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 150e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(false), 0.3)
	cfg.AbortAtTermination = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("released %d jobs", len(res.Jobs))
	}
	lateZero := 0
	for _, j := range res.Jobs {
		if j.State != task.Completed {
			t.Fatalf("NA job %v state %v", j, j.State)
		}
		if j.FinishedAt > j.Termination {
			if j.Utility != 0 {
				t.Fatalf("late job %v accrued %v", j, j.Utility)
			}
			lateZero++
		}
	}
	if lateZero == 0 {
		t.Fatal("expected late completions with zero utility")
	}
	// All demanded cycles execute: 3 × 150e6.
	if math.Abs(res.Cycles-450e6) > 1 {
		t.Fatalf("cycles = %v", res.Cycles)
	}
}

func TestSchedulerAbortHonored(t *testing.T) {
	// EDF with abortion enabled drops the infeasible job immediately
	// rather than at its termination time.
	tk := stepTask(1, 0.1, 10, 150e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.State == task.Aborted && j.AbortReason != "infeasible at f_m" {
			t.Fatalf("job %v abort reason %q", j, j.AbortReason)
		}
	}
}

func TestDeterminism(t *testing.T) {
	tk := &task.Task{
		ID: 1, Arrival: uam.Spec{A: 2, P: 0.1},
		TUF:    tuf.NewLinear(10, 0, 0.1),
		Demand: task.Demand{Mean: 5e6, Variance: 5e6},
		Req:    task.Requirement{Nu: 0.3, Rho: 0.9},
	}
	run := func() *Result {
		cfg := baseConfig(task.Set{tk}, eua.New(), 2.0)
		cfg.Seed = 42
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalEnergy != b.TotalEnergy || a.Cycles != b.Cycles || len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.ActualCycles != jb.ActualCycles || ja.FinishedAt != jb.FinishedAt || ja.Utility != jb.Utility {
			t.Fatalf("job %d differs", i)
		}
	}
}

func TestSeedInvarianceAcrossSchedulers(t *testing.T) {
	// The same seed yields identical arrivals and demands whatever the
	// scheduler, so schemes are compared on the same workload.
	tk := &task.Task{
		ID: 1, Arrival: uam.Spec{A: 2, P: 0.1},
		TUF:    tuf.NewLinear(10, 0, 0.1),
		Demand: task.Demand{Mean: 5e6, Variance: 5e6},
		Req:    task.Requirement{Nu: 0.3, Rho: 0.9},
	}
	cfgA := baseConfig(task.Set{tk}, baseline.NewEDF(true), 1.0)
	cfgB := baseConfig(task.Set{tk}, eua.New(), 1.0)
	ra, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Jobs) != len(rb.Jobs) {
		t.Fatalf("different job counts: %d vs %d", len(ra.Jobs), len(rb.Jobs))
	}
	for i := range ra.Jobs {
		if ra.Jobs[i].Arrival != rb.Jobs[i].Arrival ||
			ra.Jobs[i].ActualCycles != rb.Jobs[i].ActualCycles {
			t.Fatalf("workload differs at job %d", i)
		}
	}
}

func TestEUASavesEnergyUnderload(t *testing.T) {
	// Light periodic load: EUA* must accrue the same (full) utility as
	// EDF@f_m while consuming strictly less energy (Figure 2's underload
	// region).
	ts := task.Set{
		stepTask(1, 0.1, 10, 5e6),
		stepTask(2, 0.05, 20, 2e6),
	}
	resEDF, err := Run(baseConfig(ts, baseline.NewEDF(true), 2.0))
	if err != nil {
		t.Fatal(err)
	}
	resEUA, err := Run(baseConfig(ts, eua.New(), 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if resEUA.TotalEnergy >= resEDF.TotalEnergy {
		t.Fatalf("EUA energy %v >= EDF energy %v", resEUA.TotalEnergy, resEDF.TotalEnergy)
	}
	utility := func(r *Result) float64 {
		u := 0.0
		for _, j := range r.Jobs {
			u += j.Utility
		}
		return u
	}
	if ue, ud := utility(resEUA), utility(resEDF); math.Abs(ue-ud) > 1e-9 {
		t.Fatalf("utility differs underload: EUA %v, EDF %v", ue, ud)
	}
	for _, j := range resEUA.Jobs {
		if j.State != task.Completed || j.FinishedAt > j.AbsCritical+1e-9 {
			t.Fatalf("EUA missed critical time for %v", j)
		}
	}
}

func TestEUAFrequencyScalesDown(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 1e6) // load ~1%
	cfg := baseConfig(task.Set{tk}, eua.New(), 0.5)
	cfg.RecordTrace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.Trace {
		if sp.Frequency != 360e6 {
			t.Fatalf("span at %g Hz, want the lowest step", sp.Frequency)
		}
	}
}

func TestObserverCalled(t *testing.T) {
	// ccEDF implements EventObserver; a successful run exercises the
	// callback path. Completion shrinks its utilization, so the chosen
	// frequency after an early completion can drop: just assert it runs.
	tk := stepTask(1, 0.1, 10, 5e6)
	res, err := Run(baseConfig(task.Set{tk}, baseline.NewCCEDF(true), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.State != task.Completed {
			t.Fatalf("job %v not completed", j)
		}
	}
}

func TestSwitchLatencyDelaysCompletion(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 1e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.1)
	cfg.SwitchLatency = 1e-3
	// EDF runs at f_m and the processor starts at f_m, so no switch occurs
	// and the latency must not affect anything.
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 {
		t.Fatalf("switches = %d", res.Switches)
	}
	j := res.Jobs[0]
	if math.Abs(j.FinishedAt-1e-3) > 1e-9 {
		t.Fatalf("finish = %v", j.FinishedAt)
	}

	// EUA drops to 360 MHz: one switch, completion delayed by the latency.
	cfg2 := baseConfig(task.Set{tk}, eua.New(), 0.1)
	cfg2.SwitchLatency = 1e-3
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Switches == 0 {
		t.Fatal("expected a frequency switch")
	}
	j2 := res2.Jobs[0]
	want := 1e-3 + 1e6/360e6
	if math.Abs(j2.FinishedAt-want) > 1e-9 {
		t.Fatalf("finish = %v, want %v", j2.FinishedAt, want)
	}
}

func TestConfigValidation(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 1e6)
	good := baseConfig(task.Set{tk}, baseline.NewEDF(true), 1)
	bad := []func(*Config){
		func(c *Config) { c.Tasks = nil },
		func(c *Config) { c.Scheduler = nil },
		func(c *Config) { c.Freqs = nil },
		func(c *Config) { c.Energy = energy.Model{} },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Horizon = math.Inf(1) },
		func(c *Config) { c.SwitchLatency = -1 },
	}
	for i, mod := range bad {
		cfg := good
		mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestUtilityAccruedAtCompletionTime(t *testing.T) {
	// Linear TUF: utility depends on completion instant; verify the exact
	// value U(sojourn) is credited.
	tk := &task.Task{
		ID: 1, Arrival: uam.Spec{A: 1, P: 0.1},
		TUF:    tuf.NewLinear(100, 0, 0.1),
		Demand: task.Demand{Mean: 10e6, Variance: 0},
		Req:    task.Requirement{Nu: 0.3, Rho: 0.9},
	}
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// 10 ms sojourn at f_m → U = 100·(1 − 0.01/0.1) = 90.
	if math.Abs(j.Utility-90) > 1e-6 {
		t.Fatalf("utility = %v, want 90", j.Utility)
	}
}

func TestBurstArrivalsSimultaneous(t *testing.T) {
	tk := &task.Task{
		ID: 1, Arrival: uam.Spec{A: 3, P: 0.1},
		TUF:    tuf.NewStep(10, 0.1),
		Demand: task.Demand{Mean: 1e6, Variance: 0},
		Req:    task.Requirement{Nu: 1, Rho: 0.9},
	}
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("released %d jobs, want 3 (simultaneous burst)", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Arrival != 0 || j.State != task.Completed {
			t.Fatalf("job %v: arrival %v state %v", j, j.Arrival, j.State)
		}
	}
	// Sequential completion at f_m: 1, 2, 3 ms.
	times := []float64{res.Jobs[0].FinishedAt, res.Jobs[1].FinishedAt, res.Jobs[2].FinishedAt}
	for i, want := range []float64{1e-3, 2e-3, 3e-3} {
		if math.Abs(times[i]-want) > 1e-9 {
			t.Fatalf("finish times = %v", times)
		}
	}
}

func TestTraceCyclesConserved(t *testing.T) {
	ts := task.Set{stepTask(1, 0.1, 10, 5e6), stepTask(2, 0.07, 5, 3e6)}
	cfg := baseConfig(ts, eua.New(), 1.0)
	cfg.RecordTrace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, sp := range res.Trace {
		sum += sp.Cycles
		if sp.End <= sp.Start {
			t.Fatalf("empty span %+v", sp)
		}
		want := (sp.End - sp.Start) * sp.Frequency
		if math.Abs(sp.Cycles-want) > 1e-3*want+1 {
			t.Fatalf("span cycles %v != dt·f %v", sp.Cycles, want)
		}
	}
	if math.Abs(sum-res.Cycles) > 1 {
		t.Fatalf("trace cycles %v != metered %v", sum, res.Cycles)
	}
}

// BenchmarkEngineThroughput measures end-to-end simulated jobs per second
// of wall time on the combined Table 1 style workload.
func BenchmarkEngineThroughput(b *testing.B) {
	ts := task.Set{
		stepTask(1, 0.02, 10, 1e6),
		stepTask(2, 0.05, 20, 2e6),
		stepTask(3, 0.08, 5, 3e6),
		stepTask(4, 0.03, 15, 1e6),
	}
	jobs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := baseConfig(ts, eua.New(), 1.0)
		cfg.Seed = uint64(i + 1)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(res.Jobs)
	}
	b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
}
