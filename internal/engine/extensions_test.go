package engine

import (
	"math"
	"testing"

	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/profile"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/task"
)

// --- Energy budget (finite battery, the paper's future-work scenario) ---

func TestEnergyBudgetDepletion(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 50e6) // heavy: 50 ms at f_m per 100 ms
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 1.0)
	// Budget for roughly 2.5 jobs at f_m.
	perJob := 50e6 * cfg.Energy.PerCycle(1000e6)
	cfg.EnergyBudget = 2.5 * perJob
	cfg.RecordTrace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Depleted {
		t.Fatal("budget not depleted")
	}
	if res.TotalEnergy > cfg.EnergyBudget*(1+1e-9) {
		t.Fatalf("energy %v exceeded budget %v", res.TotalEnergy, cfg.EnergyBudget)
	}
	completed, aborted := 0, 0
	for _, j := range res.Jobs {
		switch j.State {
		case task.Completed:
			completed++
			if j.FinishedAt > res.DepletedAt {
				t.Fatalf("job %v completed after depletion", j)
			}
		case task.Aborted:
			aborted++
		default:
			t.Fatalf("unresolved job %v", j)
		}
	}
	if completed != 2 {
		t.Fatalf("completed %d jobs, want 2 (the budget covers 2.5)", completed)
	}
	if aborted == 0 {
		t.Fatal("no jobs lost to depletion")
	}
}

func TestEnergyBudgetExactAccounting(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 50e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.3)
	perJob := 50e6 * cfg.Energy.PerCycle(1000e6)
	cfg.EnergyBudget = 1.5 * perJob
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The cut span must land the meter exactly on the budget.
	if math.Abs(res.TotalEnergy-cfg.EnergyBudget) > 1e-6*cfg.EnergyBudget {
		t.Fatalf("energy %v != budget %v", res.TotalEnergy, cfg.EnergyBudget)
	}
	// Depletion time: 1.5 jobs × 50 ms = 75 ms of f_m execution, but the
	// second job starts at 100 ms, so depletion hits at 125 ms.
	if math.Abs(res.DepletedAt-0.125) > 1e-9 {
		t.Fatalf("depleted at %v, want 0.125", res.DepletedAt)
	}
}

func TestEnergyBudgetGenerousNeverDepletes(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 1e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.5)
	cfg.EnergyBudget = 1e9 * cfg.Energy.PerCycle(1000e6)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Depleted {
		t.Fatal("generous budget depleted")
	}
	for _, j := range res.Jobs {
		if j.State != task.Completed {
			t.Fatalf("job %v not completed", j)
		}
	}
}

func TestEnergyBudgetDVSStretchesBattery(t *testing.T) {
	// The headline motivation: under the same budget, EUA* (DVS) completes
	// more jobs than EDF at f_m before the battery dies.
	tk := stepTask(1, 0.1, 10, 20e6)
	budget := 10 * 20e6 * energy.MustPreset(energy.E1, 1000e6).PerCycle(1000e6)
	count := func(s func() Config) int {
		cfg := s()
		cfg.EnergyBudget = budget
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, j := range res.Jobs {
			if j.State == task.Completed && j.Utility > 0 {
				n++
			}
		}
		return n
	}
	edfJobs := count(func() Config { return baseConfig(task.Set{tk}, baseline.NewEDF(true), 10) })
	euaJobs := count(func() Config { return baseConfig(task.Set{tk}, eua.New(), 10) })
	if euaJobs <= edfJobs {
		t.Fatalf("EUA* %d jobs <= EDF %d jobs under the same budget", euaJobs, edfJobs)
	}
	// At 360 MHz the per-cycle energy is ~13% of f_m's, so the gap should
	// be large, not marginal.
	if euaJobs < 3*edfJobs {
		t.Fatalf("EUA* %d vs EDF %d: expected a multiple-fold battery stretch", euaJobs, edfJobs)
	}
}

func TestNegativeBudgetRejected(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 1e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.5)
	cfg.EnergyBudget = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// --- Online profiling (Section 2.3) ---

func TestOnlineProfilingConvergesToTruth(t *testing.T) {
	// Design-time prior badly underestimates the true demand; the online
	// profile must converge and restore correct allocations.
	tk := &task.Task{
		ID: 1, Arrival: stepTask(1, 0.1, 10, 1).Arrival,
		TUF:      stepTask(1, 0.1, 10, 1).TUF,
		Demand:   task.Demand{Mean: 20e6, Variance: 20e6}, // truth
		Req:      task.Requirement{Nu: 1, Rho: 0.9},
		Profiler: profile.MustNew(2e6, 2e6, 10), // 10× underestimate
	}
	cfg := baseConfig(task.Set{tk}, eua.New(), 5.0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tk.Profiler.Ready() {
		t.Fatal("profiler never warmed up")
	}
	if m := tk.Profiler.Mean(); math.Abs(m-20e6) > 2e6 {
		t.Fatalf("profiled mean = %v, want ~20e6", m)
	}
	// After warm-up the allocation reflects the truth.
	if c := tk.CycleAllocation(); c < 20e6 {
		t.Fatalf("allocation %v below the true mean", c)
	}
	// The tail of the run (post warm-up) must meet the requirement.
	late := res.Jobs[len(res.Jobs)/2:]
	missed := 0
	for _, j := range late {
		if !j.MetRequirement() {
			missed++
		}
	}
	if frac := float64(missed) / float64(len(late)); frac > 0.1 {
		t.Fatalf("post-warm-up miss fraction %v", frac)
	}
}

func TestOnlineProfilingObservesOnlyCompletions(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 150e6) // overload: many aborts
	tk.Profiler = profile.MustNew(150e6, 0, 1)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(false), 0.5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, j := range res.Jobs {
		if j.State == task.Completed {
			completed++
		}
	}
	if tk.Profiler.N() != completed {
		t.Fatalf("profiler saw %d samples, %d jobs completed", tk.Profiler.N(), completed)
	}
}

func TestProfilerPriorDrivesAllocationBeforeWarmup(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 5e6)
	tk.Profiler = profile.MustNew(9e6, 0, 1000) // never warms in this test
	if c := tk.CycleAllocation(); c != 9e6 {
		t.Fatalf("allocation %v, want the prior 9e6", c)
	}
	if d := tk.EffectiveDemand(); d.Mean != 9e6 {
		t.Fatalf("effective demand %v", d)
	}
}

func TestDepletionResolvesEveryJob(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 50e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.5)
	cfg.EnergyBudget = 1.2 * 50e6 * cfg.Energy.PerCycle(1000e6)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	completed, aborted := 0, 0
	for _, j := range res.Jobs {
		switch j.State {
		case task.Completed:
			completed++
		case task.Aborted:
			aborted++
		default:
			t.Fatalf("unresolved job %v after depletion", j)
		}
	}
	if completed+aborted != len(res.Jobs) || aborted == 0 {
		t.Fatalf("completed %d aborted %d of %d", completed, aborted, len(res.Jobs))
	}
}

// --- Progress-based utility accrual (future work #2) ---

func TestProgressUtilityPartialCredit(t *testing.T) {
	// One job per window, demand 150 ms at f_m, window 100 ms: each job is
	// ~2/3 done when its termination aborts it.
	tk := stepTask(1, 0.1, 30, 150e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(false), 0.3)
	cfg.ProgressUtility = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawPartial := false
	for _, j := range res.Jobs {
		if j.State != task.Aborted {
			continue
		}
		want := 30 * j.Executed / j.ActualCycles
		if math.Abs(j.Utility-want) > 1e-6*want {
			t.Fatalf("job %v utility %v, want %v", j, j.Utility, want)
		}
		if j.Utility > 0 {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no partial utility accrued")
	}
}

func TestProgressUtilityOffByDefault(t *testing.T) {
	tk := stepTask(1, 0.1, 30, 150e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(false), 0.3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.State == task.Aborted && j.Utility != 0 {
			t.Fatalf("classic mode accrued %v for aborted %v", j.Utility, j)
		}
	}
}

func TestProgressUtilityNeverExceedsFull(t *testing.T) {
	tk := stepTask(1, 0.1, 30, 150e6)
	cfg := baseConfig(task.Set{tk}, eua.New(), 0.5)
	cfg.ProgressUtility = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Utility > j.Task.TUF.MaxUtility()*(1+1e-9) {
			t.Fatalf("job %v utility %v exceeds Umax", j, j.Utility)
		}
	}
}

// --- Idle static power ---

func TestIdleStaticPowerCharged(t *testing.T) {
	// 10 ms of work per 100 ms window at f_m: 90% idle.
	tk := stepTask(1, 0.1, 10, 10e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.5)
	cfg.IdleStaticPower = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleEnergy <= 0 {
		t.Fatal("no idle energy charged")
	}
	// Idle time: total span minus busy. With 5 jobs of 10 ms each the last
	// completion is at 0.41; idle = 0.41 − 0.05 = 0.36 s → 36 units.
	wantIdle := (res.EndTime - res.BusyTime) * 100
	if math.Abs(res.IdleEnergy-wantIdle) > 1e-6*wantIdle {
		t.Fatalf("idle energy %v, want %v", res.IdleEnergy, wantIdle)
	}
	// The total includes both components.
	busy := res.Cycles * cfg.Energy.PerCycle(1000e6)
	if math.Abs(res.TotalEnergy-(busy+res.IdleEnergy)) > 1e-6*res.TotalEnergy {
		t.Fatalf("total %v != busy %v + idle %v", res.TotalEnergy, busy, res.IdleEnergy)
	}
}

func TestIdleStaticPowerOffByDefault(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 10e6)
	res, err := Run(baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleEnergy != 0 {
		t.Fatalf("idle energy %v without IdleStaticPower", res.IdleEnergy)
	}
}

func TestIdleStaticPowerRejectsNegative(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 1e6)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.5)
	cfg.IdleStaticPower = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative idle power accepted")
	}
}

// TestIdlePowerChangesRaceToIdleTradeoff: with a large idle draw, running
// slow-and-long is no longer automatically cheaper; the idle component
// shrinks as busy time grows, partially offsetting the DVS saving.
func TestIdlePowerChangesRaceToIdleTradeoff(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 10e6)
	run := func(s func() Config, idle float64) *Result {
		cfg := s()
		cfg.IdleStaticPower = idle
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mkEUA := func() Config { return baseConfig(task.Set{tk}, eua.New(), 0.5) }
	mkEDF := func() Config { return baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.5) }
	// Without idle draw EUA* wins big; with a huge idle draw the gap
	// narrows because EDF's shorter busy time buys more idle... which
	// costs the same either way (same horizon) — the *ratio* must shrink.
	rEUA0, rEDF0 := run(mkEUA, 0), run(mkEDF, 0)
	big := 1e27 // comparable to the busy energies in model units
	rEUA1, rEDF1 := run(mkEUA, big), run(mkEDF, big)
	gap0 := rEUA0.TotalEnergy / rEDF0.TotalEnergy
	gap1 := rEUA1.TotalEnergy / rEDF1.TotalEnergy
	if gap1 <= gap0 {
		t.Fatalf("idle draw did not narrow the DVS advantage: %v vs %v", gap0, gap1)
	}
}
