package engine

import (
	"errors"
	"math"
	"testing"

	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/uam"
)

// TestOverrunForcesAbortAndMetersAbortCost injects guaranteed
// execution-time overruns: jobs that fit comfortably at f_m now exceed
// their termination time, are aborted there, and each abort's teardown
// cycles are metered into the energy account without appearing as
// execution.
func TestOverrunForcesAbortAndMetersAbortCost(t *testing.T) {
	// 6 ms of work in a 10 ms window at f_m: healthy jobs complete; a 3x
	// overrun (18 ms) cannot.
	tk := stepTask(1, 0.01, 10, 6e6)
	plan := &faults.Plan{Seed: 9, OverrunProb: 1, OverrunFactor: 3}
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.1)
	cfg.Faults = plan
	cfg.AbortCost = 5e4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aborted := 0
	for _, j := range res.Jobs {
		if j.State == task.Aborted {
			aborted++
			if j.FinishedAt > j.Termination+1e-9 {
				t.Fatalf("job %v aborted after its termination time", j)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("no aborts despite guaranteed 3x overruns")
	}
	if res.FaultEvents != len(res.Jobs) {
		t.Fatalf("FaultEvents = %d, want one per released job (%d)", res.FaultEvents, len(res.Jobs))
	}
	wantAbortCycles := cfg.AbortCost * float64(aborted)
	if math.Abs(res.AbortCycles-wantAbortCycles) > 1 {
		t.Fatalf("AbortCycles = %g, want %g (%d aborts x %g)", res.AbortCycles, wantAbortCycles, aborted, cfg.AbortCost)
	}

	// The identical run without the teardown cost must consume strictly
	// less energy: abort cycles are charged to the meter.
	cfg2 := cfg
	cfg2.AbortCost = 0
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergy <= res2.TotalEnergy {
		t.Fatalf("abort cost not metered: energy %g with cost, %g without", res.TotalEnergy, res2.TotalEnergy)
	}
	if sumUtility(res) != sumUtility(res2) {
		t.Fatalf("abort cost changed utility (%g vs %g); it must be energy-only", sumUtility(res), sumUtility(res2))
	}
}

func sumUtility(res *Result) float64 {
	var u float64
	for _, j := range res.Jobs {
		u += j.Utility
	}
	return u
}

// TestFaultInjectionDeterministic pins the reproducibility contract: the
// same plan on the same config yields bit-identical results.
func TestFaultInjectionDeterministic(t *testing.T) {
	mk := func() Config {
		ts := task.Set{stepTask(1, 0.01, 10, 3e6), stepTask(2, 0.02, 20, 5e6)}
		cfg := baseConfig(ts, eua.New(), 0.2)
		cfg.Faults = &faults.Plan{
			Seed: 3, OverrunProb: 0.3, OverrunFactor: 2,
			StickyProb: 0.5, StallProb: 0.5, Stall: 1e-4,
			AbortSpikeProb: 0.5,
		}
		cfg.AbortCost = 1e4
		return cfg
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergy != b.TotalEnergy || sumUtility(a) != sumUtility(b) ||
		a.FaultEvents != b.FaultEvents || a.AbortCycles != b.AbortCycles ||
		a.Switches != b.Switches {
		t.Fatalf("fault-injected runs differ: %+v vs %+v", a, b)
	}
}

// TestStickySwitchChangesOutcome: with every frequency switch sticking to
// a neighbouring step, the realized schedule must differ from the healthy
// one, and every sticky event must be counted.
func TestStickySwitchChangesOutcome(t *testing.T) {
	ts := task.Set{stepTask(1, 0.01, 10, 2e6), stepTask(2, 0.025, 30, 6e6)}
	cfg := baseConfig(ts, eua.New(), 0.2)
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Switches == 0 {
		t.Skip("workload produced no frequency switches; sticky fault unobservable")
	}
	cfg.Faults = &faults.Plan{Seed: 2, StickyProb: 1}
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.FaultEvents == 0 {
		t.Fatal("StickyProb=1 with switches produced no fault events")
	}
	if faulty.TotalEnergy == clean.TotalEnergy {
		t.Fatal("sticky switches left energy bit-identical; injection ineffective")
	}
}

// TestInterruptPreClosed: a closed Interrupt channel stops the run at the
// first event with the ErrInterrupted sentinel.
func TestInterruptPreClosed(t *testing.T) {
	intr := make(chan struct{})
	close(intr)
	cfg := baseConfig(task.Set{stepTask(1, 0.01, 10, 1e6)}, baseline.NewEDF(true), 1.0)
	cfg.Interrupt = intr
	if _, err := Run(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

// TestSafeModeShedsLowUER: sustained overload with the safe mode armed
// must shed pending jobs (counted, aborted as "safe mode shed") instead
// of thrashing through every doomed job.
func TestSafeModeShedsLowUER(t *testing.T) {
	// A healthy ~0.9-load set whose every job secretly overruns 3x. The
	// scheduler's admission check sees the estimated demand, so it cannot
	// abort these jobs as infeasible — they surface as termination-time
	// misses, exactly the overload signature the safe mode watches for.
	ts := task.Set{
		stepTask(1, 0.01, 10, 4e6),
		stepTask(2, 0.012, 20, 4e6),
		stepTask(3, 0.03, 30, 4e6),
	}
	cfg := baseConfig(ts, baseline.NewEDF(true), 0.2)
	cfg.Faults = &faults.Plan{Seed: 5, OverrunProb: 1, OverrunFactor: 3}
	cfg.SafeModeMisses = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SafeModeEntries == 0 || res.JobsShed == 0 {
		t.Fatalf("safe mode never fired under sustained overruns: entries=%d shed=%d", res.SafeModeEntries, res.JobsShed)
	}
	shedSeen := 0
	for _, j := range res.Jobs {
		if j.State == task.Aborted && j.AbortReason == shedReason {
			shedSeen++
		}
	}
	if shedSeen != res.JobsShed {
		t.Fatalf("%d jobs marked shed, counter says %d", shedSeen, res.JobsShed)
	}

	// The same overload without the safe mode must not shed.
	cfg.SafeModeMisses = 0
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.JobsShed != 0 || res2.SafeModeEntries != 0 {
		t.Fatalf("disarmed safe mode shed jobs: %+v", res2)
	}
}

// violatingGen emits arrivals that break the task's own UAM window bound
// (two arrivals P/10 apart for an A=1 task).
type violatingGen struct{ s uam.Spec }

func (g violatingGen) Spec() uam.Spec { return g.s }
func (g violatingGen) Name() string   { return "violating" }
func (g violatingGen) Generate(horizon float64, _ *rng.Source) []float64 {
	return []float64{0, g.s.P / 10}
}

// TestWatchdogFlagsUAMViolation: arrivals denser than the declared
// ⟨a, P⟩ bound must surface as a structured InvariantError, not a corrupt
// result.
func TestWatchdogFlagsUAMViolation(t *testing.T) {
	tk := stepTask(1, 0.01, 10, 1e5)
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.05)
	cfg.Arrivals = func(t *task.Task) uam.Generator { return violatingGen{s: t.Arrival} }
	_, err := Run(cfg)
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InvariantError", err)
	}
	if ie.Invariant != InvUAMCompliance {
		t.Fatalf("invariant = %q, want %q", ie.Invariant, InvUAMCompliance)
	}
}

// TestValidateRejectsDegradationKnobs pins the hardened Config.Validate
// on the new fields.
func TestValidateRejectsDegradationKnobs(t *testing.T) {
	base := baseConfig(task.Set{stepTask(1, 0.01, 10, 1e6)}, baseline.NewEDF(true), 0.1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative abort cost", func(c *Config) { c.AbortCost = -1 }},
		{"NaN abort cost", func(c *Config) { c.AbortCost = math.NaN() }},
		{"inf abort cost", func(c *Config) { c.AbortCost = math.Inf(1) }},
		{"negative safe-mode misses", func(c *Config) { c.SafeModeMisses = -1 }},
		{"shed fraction above 1", func(c *Config) { c.SafeModeShed = 1.5 }},
		{"negative shed fraction", func(c *Config) { c.SafeModeShed = -0.1 }},
		{"NaN horizon", func(c *Config) { c.Horizon = math.NaN() }},
		{"negative switch latency", func(c *Config) { c.SwitchLatency = -1e-6 }},
		{"NaN energy budget", func(c *Config) { c.EnergyBudget = math.NaN() }},
		{"invalid fault plan", func(c *Config) { c.Faults = &faults.Plan{OverrunProb: 2} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.mut(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatalf("%s accepted", c.name)
			}
		})
	}
}
