package partition_test

import (
	"strings"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/edf"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/workload"
)

func euaFactory() sched.Scheduler { return eua.New() }

// testSet synthesizes an A2 task set scaled to the given system load.
func testSet(load float64, seed uint64) task.Set {
	ft := cpu.PowerNowK6()
	ts := workload.A2().MustSynthesize(rng.New(seed*0x9e3779b9), workload.Options{Shape: workload.Step})
	return ts.ScaleToLoad(load, ft.Max())
}

func testCtx(ts task.Set) *sched.Context {
	ft := cpu.PowerNowK6()
	return &sched.Context{Tasks: ts, Freqs: ft, Energy: energy.MustPreset(energy.E1, ft.Max())}
}

func TestParsePolicy(t *testing.T) {
	for _, s := range []string{"ff", "wf"} {
		p, err := partition.ParsePolicy(s)
		if err != nil || string(p) != s {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := partition.ParsePolicy("best-fit"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestNames(t *testing.T) {
	if got := partition.New(1, partition.FirstFit, euaFactory).Name(); got != "EUA*" {
		t.Fatalf("1-core name %q, want the bare scheme name", got)
	}
	if got := partition.New(4, partition.FirstFit, euaFactory).Name(); got != "EUA*/P4ff" {
		t.Fatalf("4-core first-fit name %q", got)
	}
	if got := partition.New(2, partition.WorstFit, euaFactory).Name(); got != "EUA*/P2wf" {
		t.Fatalf("2-core worst-fit name %q", got)
	}
	if got := partition.NewGlobal(1).Name(); got != "G-UER" {
		t.Fatalf("1-core global name %q", got)
	}
	if got := partition.NewGlobal(4).Name(); got != "G-UER/4" {
		t.Fatalf("4-core global name %q", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("zero cores", func() { partition.New(0, partition.FirstFit, euaFactory) })
	expectPanic("bad policy", func() { partition.New(2, Policy("mid-fit"), euaFactory) })
	expectPanic("nil factory", func() { partition.New(2, partition.FirstFit, nil) })
	expectPanic("zero-core global", func() { partition.NewGlobal(0) })

	p := partition.New(2, partition.FirstFit, euaFactory)
	if err := p.Init(testCtx(testSet(0.8, 1))); err != nil {
		t.Fatal(err)
	}
	expectPanic("Decide on multi-core", func() { p.Decide(0, nil) })
}

// Policy re-exported locally so the bad-policy panic test can construct
// an invalid value without a conversion at the call site.
type Policy = partition.Policy

func TestAssignment(t *testing.T) {
	ts := testSet(1.2, 3)
	for _, policy := range []partition.Policy{partition.FirstFit, partition.WorstFit} {
		p := partition.New(4, policy, euaFactory)
		if err := p.Init(testCtx(ts)); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		assign := p.Assignment()
		if len(assign) != len(ts) {
			t.Fatalf("%s: %d of %d tasks assigned", policy, len(assign), len(ts))
		}
		used := map[int]bool{}
		for _, tk := range ts {
			k, ok := assign[tk.ID]
			if !ok {
				t.Fatalf("%s: task %d unassigned", policy, tk.ID)
			}
			if k < 0 || k >= 4 {
				t.Fatalf("%s: task %d on core %d", policy, tk.ID, k)
			}
			used[k] = true
		}
		if len(used) < 2 {
			t.Fatalf("%s: an A2 set at load 1.2 packed onto %d core(s)", policy, len(used))
		}
		// The assignment must be deterministic: a second Init reproduces it.
		q := partition.New(4, policy, euaFactory)
		if err := q.Init(testCtx(ts)); err != nil {
			t.Fatal(err)
		}
		for id, k := range assign {
			if q.Assignment()[id] != k {
				t.Fatalf("%s: assignment not deterministic for task %d", policy, id)
			}
		}
	}
}

// TestOverloadFallback drives a set no single core can admit: every
// task must still land somewhere (the least-utilized core).
func TestOverloadFallback(t *testing.T) {
	ts := testSet(3.5, 2)
	p := partition.New(2, partition.FirstFit, euaFactory)
	if err := p.Init(testCtx(ts)); err != nil {
		t.Fatal(err)
	}
	if len(p.Assignment()) != len(ts) {
		t.Fatalf("%d of %d tasks assigned under overload", len(p.Assignment()), len(ts))
	}
}

// runPartitioned runs one multi-core simulation through the engine.
func runPartitioned(t *testing.T, s sched.Scheduler, cores int, ts task.Set, horizon float64) *engine.Result {
	t.Helper()
	ft := cpu.PowerNowK6()
	res, err := engine.Run(engine.Config{
		Tasks:              ts,
		Scheduler:          s,
		Freqs:              ft,
		Energy:             energy.MustPreset(energy.E1, ft.Max()),
		Cores:              cores,
		Horizon:            horizon,
		Seed:               1,
		AbortAtTermination: true,
		RecordTrace:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPartitionedRun(t *testing.T) {
	ts := testSet(1.6, 1)
	res := runPartitioned(t, partition.New(2, partition.WorstFit, euaFactory), 2, ts, 0.3)
	if res.Cores != 2 {
		t.Fatalf("Cores = %d", res.Cores)
	}
	if res.Migrations != 0 {
		t.Fatalf("partitioned run migrated %d times", res.Migrations)
	}
	var sum float64
	for _, c := range res.PerCore {
		sum += c.Energy
	}
	if sum != res.TotalEnergy {
		t.Fatalf("per-core energies sum to %v, total %v", sum, res.TotalEnergy)
	}
	if !strings.HasPrefix(res.SchedulerName, "EUA*/P2") {
		t.Fatalf("scheduler name %q", res.SchedulerName)
	}
	// Each task's spans stay on its assigned core: partitioning means no
	// migration by construction, not just by counter.
	coreOf := map[int]int{}
	for _, sp := range res.Trace {
		if k, ok := coreOf[sp.Job.Task.ID]; ok && k != sp.Core {
			t.Fatalf("task %d executed on cores %d and %d", sp.Job.Task.ID, k, sp.Core)
		}
		coreOf[sp.Job.Task.ID] = sp.Core
	}
}

// TestPartitionedEDF exercises a wrapped scheme without observer hooks.
func TestPartitionedEDF(t *testing.T) {
	res := runPartitioned(t,
		partition.New(2, partition.FirstFit, func() sched.Scheduler { return edf.New(true) }),
		2, testSet(0.9, 1), 0.2)
	if res.SchedulerName == "" || res.Cycles <= 0 {
		t.Fatalf("empty run: %+v", res)
	}
}

// TestPartitionedBudget exercises the OnEnergy fan-out: a budget-aware
// EUA* on each core must see the system-wide spend and deplete cleanly.
func TestPartitionedBudget(t *testing.T) {
	ft := cpu.PowerNowK6()
	res, err := engine.Run(engine.Config{
		Tasks:              testSet(1.2, 2),
		Scheduler:          partition.New(2, partition.WorstFit, func() sched.Scheduler { return eua.New(eua.WithBudgetAwareness(0)) }),
		Freqs:              ft,
		Energy:             energy.MustPreset(energy.E1, ft.Max()),
		Cores:              2,
		Horizon:            0.3,
		Seed:               2,
		EnergyBudget:       2e26,
		AbortAtTermination: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Depleted {
		t.Skip("budget did not bind; tighten it if the workload changed")
	}
	if res.TotalEnergy > 2e26*(1+1e-9) {
		t.Fatalf("spent %v past the 2e26 budget", res.TotalEnergy)
	}
}

func TestGlobalRun(t *testing.T) {
	ts := testSet(1.6, 1)
	res := runPartitioned(t, partition.NewGlobal(2), 2, ts, 0.3)
	if res.SchedulerName != "G-UER/2" {
		t.Fatalf("scheduler name %q", res.SchedulerName)
	}
	var sum float64
	for _, c := range res.PerCore {
		sum += c.Energy
	}
	if sum != res.TotalEnergy {
		t.Fatalf("per-core energies sum to %v, total %v", sum, res.TotalEnergy)
	}
	var util float64
	for _, j := range res.Jobs {
		util += j.Utility
	}
	if util <= 0 {
		t.Fatal("global dispatch accrued no utility")
	}
}

// TestGlobalUniprocessor runs the m = 1 degenerate case through the
// plain Decide path.
func TestGlobalUniprocessor(t *testing.T) {
	ft := cpu.PowerNowK6()
	res, err := engine.Run(engine.Config{
		Tasks:              testSet(0.9, 1),
		Scheduler:          partition.NewGlobal(1),
		Freqs:              ft,
		Energy:             energy.MustPreset(energy.E1, ft.Max()),
		Horizon:            0.2,
		Seed:               1,
		AbortAtTermination: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 1 || res.Migrations != 0 {
		t.Fatalf("Cores=%d Migrations=%d", res.Cores, res.Migrations)
	}
}

// TestHeterogeneousPartition packs onto a big.LITTLE pair: the little
// core's lower f_max must shrink what the admission test lets it take.
func TestHeterogeneousPartition(t *testing.T) {
	ts := testSet(1.0, 4)
	ft := cpu.PowerNowK6()
	little := cpu.Uniform(200e6, 500e6, 4)
	ctx := testCtx(ts)
	ctx.CoreFreqs = []cpu.FrequencyTable{ft, little}
	p := partition.New(2, partition.WorstFit, euaFactory)
	if err := p.Init(ctx); err != nil {
		t.Fatal(err)
	}
	var bigRate, littleRate float64
	for _, tk := range ts {
		if p.Assignment()[tk.ID] == 0 {
			bigRate += tk.MinFrequency()
		} else {
			littleRate += tk.MinFrequency()
		}
	}
	if littleRate > little.Max()*1.01 && bigRate < ft.Max() {
		t.Fatalf("little core overpacked (%g Hz demand on a %g Hz core) while the big core had room",
			littleRate, little.Max())
	}
}
