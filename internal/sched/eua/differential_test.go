package eua_test

// The differential oracle suite: every case below runs the identical
// simulation twice — once on the test-only reference EUA*
// (reference_test.go, via NewReference), once on the production core
// (eua.New) — and requires the two results to be bit-identical:
// decision and event counts, every job's resolution (state, finish time,
// accrued utility, executed cycles, abort reason), the full execution
// trace span by span, and all energy accounting, compared with exact
// float64 equality, and the feasibility-iteration counts each run's own
// telemetry registry records. The grid covers all three Table 1
// applications, both TUF families, underload through heavy overload,
// every scheduler option (ablation flags, strict break, budget
// awareness), online-profiled tasks, fault-injection plans, abort costs,
// overload safe mode, progress-utility accounting, idle static power, and
// per-core instances under partition.New on 2 and 4 cores (first- and
// worst-fit, heterogeneous core tables, a shared battery) — so any divergence
// introduced into fastpath.go fails loudly with the first differing
// field's coordinates.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/profile"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/workload"
)

// diffCase builds one engine configuration twice: build(ref) must return
// a fresh config each call (fresh scheduler, freshly synthesized task
// set) so the two runs share no mutable state — profiled tasks mutate
// their estimators during a run.
type diffCase struct {
	name  string
	build func(ref bool) engine.Config
}

// newEUA returns the reference scheduler when ref is set, the production
// core otherwise.
func newEUA(ref bool, opts ...eua.Option) sched.Scheduler {
	if ref {
		return eua.NewReference(opts...)
	}
	return eua.New(opts...)
}

// oracleCases enumerates the differential grid: 202 uniprocessor cases
// and 24 partitioned ones by construction; TestDifferentialOracle asserts
// the floor so the suite cannot silently shrink.
func oracleCases() []diffCase {
	var cases []diffCase
	apps := []workload.App{workload.A1(), workload.A2(), workload.A3()}
	shapes := []workload.Shape{workload.Step, workload.LinearDecay}
	presets := []energy.Preset{energy.E1, energy.E2, energy.E3}

	add := func(name string, build func(ref bool) engine.Config) {
		cases = append(cases, diffCase{name: name, build: build})
	}

	// Base grid: app × TUF family × load × seed, defaults otherwise. The
	// energy preset rotates with the case index so all three settings are
	// exercised.
	for ai, app := range apps {
		for si, shape := range shapes {
			for li, load := range []float64{0.4, 0.9, 1.3, 1.7} {
				for seed := uint64(1); seed <= 5; seed++ {
					app, shape, load, seed := app, shape, load, seed
					preset := presets[(ai+si+li+int(seed))%len(presets)]
					add(fmt.Sprintf("base/%s-%s-L%.1f-s%d", app.Name, shape, load, seed),
						func(ref bool) engine.Config {
							cfg := baseConfig(app, shape, load, seed, preset, ref)
							return cfg
						})
				}
			}
		}
	}

	// Scheduler option variants (the ablation surface) on A2/step.
	options := []struct {
		name string
		opts []eua.Option
	}{
		{"noDVS", []eua.Option{eua.WithoutDVS()}},
		{"noUER", []eua.Option{eua.WithoutUERInsertion()}},
		{"noFo", []eua.Option{eua.WithoutFoClamp()}},
		{"noWin", []eua.Option{eua.WithoutWindowedDemand()}},
		{"noPhantom", []eua.Option{eua.WithoutPhantomReservation()}},
		{"strictBreak", []eua.Option{eua.WithStrictBreak()}},
		{"strictBreak-noFo", []eua.Option{eua.WithStrictBreak(), eua.WithoutFoClamp()}},
	}
	for _, o := range options {
		for _, load := range []float64{0.8, 1.6} {
			for seed := uint64(1); seed <= 2; seed++ {
				o, load, seed := o, load, seed
				add(fmt.Sprintf("opt/%s-L%.1f-s%d", o.name, load, seed),
					func(ref bool) engine.Config {
						cfg := baseConfig(workload.A2(), workload.Step, load, seed, energy.E1, ref, o.opts...)
						return cfg
					})
			}
		}
	}

	// Fault plans: overruns, sticky/stalling switches, abort spikes,
	// adversarial UAM bursts — combined with an abort teardown cost so
	// the spike path runs.
	plans := []string{
		"seed=7,overrun=0.15,overrun-factor=1.6",
		"seed=11,sticky=0.2,stall-prob=0.1,stall=0.0005",
		"seed=13,overrun=0.1,sticky=0.1,abort-spike=0.2,abort-spike-factor=5,bursts=true",
	}
	for pi, spec := range plans {
		for _, load := range []float64{0.8, 1.6} {
			for seed := uint64(1); seed <= 3; seed++ {
				spec, load, seed := spec, load, seed
				add(fmt.Sprintf("faults/p%d-L%.1f-s%d", pi, load, seed),
					func(ref bool) engine.Config {
						plan, err := faults.Parse(spec)
						if err != nil {
							panic(err)
						}
						cfg := baseConfig(workload.A3(), workload.Step, load, seed, energy.E2, ref)
						cfg.Faults = plan
						cfg.AbortCost = 2000
						return cfg
					})
			}
		}
	}

	// Budget awareness + finite battery: the rationing and
	// energy-constrained admission paths, including depletion. The
	// fractions are of a typical unconstrained A2 run's total energy
	// (~5e26 model units at these loads): 0.5 binds mid-run (depletion
	// and rationing both fire), 0.05 rations from the start.
	for _, budget := range []float64{0.5, 0.05} {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, load := range []float64{0.9, 1.4} {
				budget, seed, load := budget, seed, load
				add(fmt.Sprintf("budget/b%.2f-L%.1f-s%d", budget, load, seed),
					func(ref bool) engine.Config {
						cfg := baseConfig(workload.A2(), workload.Step, load, seed, energy.E1, ref,
							eua.WithBudgetAwareness(0))
						cfg.EnergyBudget = budget * 5e26
						return cfg
					})
			}
		}
	}

	// Online-profiled tasks: allocations move between events, so the core
	// must recompute them (the table's per-decision refresh) instead of
	// trusting the Init-time snapshot.
	for _, shape := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, load := range []float64{0.7, 1.2} {
				shape, seed, load := shape, seed, load
				add(fmt.Sprintf("profiled/%s-L%.1f-s%d", shape, load, seed),
					func(ref bool) engine.Config {
						cfg := baseConfig(workload.A1(), shape, load, seed, energy.E1, ref)
						for i, tk := range cfg.Tasks {
							if i%2 == 0 {
								est, err := profile.New(tk.Demand.Mean*1.3, tk.Demand.Variance, 4)
								if err != nil {
									panic(err)
								}
								tk.Profiler = est
							}
						}
						return cfg
					})
			}
		}
	}

	// Engine extensions riding on the decision stream: overload safe
	// mode, progress utility, idle static power, no-abort termination.
	extras := []struct {
		name string
		mod  func(*engine.Config)
	}{
		// Safe mode only arms on termination-time misses, which EUA*'s
		// abort policy preempts; disabling abortion lets the miss streak
		// build so shedding actually fires.
		{"safemode", func(c *engine.Config) {
			c.AbortAtTermination = false
			c.SafeModeMisses = 3
			c.SafeModeShed = 0.5
		}},
		{"progress", func(c *engine.Config) { c.ProgressUtility = true }},
		{"idlepower", func(c *engine.Config) { c.IdleStaticPower = 0.05 }},
		{"noabort", func(c *engine.Config) { c.AbortAtTermination = false }},
	}
	for _, ex := range extras {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, load := range []float64{0.8, 1.7} {
				ex, seed, load := ex, seed, load
				add(fmt.Sprintf("engine/%s-L%.1f-s%d", ex.name, load, seed),
					func(ref bool) engine.Config {
						cfg := baseConfig(workload.A3(), workload.Step, load, seed, energy.E3, ref)
						ex.mod(&cfg)
						return cfg
					})
			}
		}
	}

	// Partitioned: one scheduler instance per core, each deciding over
	// its own task subset, on a 16-task set with A2's per-task structure
	// so four cores all get work. Loads are per core.
	wide := workload.A2()
	wide.Name, wide.Tasks = "A2x16", 16
	for _, m := range []int{2, 4} {
		for _, policy := range []partition.Policy{partition.FirstFit, partition.WorstFit} {
			for _, load := range []float64{0.8, 1.4} {
				for seed := uint64(1); seed <= 2; seed++ {
					m, policy, load, seed := m, policy, load, seed
					add(fmt.Sprintf("partition/m%d%s-L%.1f-s%d", m, policy, load, seed),
						func(ref bool) engine.Config {
							return partitionConfig(wide, m, policy, float64(m)*load, seed, ref)
						})
				}
			}
		}
	}
	// Heterogeneous big.LITTLE pair: core 1's ladder tops out at half of
	// core 0's, so its instance runs on a different table (f_m, f^o and
	// every clamp differ from core 0's).
	for _, policy := range []partition.Policy{partition.FirstFit, partition.WorstFit} {
		for seed := uint64(1); seed <= 2; seed++ {
			policy, seed := policy, seed
			add(fmt.Sprintf("partition/hetero-%s-L1.2-s%d", policy, seed),
				func(ref bool) engine.Config {
					cfg := partitionConfig(wide, 2, policy, 1.2, seed, ref)
					cfg.CoreFreqs = []cpu.FrequencyTable{cfg.Freqs, cpu.Uniform(200e6, 500e6, 4)}
					return cfg
				})
		}
	}
	// Budget-aware instances sharing one battery: every core sees the
	// system-wide spend through OnEnergy. 2e26 binds mid-run on this
	// set, 2e25 rations from the start.
	for _, b := range []struct {
		name   string
		joules float64
	}{{"2e26", 2e26}, {"2e25", 2e25}} {
		for seed := uint64(1); seed <= 2; seed++ {
			b, seed := b, seed
			add(fmt.Sprintf("partition/budget%s-L1.2-s%d", b.name, seed),
				func(ref bool) engine.Config {
					cfg := partitionConfig(workload.A2(), 2, partition.WorstFit, 1.2, seed, ref,
						eua.WithBudgetAwareness(0))
					cfg.EnergyBudget = b.joules
					return cfg
				})
		}
	}

	return cases
}

// partitionConfig is baseConfig on m cores: the same step-TUF set,
// scheduled by partition.New with one reference or production instance
// per core. The production instances are filed in partitionCores.
func partitionConfig(app workload.App, m int, policy partition.Policy, load float64, seed uint64, ref bool, opts ...eua.Option) engine.Config {
	cfg := baseConfig(app, workload.Step, load, seed, energy.E1, ref)
	cfg.Cores = m
	if ref {
		cfg.Scheduler = partition.New(m, policy, func() sched.Scheduler { return eua.NewReference(opts...) })
		return cfg
	}
	instances := new([]*eua.Scheduler)
	cfg.Scheduler = partition.New(m, policy, func() sched.Scheduler {
		c := eua.New(opts...)
		*instances = append(*instances, c)
		return c
	})
	partitionCores.Store(cfg.Scheduler, instances)
	return cfg
}

// partitionCores maps each partitioned scheduler partitionConfig built
// to its production instances, so that a run's shortcuts can be read
// back per core.
var partitionCores sync.Map

// shortcuts returns how many decisions of the production scheduler s
// the f_m certificate settled and how many of its greedy runs stopped
// early, summed over its per-core instances.
func shortcuts(s sched.Scheduler) (certified, exits int) {
	var instances []*eua.Scheduler
	if c, ok := s.(*eua.Scheduler); ok {
		instances = []*eua.Scheduler{c}
	} else if v, ok := partitionCores.LoadAndDelete(s); ok {
		instances = *v.(*[]*eua.Scheduler)
	}
	for _, c := range instances {
		n, e := c.Shortcuts()
		certified, exits = certified+n, exits+e
	}
	return certified, exits
}

// baseConfig assembles one run: a freshly synthesized, load-scaled task
// set (the same floats every call — synthesis is a pure function of the
// seed) and a fresh scheduler, reference or production.
func baseConfig(app workload.App, shape workload.Shape, load float64, seed uint64, preset energy.Preset, ref bool, opts ...eua.Option) engine.Config {
	ft := cpu.PowerNowK6()
	model, err := energy.NewPreset(preset, ft.Max())
	if err != nil {
		panic(err)
	}
	ts := app.MustSynthesize(rng.New(seed*0x9e3779b9), workload.Options{Shape: shape})
	ts = ts.ScaleToLoad(load, ft.Max())
	return engine.Config{
		Tasks:              ts,
		Scheduler:          newEUA(ref, opts...),
		Freqs:              ft,
		Energy:             model,
		Horizon:            0.5,
		Seed:               seed,
		AbortAtTermination: true,
		RecordTrace:        true,
	}
}

// requireIdentical compares two results field by field with exact
// equality. Any difference is a bug in the core by definition.
func requireIdentical(t *testing.T, ref, fast *engine.Result) {
	t.Helper()
	type scalar struct {
		name     string
		ref, got float64
	}
	scalars := []scalar{
		{"TotalEnergy", ref.TotalEnergy, fast.TotalEnergy},
		{"Cycles", ref.Cycles, fast.Cycles},
		{"BusyTime", ref.BusyTime, fast.BusyTime},
		{"EndTime", ref.EndTime, fast.EndTime},
		{"IdleEnergy", ref.IdleEnergy, fast.IdleEnergy},
		{"AbortCycles", ref.AbortCycles, fast.AbortCycles},
		{"DepletedAt", ref.DepletedAt, fast.DepletedAt},
	}
	for _, s := range scalars {
		if s.ref != s.got {
			t.Fatalf("%s: reference %v, core %v", s.name, s.ref, s.got)
		}
	}
	type count struct {
		name     string
		ref, got int
	}
	counts := []count{
		{"Switches", ref.Switches, fast.Switches},
		{"Decisions", ref.Decisions, fast.Decisions},
		{"Events", ref.Events, fast.Events},
		{"FaultEvents", ref.FaultEvents, fast.FaultEvents},
		{"SafeModeEntries", ref.SafeModeEntries, fast.SafeModeEntries},
		{"JobsShed", ref.JobsShed, fast.JobsShed},
		{"Jobs", len(ref.Jobs), len(fast.Jobs)},
		{"TraceSpans", len(ref.Trace), len(fast.Trace)},
	}
	for _, c := range counts {
		if c.ref != c.got {
			t.Fatalf("%s: reference %d, core %d", c.name, c.ref, c.got)
		}
	}
	if ref.Depleted != fast.Depleted {
		t.Fatalf("Depleted: reference %v, core %v", ref.Depleted, fast.Depleted)
	}
	for i := range ref.Jobs {
		a, b := ref.Jobs[i], fast.Jobs[i]
		if a.Task.ID != b.Task.ID || a.Index != b.Index {
			t.Fatalf("job %d: identity mismatch %v vs %v", i, a, b)
		}
		if a.ActualCycles != b.ActualCycles || a.Arrival != b.Arrival {
			t.Fatalf("job %v: realized workload differs (cycles %v vs %v, arrival %v vs %v) — harness bug",
				a, a.ActualCycles, b.ActualCycles, a.Arrival, b.Arrival)
		}
		if a.State != b.State {
			t.Fatalf("job %v: state %v vs %v", a, a.State, b.State)
		}
		if a.FinishedAt != b.FinishedAt {
			t.Fatalf("job %v: finished at %v vs %v", a, a.FinishedAt, b.FinishedAt)
		}
		if a.Utility != b.Utility {
			t.Fatalf("job %v: utility %v vs %v", a, a.Utility, b.Utility)
		}
		if a.Executed != b.Executed {
			t.Fatalf("job %v: executed %v vs %v", a, a.Executed, b.Executed)
		}
		if a.AbortReason != b.AbortReason {
			t.Fatalf("job %v: abort reason %q vs %q", a, a.AbortReason, b.AbortReason)
		}
	}
	for i := range ref.Trace {
		a, b := ref.Trace[i], fast.Trace[i]
		if a.Job.Task.ID != b.Job.Task.ID || a.Job.Index != b.Job.Index {
			t.Fatalf("span %d: job %v vs %v", i, a.Job, b.Job)
		}
		if a.Start != b.Start || a.End != b.End || a.Frequency != b.Frequency || a.Cycles != b.Cycles {
			t.Fatalf("span %d (job %v): [%v,%v]@%v/%v cycles vs [%v,%v]@%v/%v cycles",
				i, a.Job, a.Start, a.End, a.Frequency, a.Cycles, b.Start, b.End, b.Frequency, b.Cycles)
		}
	}
}

func TestDifferentialOracle(t *testing.T) {
	cases := oracleCases()
	if len(cases) < 226 {
		t.Fatalf("oracle grid shrank to %d cases; the suite requires at least 226", len(cases))
	}
	// The grid must reach both shortcuts of the core: decisions the f_m
	// certificate settles and greedy runs that stop once their head is
	// fixed. The count is checked once every case has run.
	var ran, certified, exits atomic.Int64
	t.Cleanup(func() {
		if ran.Load() < int64(len(cases)) {
			return
		}
		t.Logf("the core's shortcuts: %d certified decisions, %d early exits", certified.Load(), exits.Load())
		if certified.Load() == 0 || exits.Load() == 0 {
			t.Error("a shortcut of the core went untested")
		}
	})
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			refCfg, coreCfg := c.build(true), c.build(false)
			refCfg.Telemetry, coreCfg.Telemetry = telemetry.NewRegistry(), telemetry.NewRegistry()
			ref, err := engine.Run(refCfg)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			got, err := engine.Run(coreCfg)
			if err != nil {
				t.Fatalf("core run: %v", err)
			}
			requireIdentical(t, ref, got)
			if a, b := feasIterations(refCfg.Telemetry), feasIterations(coreCfg.Telemetry); a != b {
				t.Fatalf("%s: reference %v, core %v", sched.MetricFeasIters, a, b)
			}
			n, e := shortcuts(coreCfg.Scheduler)
			certified.Add(int64(n))
			exits.Add(int64(e))
			ran.Add(1)
		})
	}
}

// feasIterations sums a run's feasibility-iteration counters over every
// scheme label (the per-core instances of a partitioned run share one).
func feasIterations(reg *telemetry.Registry) float64 {
	total := 0.0
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == sched.MetricFeasIters {
			total += m.Value
		}
	}
	return total
}

// TestFastPathNameUnchanged pins the scheme name: sweep output rows are
// keyed by Name(), so neither the core nor its oracle may rename the
// scheduler.
func TestFastPathNameUnchanged(t *testing.T) {
	if got := eua.New().Name(); got != "EUA*" {
		t.Fatalf("scheduler name = %q, want EUA*", got)
	}
	if got := eua.NewReference().Name(); got != "EUA*" {
		t.Fatalf("reference scheduler name = %q, want EUA*", got)
	}
}
