package partition_test

// The m = 1 bit-identity guard: every case below runs the identical
// simulation twice — once with the bare uniprocessor EUA* scheduler,
// once with the same scheduler wrapped in partition.New(1, ...) — and
// requires the two results to be bit-identical with exact float64
// equality: all energy accounting, every job's resolution, and the full
// execution trace span by span. The grid mirrors EUA*'s differential
// oracle (internal/sched/eua/differential_test.go): all
// three Table 1 applications, both TUF families, underload through heavy
// overload, scheduler options, fault plans, energy budgets, profiled
// tasks and engine extensions — over 200 cases, so the single-core
// partitioned engine path is pinned to the seed uniprocessor behavior
// across the whole covered configuration space.

import (
	"fmt"
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
	"github.com/euastar/euastar/internal/workload"
)

// identCase builds one engine configuration twice: build(wrapped) must
// return a fresh config each call (fresh scheduler, freshly synthesized
// task set) so the two runs share no mutable state.
type identCase struct {
	name  string
	build func(wrapped bool) engine.Config
}

// identityCases mirrors the differential oracle's case grid.
func identityCases() []identCase {
	var cases []identCase
	apps := []workload.App{workload.A1(), workload.A2(), workload.A3()}
	shapes := []workload.Shape{workload.Step, workload.LinearDecay}
	presets := []energy.Preset{energy.E1, energy.E2, energy.E3}

	add := func(name string, build func(wrapped bool) engine.Config) {
		cases = append(cases, identCase{name: name, build: build})
	}

	for ai, app := range apps {
		for si, shape := range shapes {
			for li, load := range []float64{0.4, 0.9, 1.3, 1.7} {
				for seed := uint64(1); seed <= 5; seed++ {
					app, shape, load, seed := app, shape, load, seed
					preset := presets[(ai+si+li+int(seed))%len(presets)]
					add(fmt.Sprintf("base/%s-%s-L%.1f-s%d", app.Name, shape, load, seed),
						func(wrapped bool) engine.Config {
							return identConfig(app, shape, load, seed, preset, wrapped)
						})
				}
			}
		}
	}

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
		{"fastpath", nil}, // the default core (eua/fastpath.go) at this grid's loads
	}
	for _, o := range options {
		for _, load := range []float64{0.8, 1.6} {
			for seed := uint64(1); seed <= 2; seed++ {
				o, load, seed := o, load, seed
				add(fmt.Sprintf("opt/%s-L%.1f-s%d", o.name, load, seed),
					func(wrapped bool) engine.Config {
						return identConfig(workload.A2(), workload.Step, load, seed, energy.E1, wrapped, o.opts...)
					})
			}
		}
	}

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
					func(wrapped bool) engine.Config {
						plan, err := faults.Parse(spec)
						if err != nil {
							panic(err)
						}
						cfg := identConfig(workload.A3(), workload.Step, load, seed, energy.E2, wrapped)
						cfg.Faults = plan
						cfg.AbortCost = 2000
						return cfg
					})
			}
		}
	}

	for _, budget := range []float64{0.5, 0.05} {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, load := range []float64{0.9, 1.4} {
				budget, seed, load := budget, seed, load
				add(fmt.Sprintf("budget/b%.2f-L%.1f-s%d", budget, load, seed),
					func(wrapped bool) engine.Config {
						cfg := identConfig(workload.A2(), workload.Step, load, seed, energy.E1, wrapped,
							eua.WithBudgetAwareness(0))
						cfg.EnergyBudget = budget * 5e26
						return cfg
					})
			}
		}
	}

	for _, shape := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, load := range []float64{0.7, 1.2} {
				shape, seed, load := shape, seed, load
				add(fmt.Sprintf("profiled/%s-L%.1f-s%d", shape, load, seed),
					func(wrapped bool) engine.Config {
						cfg := identConfig(workload.A1(), shape, load, seed, energy.E1, wrapped)
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

	extras := []struct {
		name string
		mod  func(*engine.Config)
	}{
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
					func(wrapped bool) engine.Config {
						cfg := identConfig(workload.A3(), workload.Step, load, seed, energy.E3, wrapped)
						ex.mod(&cfg)
						return cfg
					})
			}
		}
	}

	return cases
}

// identConfig assembles one run with either the bare EUA* scheduler or
// the same construction wrapped in a 1-core partitioned meta-scheduler.
// Both partitioning policies go through the same pass-through code with
// m = 1, so alternating the policy with the seed costs no coverage.
func identConfig(app workload.App, shape workload.Shape, load float64, seed uint64, preset energy.Preset, wrapped bool, opts ...eua.Option) engine.Config {
	ft := cpu.PowerNowK6()
	model, err := energy.NewPreset(preset, ft.Max())
	if err != nil {
		panic(err)
	}
	ts := app.MustSynthesize(rng.New(seed*0x9e3779b9), workload.Options{Shape: shape})
	ts = ts.ScaleToLoad(load, ft.Max())
	var s sched.Scheduler = eua.New(opts...)
	if wrapped {
		policy := partition.FirstFit
		if seed%2 == 0 {
			policy = partition.WorstFit
		}
		s = partition.New(1, policy, func() sched.Scheduler { return eua.New(opts...) })
	}
	return engine.Config{
		Tasks:              ts,
		Scheduler:          s,
		Freqs:              ft,
		Energy:             model,
		Horizon:            0.5,
		Seed:               seed,
		AbortAtTermination: true,
		RecordTrace:        true,
	}
}

// requireIdentical compares two results field by field with exact
// equality. Any difference means the 1-core wrapper changed engine
// behavior — a bit-identity bug by definition.
func requireIdentical(t *testing.T, ref, got *engine.Result) {
	t.Helper()
	type scalar struct {
		name     string
		ref, got float64
	}
	scalars := []scalar{
		{"TotalEnergy", ref.TotalEnergy, got.TotalEnergy},
		{"Cycles", ref.Cycles, got.Cycles},
		{"BusyTime", ref.BusyTime, got.BusyTime},
		{"EndTime", ref.EndTime, got.EndTime},
		{"IdleEnergy", ref.IdleEnergy, got.IdleEnergy},
		{"AbortCycles", ref.AbortCycles, got.AbortCycles},
		{"DepletedAt", ref.DepletedAt, got.DepletedAt},
	}
	for _, s := range scalars {
		if s.ref != s.got {
			t.Fatalf("%s: bare %v, wrapped %v", s.name, s.ref, s.got)
		}
	}
	type count struct {
		name     string
		ref, got int
	}
	counts := []count{
		{"Switches", ref.Switches, got.Switches},
		{"Decisions", ref.Decisions, got.Decisions},
		{"Events", ref.Events, got.Events},
		{"Preemptions", ref.Preemptions, got.Preemptions},
		{"Migrations", ref.Migrations, got.Migrations},
		{"Cores", ref.Cores, got.Cores},
		{"FaultEvents", ref.FaultEvents, got.FaultEvents},
		{"SafeModeEntries", ref.SafeModeEntries, got.SafeModeEntries},
		{"JobsShed", ref.JobsShed, got.JobsShed},
		{"Jobs", len(ref.Jobs), len(got.Jobs)},
		{"TraceSpans", len(ref.Trace), len(got.Trace)},
	}
	for _, c := range counts {
		if c.ref != c.got {
			t.Fatalf("%s: bare %d, wrapped %d", c.name, c.ref, c.got)
		}
	}
	if ref.Depleted != got.Depleted {
		t.Fatalf("Depleted: bare %v, wrapped %v", ref.Depleted, got.Depleted)
	}
	for i := range ref.Jobs {
		a, b := ref.Jobs[i], got.Jobs[i]
		if a.Task.ID != b.Task.ID || a.Index != b.Index {
			t.Fatalf("job %d: identity mismatch %v vs %v", i, a, b)
		}
		if a.ActualCycles != b.ActualCycles || a.Arrival != b.Arrival {
			t.Fatalf("job %v: realized workload differs — harness bug", a)
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
		a, b := ref.Trace[i], got.Trace[i]
		if a.Job.Task.ID != b.Job.Task.ID || a.Job.Index != b.Job.Index {
			t.Fatalf("span %d: job %v vs %v", i, a.Job, b.Job)
		}
		if a.Start != b.Start || a.End != b.End || a.Frequency != b.Frequency || a.Cycles != b.Cycles || a.Core != b.Core {
			t.Fatalf("span %d (job %v): [%v,%v]@%v/%v on core %d vs [%v,%v]@%v/%v on core %d",
				i, a.Job, a.Start, a.End, a.Frequency, a.Cycles, a.Core,
				b.Start, b.End, b.Frequency, b.Cycles, b.Core)
		}
	}
}

func TestSingleCoreBitIdentity(t *testing.T) {
	cases := identityCases()
	if len(cases) < 200 {
		t.Fatalf("identity grid shrank to %d cases; the suite requires at least 200", len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ref, err := engine.Run(c.build(false))
			if err != nil {
				t.Fatalf("bare run: %v", err)
			}
			wrapped, err := engine.Run(c.build(true))
			if err != nil {
				t.Fatalf("wrapped run: %v", err)
			}
			requireIdentical(t, ref, wrapped)
		})
	}
}
