package partition_test

import (
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/euastar/euastar/internal/admission"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
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

// TestPlace pins the placement switch the experiment runner, euad and
// euatrace share.
func TestPlace(t *testing.T) {
	for _, name := range []string{"ff", "wf", "global"} {
		if err := partition.CheckPlacement(name); err != nil {
			t.Fatalf("CheckPlacement(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "rr", "FF"} {
		if partition.CheckPlacement(name) == nil {
			t.Fatalf("CheckPlacement(%q) accepted", name)
		}
	}
	for _, c := range []struct {
		m         int
		placement string
		name      string
	}{
		{0, "rr", "EUA*"}, // one core never reads the placement
		{1, "global", "EUA*"},
		{2, "ff", "EUA*/P2ff"},
		{4, "wf", "EUA*/P4wf"},
		{4, "global", "G-UER/4"},
	} {
		s, err := partition.Place(c.m, c.placement, euaFactory)
		if err != nil {
			t.Fatalf("Place(%d, %q): %v", c.m, c.placement, err)
		}
		if s.Name() != c.name {
			t.Fatalf("Place(%d, %q) built %q, want %q", c.m, c.placement, s.Name(), c.name)
		}
	}
	if _, err := partition.Place(2, "rr", euaFactory); err == nil {
		t.Fatal("Place accepted an unknown placement on 2 cores")
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
	sub := func() sched.Scheduler { return baseline.NewEDF(true) }
	if _, ok := sub().(engine.EventObserver); ok {
		t.Fatal("EDF-fm implements engine.EventObserver; wrap a scheme without hooks")
	}
	res := runPartitioned(t, partition.New(2, partition.FirstFit, sub), 2, testSet(0.9, 1), 0.2)
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

// TestBudgetIsHardCap: on multicore runs the energy budget caps the
// metered energy whichever core drains it, and every metered cycle is
// an executed one. Budgets are 5%, 20% and 50% of the unbudgeted run's
// energy on the identical workload.
func TestBudgetIsHardCap(t *testing.T) {
	ft := cpu.PowerNowK6()
	for _, m := range []int{2, 4} {
		for seed := uint64(1); seed <= 10; seed++ {
			cfg := engine.Config{
				Tasks:              testSet(1.2*float64(m), seed),
				Freqs:              ft,
				Energy:             energy.MustPreset(energy.E1, ft.Max()),
				Cores:              m,
				Horizon:            0.3,
				Seed:               seed,
				AbortAtTermination: true,
			}
			run := func(budget float64) *engine.Result {
				cfg.Scheduler = partition.New(m, partition.FirstFit, euaFactory)
				cfg.EnergyBudget = budget
				res, err := engine.Run(cfg)
				if err != nil {
					t.Fatalf("m=%d seed=%d budget=%g: %v", m, seed, budget, err)
				}
				return res
			}
			full := run(0).TotalEnergy
			for _, share := range []float64{0.05, 0.2, 0.5} {
				budget := share * full
				res := run(budget)
				if !res.Depleted {
					t.Fatalf("m=%d seed=%d share=%g: budget never ran out", m, seed, share)
				}
				// 1e-9 absorbs the rounding of the cut stretch (its length
				// is the remaining budget over the power, re-metered as
				// cycles); the overshoot this guards against is percents.
				if res.TotalEnergy > budget*(1+1e-9) {
					t.Fatalf("m=%d seed=%d share=%g: metered %v, budget %v (+%.3g%%)",
						m, seed, share, res.TotalEnergy, budget, 100*(res.TotalEnergy/budget-1))
				}
				var executed float64
				for _, j := range res.Jobs {
					executed += j.Executed
				}
				if math.Abs(executed-res.Cycles) > 1e-3 {
					t.Fatalf("m=%d seed=%d share=%g: executed %v cycles, metered %v",
						m, seed, share, executed, res.Cycles)
				}
			}
		}
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

// TestGlobalUniprocessor runs the m = 1 degenerate case: top-1
// dispatch through the engine's one decision path.
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

// analyzePacking is the packing Init performs, written with one
// admission.Analyze call per (task, core) probe: decreasing C_i/D_i with
// ties by ID, first fit or worst fit on an Accept verdict, and the
// least-utilized core when none accepts.
func analyzePacking(ts task.Set, tables []cpu.FrequencyTable, scheme string, policy partition.Policy) map[int]int {
	order := append(task.Set(nil), ts...)
	sort.Slice(order, func(i, j int) bool {
		fi, fj := order[i].MinFrequency(), order[j].MinFrequency()
		if fi != fj {
			return fi > fj
		}
		return order[i].ID < order[j].ID
	})
	m := len(tables)
	cores := make([]task.Set, m)
	util := make([]float64, m)
	assign := map[int]int{}
	for _, t := range order {
		fits := func(k int) bool {
			res, err := admission.Analyze(append(append(task.Set(nil), cores[k]...), t), tables[k], scheme)
			return err == nil && res.Verdict == admission.Accept
		}
		best := -1
		for k := 0; k < m; k++ {
			if !fits(k) {
				continue
			}
			if policy == partition.FirstFit {
				best = k
				break
			}
			if best < 0 || util[k] < util[best] {
				best = k
			}
		}
		if best < 0 {
			best = 0
			for k := 1; k < m; k++ {
				if util[k] < util[best] {
					best = k
				}
			}
		}
		cores[best] = append(cores[best], t)
		util[best] += t.MinFrequency() / tables[best].Max()
		assign[t.ID] = best
	}
	return assign
}

// TestAssignmentMatchesAnalyzePacking holds Init's verdict-only probes to
// packing by full Analyze calls, on homogeneous and big.LITTLE tables,
// for a deadline-ordered and a utility-greedy scheme.
func TestAssignmentMatchesAnalyzePacking(t *testing.T) {
	wide := workload.A2()
	wide.Tasks = 16
	schemes := []func() sched.Scheduler{euaFactory, func() sched.Scheduler { return baseline.NewGUS() }}
	fallbacks := 0
	for _, m := range []int{2, 4} {
		for _, policy := range []partition.Policy{partition.FirstFit, partition.WorstFit} {
			for _, perCore := range []float64{0.3, 0.7, 0.95, 1.1, 1.6} {
				for seed := uint64(1); seed <= 3; seed++ {
					for _, hetero := range []bool{false, true} {
						for _, mk := range schemes {
							ft := cpu.PowerNowK6()
							ts := wide.MustSynthesize(rng.New(seed*0x9e3779b9), workload.Options{Shape: workload.Step}).
								ScaleToLoad(float64(m)*perCore, ft.Max())
							ctx := testCtx(ts)
							if hetero {
								ctx.CoreFreqs = make([]cpu.FrequencyTable, m)
								ctx.CoreFreqs[m-1] = cpu.Uniform(200e6, 500e6, 4)
							}
							p := partition.New(m, policy, mk)
							if err := p.Init(ctx); err != nil {
								t.Fatal(err)
							}
							want := analyzePacking(ts, ctx.CoreTables(m), mk().Name(), policy)
							for id, k := range want {
								if got, ok := p.Assignment()[id]; !ok || got != k {
									t.Fatalf("m=%d %s load %v/core seed %d hetero=%v %s: task %d on core %d, Analyze packing puts it on %d",
										m, policy, perCore, seed, hetero, mk().Name(), id, got, k)
								}
							}
							if len(p.Assignment()) != len(want) {
								t.Fatalf("%d tasks assigned, want %d", len(p.Assignment()), len(want))
							}
							if perCore > 1 {
								fallbacks++
							}
						}
					}
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("the grid never overloads a core")
	}
}

// routeRecorder wraps a scheme's per-core instance and notes every job
// it is asked to decide whose task is not one of its context's tasks.
type routeRecorder struct {
	sched.Scheduler
	tasks     map[*task.Task]bool
	jobs      int
	misrouted int
}

func (r *routeRecorder) Init(ctx *sched.Context) error {
	r.tasks = make(map[*task.Task]bool, len(ctx.Tasks))
	for _, t := range ctx.Tasks {
		r.tasks[t] = true
	}
	return r.Scheduler.Init(ctx)
}

func (r *routeRecorder) Decide(now float64, ready []*task.Job) sched.Decision {
	for _, j := range ready {
		r.note(j)
	}
	return r.Scheduler.Decide(now, ready)
}

func (r *routeRecorder) note(j *task.Job) {
	r.jobs++
	if !r.tasks[j.Task] {
		r.misrouted++
	}
}

// observingRecorder is a routeRecorder whose scheme observes releases
// and completions; it checks their routing too.
type observingRecorder struct{ *routeRecorder }

func (o observingRecorder) OnRelease(now float64, j *task.Job) {
	o.note(j)
	o.Scheduler.(engine.EventObserver).OnRelease(now, j)
}

func (o observingRecorder) OnComplete(now float64, j *task.Job) {
	o.note(j)
	o.Scheduler.(engine.EventObserver).OnComplete(now, j)
}

// TestRoutingFollowsAssignment: every job reaches the instance of the
// core Assignment names for its task — fresh jobs on their first
// decision, and every job over whole runs — for EUA*, which observes
// releases, and laEDF, which does not, on 1, 2 and 4 cores.
func TestRoutingFollowsAssignment(t *testing.T) {
	schemes := []struct {
		name string
		wrap func(*routeRecorder) sched.Scheduler
		make func() sched.Scheduler
	}{
		{"EUA*", func(r *routeRecorder) sched.Scheduler { return observingRecorder{r} }, euaFactory},
		{"laEDF", func(r *routeRecorder) sched.Scheduler { return r }, func() sched.Scheduler { return baseline.NewLAEDF(true) }},
	}
	ts := testSet(2.4, 5)
	for _, sc := range schemes {
		for _, m := range []int{1, 2, 4} {
			var recs []*routeRecorder
			factory := func() sched.Scheduler {
				r := &routeRecorder{Scheduler: sc.make()}
				recs = append(recs, r)
				return sc.wrap(r)
			}
			// Fresh jobs, one per task, in one decision.
			p := partition.New(m, partition.FirstFit, factory)
			if err := p.Init(testCtx(ts)); err != nil {
				t.Fatal(err)
			}
			jobs := make([]*task.Job, len(ts))
			for i, tk := range ts {
				jobs[i] = task.NewJob(tk, 0, 0, rng.New(uint64(i)+1))
			}
			p.DecideMulti(0, jobs)
			cores := map[int]bool{}
			for _, r := range recs {
				if r.tasks == nil {
					continue // the probe, which only names the scheme with m > 1
				}
				k := -1
				for tk := range r.tasks {
					c := p.Assignment()[tk.ID]
					if k >= 0 && c != k {
						t.Fatalf("%s m=%d: one instance holds tasks of cores %d and %d", sc.name, m, k, c)
					}
					k = c
				}
				cores[k] = true
				if r.misrouted != 0 || r.jobs != len(r.tasks) {
					t.Fatalf("%s m=%d: core %d decided %d fresh jobs, %d of them misrouted; it has %d tasks",
						sc.name, m, k, r.jobs, r.misrouted, len(r.tasks))
				}
			}
			if m > 1 && len(cores) < 2 {
				t.Fatalf("%s m=%d: the set packed onto %d core(s)", sc.name, m, len(cores))
			}
			// Whole runs.
			recs = nil
			res := runPartitioned(t, partition.New(m, partition.FirstFit, factory), m, ts, 0.3)
			total := 0
			for _, r := range recs {
				if r.misrouted != 0 {
					t.Fatalf("%s m=%d: %d of %d jobs misrouted over a run", sc.name, m, r.misrouted, r.jobs)
				}
				total += r.jobs
			}
			if len(res.Jobs) == 0 || total < len(res.Jobs) {
				t.Fatalf("%s m=%d: %d routed jobs for %d released", sc.name, m, total, len(res.Jobs))
			}
		}
	}
}
