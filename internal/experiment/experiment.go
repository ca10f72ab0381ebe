// Package experiment reproduces the paper's evaluation (Section 5): it
// synthesizes the Table 1 workloads, sweeps system load, runs every
// scheduling scheme on the identical realized workload, and reports the
// normalized utility and energy series behind Figures 2 and 3, plus the
// assurance and ablation studies described in DESIGN.md.
package experiment

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/ccedf"
	"github.com/euastar/euastar/internal/sched/dasa"
	"github.com/euastar/euastar/internal/sched/edf"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/gus"
	"github.com/euastar/euastar/internal/sched/laedf"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/stats"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/uam"
	"github.com/euastar/euastar/internal/workload"
)

// Scheme couples a scheduler constructor with its termination-time policy.
// A fresh scheduler is constructed per run (schedulers carry per-run
// state).
type Scheme struct {
	Name  string
	New   func() sched.Scheduler
	Abort bool // abort jobs at their termination time
}

// BaselineScheme is the normalization baseline used throughout Section 5:
// EDF that always uses the highest frequency, with abortion.
func BaselineScheme() Scheme {
	return Scheme{Name: "EDF-fm", New: func() sched.Scheduler { return edf.New(true) }, Abort: true}
}

// Figure2Schemes are the schemes compared in Figure 2, paper order:
// EUA*, ccEDF, laEDF, and the no-abort laEDF-NA that exposes the domino
// effect.
func Figure2Schemes() []Scheme {
	return []Scheme{
		{Name: "EUA*", New: func() sched.Scheduler { return eua.New() }, Abort: true},
		{Name: "ccEDF", New: func() sched.Scheduler { return ccedf.New(true) }, Abort: true},
		{Name: "laEDF", New: func() sched.Scheduler { return laedf.New(true) }, Abort: true},
		{Name: "laEDF-NA", New: func() sched.Scheduler { return laedf.New(false) }, Abort: false},
	}
}

// AblationSchemes isolates each EUA* mechanism (DESIGN.md Section 5).
func AblationSchemes() []Scheme {
	mk := func(opts ...eua.Option) func() sched.Scheduler {
		return func() sched.Scheduler { return eua.New(opts...) }
	}
	return []Scheme{
		{Name: "EUA*", New: mk(), Abort: true},
		{Name: "EUA*-noUER", New: mk(eua.WithoutUERInsertion()), Abort: true},
		{Name: "EUA*-noFo", New: mk(eua.WithoutFoClamp()), Abort: true},
		{Name: "EUA*-noWin", New: mk(eua.WithoutWindowedDemand()), Abort: true},
		{Name: "EUA*-noPhantom", New: mk(eua.WithoutPhantomReservation()), Abort: true},
		{Name: "EUA*-strictBreak", New: mk(eua.WithStrictBreak()), Abort: true},
		{Name: "EUA*-noDVS", New: mk(eua.WithoutDVS()), Abort: true},
		{Name: "DASA", New: func() sched.Scheduler { return dasa.New() }, Abort: true},
		{Name: "GUS", New: func() sched.Scheduler { return gus.New() }, Abort: true},
	}
}

// DefaultLoads is the Figure 2/3 load sweep: 0.2 to 1.8.
func DefaultLoads() []float64 {
	return []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8}
}

// Config is the common experiment parameterization.
type Config struct {
	Energy  energy.Preset
	Loads   []float64
	Seeds   []uint64
	Horizon float64 // seconds of arrivals per run
	// Apps defaults to the three Table 1 applications combined.
	Apps []workload.App

	// Cores selects the simulated core count. 0 and 1 both run the
	// paper's uniprocessor — bit-identical to the pre-multicore code, and
	// excluded from Describe() so existing checkpoint fingerprints keep
	// matching. With Cores > 1 every scheme in the sweep runs wrapped in
	// the partitioned (or global) multiprocessor meta-scheduler.
	Cores int
	// Partition selects the multiprocessor policy when Cores > 1:
	// "ff" (first-fit, the default), "wf" (worst-fit), or "global"
	// (shared ready queue, top-m UER dispatch with migration).
	Partition string

	// Workers bounds how many simulations run concurrently. Zero (the
	// default) selects runtime.GOMAXPROCS(0); 1 recovers the strictly
	// sequential runner. Every sweep is bit-identical for every worker
	// count: each simulation unit derives all randomness from its own
	// (seed, load, scheme) coordinates and results are merged back in the
	// sequential iteration order.
	Workers int

	// Telemetry, when non-nil, accumulates engine and scheduler metrics
	// from every run of the sweep into one shared registry: per-cell
	// counts sum across cells (the metric primitives are atomic, so the
	// worker pool needs no extra coordination) and Snapshot() yields the
	// JSON-safe sweep summary euasim -stats renders. Telemetry never
	// changes simulation results, so it is excluded from Describe() and
	// hence from checkpoint fingerprints; cells restored from a
	// checkpoint were not re-run and contribute no counts.
	Telemetry *telemetry.Registry

	// Oracles adds the optional per-cell optimality-gap columns to the
	// Figure 2 family of sweeps (fig2, ablation, gaps): per scheme,
	// energy_gap = simulated energy / the YDS lower bound on the work
	// that run actually executed, and — when the cell's released jobs
	// fit the exact branch-and-bound solver — utility_gap = accrued
	// utility / the clairvoyant utility optimum (see internal/oracle).
	// The columns annotate results without changing any simulation, so
	// like Telemetry the flag is excluded from Describe() and hence from
	// checkpoint fingerprints; cells restored from a checkpoint written
	// without the flag simply lack the columns.
	Oracles bool

	// Faults is an optional deterministic fault-injection plan applied to
	// every run of the sweep (every scheme sees the identical faults, so
	// the normalization against the baseline stays meaningful).
	Faults *faults.Plan
	// AbortCost, SafeModeMisses and SafeModeShed pass through to
	// engine.Config (see its documentation).
	AbortCost      float64
	SafeModeMisses int
	SafeModeShed   float64

	// Timeout bounds the wall-clock time of one sweep cell; zero means no
	// limit. A timed-out cell is reported with its coordinates and the
	// remaining cells still run.
	Timeout time.Duration
	// Retries is how many additional attempts a failing cell gets before
	// it is reported.
	Retries int
	// Interrupt, when closed, stops the whole sweep cooperatively:
	// in-flight cells stop at their next engine event, completed cells are
	// kept (and checkpointed if a Store is set), and the sweep returns a
	// *SweepError with Interrupted set.
	Interrupt <-chan struct{}
	// Store, when non-nil, persists every completed cell so an
	// interrupted sweep can resume without recomputation. It is also the
	// shard handoff surface of distributed sweeps: a cluster coordinator
	// saves remotely computed cells here, and the subsequent run finds
	// them "checkpointed" and reduces to the deterministic ordered merge.
	// CheckpointStore is the durable implementation; MemStore the
	// in-memory one.
	Store CellStore

	// testCellFault, when set, is invoked before each attempt of each
	// cell; a non-nil return fails that attempt. Test-only hook for
	// exercising retry and continue-on-error paths deterministically.
	testCellFault func(exp string, i, attempt int) error
}

func (c Config) withDefaults() Config {
	if c.Energy == "" {
		c.Energy = energy.E1
	}
	if len(c.Loads) == 0 {
		c.Loads = DefaultLoads()
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1, 2, 3}
	}
	if c.Horizon == 0 {
		c.Horizon = 1.0
	}
	if len(c.Apps) == 0 {
		c.Apps = workload.Table1()
	}
	if c.Cores > 1 && c.Partition == "" {
		c.Partition = string(partition.FirstFit)
	}
	return c
}

// synthesize draws the combined task set of the configured applications,
// with the given TUF shape and an optional burst-bound override (0 keeps
// each app's own a_i).
func synthesize(cfg Config, seed uint64, shape workload.Shape, burstOverride int) (task.Set, error) {
	src := rng.New(seed * 0x9e3779b9)
	var ts task.Set
	id := 1
	for _, app := range cfg.Apps {
		if burstOverride > 0 {
			app.A = burstOverride
		}
		set, err := app.Synthesize(src, workload.Options{Shape: shape, FirstID: id})
		if err != nil {
			return nil, err
		}
		ts = append(ts, set...)
		id += len(set)
	}
	return ts, nil
}

// runOptions carries the per-run knobs the extension experiments vary.
type runOptions struct {
	arrivals      func(*task.Task) uam.Generator
	freqs         cpu.FrequencyTable
	switchLatency float64
	energyBudget  float64
	interrupt     <-chan struct{}
	faults        *faults.Plan // overrides cfg.Faults when non-nil
}

// runOne executes one scheme on one scaled task set and reduces the run
// to its aggregate report.
func runOne(cfg Config, scheme Scheme, ts task.Set, seed uint64, opts runOptions) (*metrics.Report, error) {
	res, err := runRaw(cfg, scheme, ts, seed, opts)
	if err != nil {
		return nil, err
	}
	return metrics.Analyze(res), nil
}

// runRaw executes one scheme on one scaled task set and returns the raw
// engine result — the oracle gap columns need the resolved per-job
// outcomes, not just the aggregate report.
func runRaw(cfg Config, scheme Scheme, ts task.Set, seed uint64, opts runOptions) (*engine.Result, error) {
	ft := opts.freqs
	if ft == nil {
		ft = cpu.PowerNowK6()
	}
	model, err := energy.NewPreset(cfg.Energy, ft.Max())
	if err != nil {
		return nil, err
	}
	plan := cfg.Faults
	if opts.faults != nil {
		plan = opts.faults
	}
	scheduler, err := buildScheduler(cfg, scheme)
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(engine.Config{
		Tasks:              ts,
		Scheduler:          scheduler,
		Freqs:              ft,
		Energy:             model,
		Cores:              cfg.Cores,
		Horizon:            cfg.Horizon,
		Seed:               seed,
		Arrivals:           opts.arrivals,
		SwitchLatency:      opts.switchLatency,
		EnergyBudget:       opts.energyBudget,
		AbortAtTermination: scheme.Abort,
		Faults:             plan,
		AbortCost:          cfg.AbortCost,
		SafeModeMisses:     cfg.SafeModeMisses,
		SafeModeShed:       cfg.SafeModeShed,
		Interrupt:          opts.interrupt,
		Telemetry:          cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// buildScheduler constructs one run's scheduler: the scheme itself on a
// uniprocessor config, the scheme wrapped in the partitioned (or global)
// multiprocessor meta-scheduler when Cores > 1.
func buildScheduler(cfg Config, scheme Scheme) (sched.Scheduler, error) {
	if cfg.Cores <= 1 {
		return scheme.New(), nil
	}
	if cfg.Partition == "global" {
		return partition.NewGlobal(cfg.Cores), nil
	}
	policy, err := partition.ParsePolicy(cfg.Partition)
	if err != nil {
		return nil, err
	}
	return partition.New(cfg.Cores, policy, scheme.New), nil
}

// Row is one load point of a normalized comparison: per scheme, the mean
// (over seeds) utility and energy relative to the EDF-f_m baseline on the
// identical workload, with the standard error of each mean across the
// replications.
type Row struct {
	Load       float64
	Utility    map[string]float64
	Energy     map[string]float64
	UtilityErr map[string]float64
	EnergyErr  map[string]float64

	// EnergyGap and UtilityGap are the optional oracle columns
	// (Config.Oracles): per scheme — the baseline included under its own
	// name — the mean ratio of simulated energy to the YDS lower bound
	// (>= 1) and of accrued utility to the branch-and-bound clairvoyant
	// optimum (<= 1; only present when the cells' instances fit the
	// exact solver). Nil when the sweep ran without the flag.
	EnergyGap     map[string]float64 `json:",omitempty"`
	UtilityGap    map[string]float64 `json:",omitempty"`
	EnergyGapErr  map[string]float64 `json:",omitempty"`
	UtilityGapErr map[string]float64 `json:",omitempty"`
}

// Figure2 regenerates the four panels of Figure 2 for one energy setting:
// periodic (⟨1,P⟩) Table 1 task sets with step TUFs and {ν=1, ρ=0.96},
// swept over system load, all schemes normalized to EDF at f_m.
func Figure2(cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	schemes := Figure2Schemes()
	return sweep(cfg, "fig2", schemes, workload.Step, 1)
}

// Ablation runs the EUA* mechanism ablations on the same setup as
// Figure 2 but with each application's native UAM burst bound.
func Ablation(cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	return sweep(cfg, "ablation", AblationSchemes(), workload.Step, 0)
}

// sweepUnit is the result of one (load, seed) simulation cell: every
// scheme's utility and energy normalized to the baseline on the identical
// realized workload. Exported fields: units are checkpointed as JSON.
type sweepUnit struct {
	Utility map[string]float64 `json:"utility"`
	Energy  map[string]float64 `json:"energy"`

	// The optional oracle columns (Config.Oracles): per scheme,
	// simulated energy / YDS lower bound and accrued utility /
	// branch-and-bound optimum. BnBExact records whether the cell's
	// utility bound was proven exact, OracleJobs how many released jobs
	// the bound covered; both are zero-valued when the utility oracle
	// was skipped (instance too large for the exact solver).
	EnergyGap  map[string]float64 `json:"energy_gap,omitempty"`
	UtilityGap map[string]float64 `json:"utility_gap,omitempty"`
	BnBExact   bool               `json:"bnb_exact,omitempty"`
	OracleJobs int                `json:"oracle_jobs,omitempty"`
}

// sweepCell builds the (load, seed) cell function of the Figure 2 family
// of sweeps. The same constructor backs both the local runner and the
// distributed cell plan (PlanCells), so a cell computed on a remote
// worker is the identical pure function of its coordinates.
func sweepCell(cfg Config, schemes []Scheme, shape workload.Shape, burstOverride int, g unitGrid) func(i int, interrupt <-chan struct{}) (sweepUnit, error) {
	base := BaselineScheme()
	return func(i int, interrupt <-chan struct{}) (sweepUnit, error) {
		var u sweepUnit
		c := g.coords(i)
		load, seed := cfg.Loads[c[0]], cfg.Seeds[c[1]]
		ts, err := synthesize(cfg, seed, shape, burstOverride)
		if err != nil {
			return u, err
		}
		ts = ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
		baseRes, err := runRaw(cfg, base, ts, seed, runOptions{interrupt: interrupt})
		if err != nil {
			return u, &schemeError{base.Name, err}
		}
		baseRep := metrics.Analyze(baseRes)
		u.Utility = make(map[string]float64, len(schemes))
		u.Energy = make(map[string]float64, len(schemes))
		var oracles *cellOracle
		// The YDS and branch-and-bound oracles bound a single processor;
		// multi-core cells run without the gap columns.
		if cfg.Oracles && cfg.Cores <= 1 {
			if oracles, err = newCellOracle(cfg, baseRes); err != nil {
				return sweepUnit{}, err
			}
			u.EnergyGap = make(map[string]float64, len(schemes)+1)
			u.UtilityGap = make(map[string]float64, len(schemes)+1)
			u.BnBExact, u.OracleJobs = oracles.exact, oracles.jobs
			oracles.observe(&u, base.Name, baseRes, baseRep)
		}
		for _, sc := range schemes {
			res, err := runRaw(cfg, sc, ts, seed, runOptions{interrupt: interrupt})
			if err != nil {
				return sweepUnit{}, &schemeError{sc.Name, err}
			}
			rep := metrics.Analyze(res)
			n := metrics.Normalize(rep, baseRep)
			u.Utility[sc.Name] = n.Utility
			u.Energy[sc.Name] = n.Energy
			if oracles != nil {
				oracles.observe(&u, sc.Name, res, rep)
			}
		}
		return u, nil
	}
}

func sweep(cfg Config, exp string, schemes []Scheme, shape workload.Shape, burstOverride int) ([]Row, error) {
	// Fan the (load, seed) cells out across the worker pool. Each cell is
	// self-contained: the workload is synthesized from the seed alone and
	// engine.Run derives every stochastic input from the seed, so cells
	// share no mutable state and their results do not depend on execution
	// order.
	g := grid(len(cfg.Loads), len(cfg.Seeds))
	coords := func(c []int) Coords {
		return Coords{Load: cfg.Loads[c[0]], Seed: cfg.Seeds[c[1]]}
	}
	units, done, err := runCells(cfg, exp, "", g, coords, sweepCell(cfg, schemes, shape, burstOverride, g))
	if units == nil {
		return nil, err
	}
	// Ordered merge: feed the per-cell results into the Welford
	// accumulators in exactly the order the sequential loop would have,
	// so means and error bars are bit-identical regardless of which
	// worker finished first. Cells that failed are skipped; the row then
	// averages the seeds that completed (a partial result, reported
	// alongside the returned *SweepError).
	rows := make([]Row, 0, len(cfg.Loads))
	for li, load := range cfg.Loads {
		row := Row{
			Load:       load,
			Utility:    make(map[string]float64, len(schemes)),
			Energy:     make(map[string]float64, len(schemes)),
			UtilityErr: make(map[string]float64, len(schemes)),
			EnergyErr:  make(map[string]float64, len(schemes)),
		}
		accU := make(map[string]*stats.Welford, len(schemes))
		accE := make(map[string]*stats.Welford, len(schemes))
		for _, sc := range schemes {
			accU[sc.Name] = &stats.Welford{}
			accE[sc.Name] = &stats.Welford{}
		}
		// The oracle gap columns carry their own key set (the baseline
		// appears under its own name, and a cell may omit a key when the
		// bound degenerated), so they get name-keyed accumulators on
		// demand. Per name the seeds still merge in sequential order.
		accEG := map[string]*stats.Welford{}
		accUG := map[string]*stats.Welford{}
		for si := range cfg.Seeds {
			idx := li*len(cfg.Seeds) + si
			if !done[idx] {
				continue
			}
			u := units[idx]
			for _, sc := range schemes {
				accU[sc.Name].Add(u.Utility[sc.Name])
				accE[sc.Name].Add(u.Energy[sc.Name])
			}
			mergeGaps(accEG, u.EnergyGap)
			mergeGaps(accUG, u.UtilityGap)
		}
		for _, sc := range schemes {
			row.Utility[sc.Name] = accU[sc.Name].Mean()
			row.Energy[sc.Name] = accE[sc.Name].Mean()
			if n := accU[sc.Name].N(); n > 1 {
				row.UtilityErr[sc.Name] = accU[sc.Name].StdDev() / math.Sqrt(float64(n))
				row.EnergyErr[sc.Name] = accE[sc.Name].StdDev() / math.Sqrt(float64(n))
			}
		}
		row.EnergyGap, row.EnergyGapErr = gapColumns(accEG)
		row.UtilityGap, row.UtilityGapErr = gapColumns(accUG)
		rows = append(rows, row)
	}
	return rows, err
}

// Fig3Row is one load point of Figure 3: per UAM burst bound a, EUA*'s
// energy normalized to EUA* without DVS on the identical workload.
type Fig3Row struct {
	Load   float64
	Energy map[int]float64
}

// Fig3App is the Figure 3 workload: a small task set (the paper selects
// "task sets with 1 to 5 tasks"), windows mixing short and long. Small
// sets matter: with many tasks, bursts multiplex away statistically and
// the a-dependence of the energy vanishes.
func Fig3App() workload.App {
	return workload.App{
		Name:      "F3",
		Tasks:     3,
		A:         1, // overridden per series
		PRange:    [2]float64{0.020, 0.120},
		UmaxRange: [2]float64{5, 70},
	}
}

// fig3Cell builds the (load, bound, seed) cell function of the Figure 3
// sweep; shared between the local runner and the distributed cell plan.
func fig3Cell(cfg Config, bounds []int, g unitGrid) func(i int, interrupt <-chan struct{}) (float64, error) {
	noDVS := Scheme{Name: "EUA*-noDVS", New: func() sched.Scheduler { return eua.New(eua.WithoutDVS()) }, Abort: true}
	dvs := Scheme{Name: "EUA*", New: func() sched.Scheduler { return eua.New() }, Abort: true}
	return func(i int, interrupt <-chan struct{}) (float64, error) {
		c := g.coords(i)
		load, a, seed := cfg.Loads[c[0]], bounds[c[1]], cfg.Seeds[c[2]]
		ts, err := synthesize(cfg, seed, workload.LinearDecay, a)
		if err != nil {
			return 0, err
		}
		ts = ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
		baseRep, err := runOne(cfg, noDVS, ts, seed, runOptions{arrivals: Fig3Arrivals, interrupt: interrupt})
		if err != nil {
			return 0, &schemeError{noDVS.Name, err}
		}
		rep, err := runOne(cfg, dvs, ts, seed, runOptions{arrivals: Fig3Arrivals, interrupt: interrupt})
		if err != nil {
			return 0, &schemeError{dvs.Name, err}
		}
		return metrics.Normalize(rep, baseRep).Energy, nil
	}
}

// Figure3 regenerates Figure 3: linear TUFs with {ν=0.3, ρ=0.9}, energy
// setting E1, the UAM bound a swept over Bounds (default 1..3) with
// random-phase burst arrivals, at equal system load (demands rescale with
// a). Energy is normalized to EUA* always running at f_m.
func Figure3(cfg Config, bounds []int) ([]Fig3Row, error) {
	if len(cfg.Apps) == 0 {
		cfg.Apps = []workload.App{Fig3App()}
	}
	cfg = cfg.withDefaults()
	if len(bounds) == 0 {
		bounds = []int{1, 2, 3}
	}
	// Fan out the (load, bound, seed) cells; merge in sequential order.
	g := grid(len(cfg.Loads), len(bounds), len(cfg.Seeds))
	coords := func(c []int) Coords {
		return Coords{Load: cfg.Loads[c[0]], Seed: cfg.Seeds[c[2]], Extra: fmt.Sprintf("a=%d", bounds[c[1]])}
	}
	units, done, err := runCells(cfg, "fig3", fmt.Sprintf("bounds=%v", bounds), g, coords, fig3Cell(cfg, bounds, g))
	if units == nil {
		return nil, err
	}
	rows := make([]Fig3Row, 0, len(cfg.Loads))
	for li, load := range cfg.Loads {
		row := Fig3Row{Load: load, Energy: make(map[int]float64, len(bounds))}
		for bi, a := range bounds {
			n := 0
			for si := range cfg.Seeds {
				idx := (li*len(bounds)+bi)*len(cfg.Seeds) + si
				if !done[idx] {
					continue
				}
				row.Energy[a] += units[idx]
				n++
			}
			if n > 0 {
				row.Energy[a] /= float64(n)
			}
		}
		rows = append(rows, row)
	}
	return rows, err
}

// AssuranceRow is one load point of the Section 4 verification: per
// scheme, the fraction of (seed) runs in which every task met its {ν, ρ}
// requirement, and the mean utility ratio.
type AssuranceRow struct {
	Load         float64
	Satisfied    map[string]float64
	UtilityRatio map[string]float64
}

// assuranceUnit is one (load, seed) cell of the assurance sweep.
// Exported fields: units are checkpointed (and shipped between cluster
// nodes) as JSON.
type assuranceUnit struct {
	Satisfied map[string]bool    `json:"satisfied"`
	Ratio     map[string]float64 `json:"ratio"`
}

// assuranceSchemes are the schemes the Section 4 verification compares.
func assuranceSchemes() []Scheme {
	return []Scheme{
		{Name: "EUA*", New: func() sched.Scheduler { return eua.New() }, Abort: true},
		BaselineScheme(),
	}
}

// assuranceCell builds the (load, seed) cell function of the assurance
// sweep; shared between the local runner and the distributed cell plan.
func assuranceCell(cfg Config, schemes []Scheme, g unitGrid) func(i int, interrupt <-chan struct{}) (assuranceUnit, error) {
	return func(i int, interrupt <-chan struct{}) (assuranceUnit, error) {
		var u assuranceUnit
		c := g.coords(i)
		load, seed := cfg.Loads[c[0]], cfg.Seeds[c[1]]
		ts, err := synthesize(cfg, seed, workload.Step, 1)
		if err != nil {
			return u, err
		}
		ts = ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
		u.Satisfied = make(map[string]bool, len(schemes))
		u.Ratio = make(map[string]float64, len(schemes))
		for _, sc := range schemes {
			rep, err := runOne(cfg, sc, ts, seed, runOptions{interrupt: interrupt})
			if err != nil {
				return assuranceUnit{}, &schemeError{sc.Name, err}
			}
			u.Satisfied[sc.Name] = rep.AssuranceSatisfied()
			u.Ratio[sc.Name] = rep.UtilityRatio()
		}
		return u, nil
	}
}

// Assurance verifies Theorems 2–6 empirically: at each load it runs EUA*
// and EDF-f_m on step-TUF periodic workloads and reports how often the
// statistical requirements held.
func Assurance(cfg Config) ([]AssuranceRow, error) {
	cfg = cfg.withDefaults()
	schemes := assuranceSchemes()
	// Fan out the (load, seed) cells; merge in sequential order.
	g := grid(len(cfg.Loads), len(cfg.Seeds))
	coords := func(c []int) Coords {
		return Coords{Load: cfg.Loads[c[0]], Seed: cfg.Seeds[c[1]]}
	}
	units, done, err := runCells(cfg, "assurance", "", g, coords, assuranceCell(cfg, schemes, g))
	if units == nil {
		return nil, err
	}
	rows := make([]AssuranceRow, 0, len(cfg.Loads))
	for li, load := range cfg.Loads {
		row := AssuranceRow{
			Load:         load,
			Satisfied:    make(map[string]float64, len(schemes)),
			UtilityRatio: make(map[string]float64, len(schemes)),
		}
		n := 0
		for si := range cfg.Seeds {
			idx := li*len(cfg.Seeds) + si
			if !done[idx] {
				continue
			}
			n++
			u := units[idx]
			for _, sc := range schemes {
				if u.Satisfied[sc.Name] {
					row.Satisfied[sc.Name]++
				}
				row.UtilityRatio[sc.Name] += u.Ratio[sc.Name]
			}
		}
		if n > 0 {
			for _, sc := range schemes {
				row.Satisfied[sc.Name] /= float64(n)
				row.UtilityRatio[sc.Name] /= float64(n)
			}
		}
		rows = append(rows, row)
	}
	return rows, err
}

// SchemeNames returns the sorted scheme names present in rows.
func SchemeNames(rows []Row) []string {
	set := map[string]bool{}
	for _, r := range rows {
		for name := range r.Utility {
			set[name] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fig3Arrivals is the arrival selector of the Figure 3 experiment:
// random-phase bursts — each window's a instances land together at an
// unpredictable instant. This "more complicated" arrival pattern is what
// degrades slack estimation and raises EUA*'s energy consumption as a
// grows (Section 5.2's observation): the windowed demand bookkeeping
// C_i^r = c_i^r + (a_i−1)·c_i over-reserves mid-window, and the more so
// the larger a_i, while for a = 1 the estimate is exact.
func Fig3Arrivals(t *task.Task) uam.Generator {
	return uam.RandomBurst{S: t.Arrival}
}

// Describe summarizes a config for logs. It also feeds the checkpoint
// fingerprint, so every knob that changes simulation results must appear:
// seed values (not just the count), fault plan and degradation settings
// included.
func Describe(cfg Config) string {
	cfg = cfg.withDefaults()
	s := fmt.Sprintf("energy=%s loads=%v seeds=%d horizon=%gs apps=%d",
		cfg.Energy, cfg.Loads, len(cfg.Seeds), cfg.Horizon, len(cfg.Apps))
	if cfg.Faults.Enabled() {
		s += " faults=" + cfg.Faults.String()
	}
	if cfg.AbortCost != 0 {
		s += fmt.Sprintf(" abortCost=%g", cfg.AbortCost)
	}
	if cfg.SafeModeMisses != 0 {
		s += fmt.Sprintf(" safeMode=%d/%g", cfg.SafeModeMisses, cfg.SafeModeShed)
	}
	// Appended only for true multiprocessor configs, so every
	// uniprocessor fingerprint matches checkpoints written before the
	// multi-core refactor.
	if cfg.Cores > 1 {
		s += fmt.Sprintf(" cores=%d partition=%s", cfg.Cores, cfg.Partition)
	}
	return s
}
