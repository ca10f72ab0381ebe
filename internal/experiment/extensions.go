package experiment

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/workload"
)

// The extension studies in this file go beyond the paper's evaluation but
// stay within its problem statement: finite energy budgets (the paper's
// named future work), DVS switch-latency sensitivity, and the effect of
// the frequency ladder's granularity.

// BudgetRow is one point of the battery sweep: per scheme, the fraction
// of the attainable utility accrued before the budget depleted.
type BudgetRow struct {
	// BudgetFrac is the energy budget as a fraction of what EDF at f_m
	// consumes completing the same workload in full.
	BudgetFrac float64
	Utility    map[string]float64
}

// Budget sweeps a finite energy budget at fixed load 0.6 and reports each
// scheme's utility ratio — how much mission the same battery buys.
func Budget(cfg Config, fracs []float64) ([]BudgetRow, error) { return budget(cfg, fracs).rows() }

func budget(cfg Config, fracs []float64) *sweep[map[string]float64, BudgetRow] {
	cfg = cfg.withDefaults()
	if len(fracs) == 0 {
		fracs = []float64{0.1, 0.2, 0.4, 0.7, 1.0}
	}
	// EUA*-budget is not in the scheme table: it takes the sweep's horizon.
	base := BaselineScheme()
	schemes := []Scheme{
		mustScheme("EUA*"),
		{Name: "EUA*-budget", New: func() sched.Scheduler {
			return eua.New(eua.WithBudgetAwareness(cfg.Horizon))
		}, Abort: true},
		base,
	}
	return seedMeans("budget", cfg, axis[float64]{load: 0.6, param: "fracs", coord: "frac", points: fracs},
		func(frac float64, seed uint64, interrupt <-chan struct{}) (map[string]float64, error) {
			ts, err := synthesize(cfg, seed, workload.Step, 1)
			if err != nil {
				return nil, err
			}
			ts = ts.ScaleToLoad(0.6, cpu.PowerNowK6().Max())
			// Reference: the full-run energy of the EDF-f_m baseline.
			ref, err := runOne(cfg, base, ts, seed, runOptions{interrupt: interrupt})
			if err != nil {
				return nil, &schemeError{base.Name, err}
			}
			budget := frac * ref.TotalEnergy
			u := make(map[string]float64, len(schemes))
			for _, sc := range schemes {
				rep, err := runOne(cfg, sc, ts, seed, runOptions{energyBudget: budget, interrupt: interrupt})
				if err != nil {
					return nil, &schemeError{sc.Name, err}
				}
				u[sc.Name] = rep.UtilityRatio()
			}
			return u, nil
		},
		func(u map[string]float64) []float64 {
			v := make([]float64, len(schemes))
			for i, sc := range schemes {
				v[i] = u[sc.Name]
			}
			return v
		},
		func(frac float64, mean []float64) BudgetRow {
			row := BudgetRow{BudgetFrac: frac, Utility: map[string]float64{}}
			for i, m := range mean {
				row.Utility[schemes[i].Name] = m
			}
			return row
		},
		WriteBudget)
}

// WriteBudget prints the battery sweep.
func WriteBudget(w io.Writer, rows []BudgetRow) error {
	fmt.Fprintln(w, "Energy budget — utility ratio accrued before battery depletion (load 0.6)")
	names := budgetNames(rows)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "budget")
	for _, n := range names {
		fmt.Fprintf(tw, "\t%s", n)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f", r.BudgetFrac)
		for _, n := range names {
			fmt.Fprintf(tw, "\t%.3f", r.Utility[n])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func budgetNames(rows []BudgetRow) []string {
	set := map[string]bool{}
	for _, r := range rows {
		for n := range r.Utility {
			set[n] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LatencyRow is one point of the switch-latency sweep.
type LatencyRow struct {
	Latency float64 // seconds per frequency change
	Energy  float64 // EUA* energy normalized to EDF-fm (zero-latency)
	Utility float64 // EUA* utility normalized to EDF-fm (zero-latency)
}

// SwitchLatency sweeps the cost of a DVS frequency change at fixed load
// 0.6 and reports how EUA*'s advantage erodes: each switch steals
// execution time, so utility falls and the effective saving shrinks as
// latency grows.
func SwitchLatency(cfg Config, latencies []float64) ([]LatencyRow, error) {
	return switchLatency(cfg, latencies).rows()
}

// energyUtility is the unit of the latency and ladder sweeps: EUA*'s
// energy and utility relative to the EDF-f_m baseline.
type energyUtility struct {
	Energy  float64 `json:"energy"`
	Utility float64 `json:"utility"`
}

func (u energyUtility) fields() []float64 { return []float64{u.Energy, u.Utility} }

// euaVsBaseline runs the baseline and EUA* on one task set under opts
// (EUA* additionally with switchLatency) and returns EUA*'s ratios.
func euaVsBaseline(cfg Config, ts task.Set, seed uint64, opts runOptions, switchLatency float64) (energyUtility, error) {
	var u energyUtility
	baseScheme, euaScheme := BaselineScheme(), mustScheme("EUA*")
	base, err := runOne(cfg, baseScheme, ts, seed, opts)
	if err != nil {
		return u, &schemeError{baseScheme.Name, err}
	}
	opts.switchLatency = switchLatency
	rep, err := runOne(cfg, euaScheme, ts, seed, opts)
	if err != nil {
		return u, &schemeError{euaScheme.Name, err}
	}
	if base.TotalEnergy > 0 {
		u.Energy = rep.TotalEnergy / base.TotalEnergy
	}
	if base.AccruedUtility > 0 {
		u.Utility = rep.AccruedUtility / base.AccruedUtility
	}
	return u, nil
}

func switchLatency(cfg Config, latencies []float64) *sweep[energyUtility, LatencyRow] {
	cfg = cfg.withDefaults()
	if len(latencies) == 0 {
		latencies = []float64{0, 25e-6, 100e-6, 400e-6, 1600e-6}
	}
	return seedMeans("latency", cfg, axis[float64]{load: 0.6, param: "latencies", coord: "latency", points: latencies},
		func(lat float64, seed uint64, interrupt <-chan struct{}) (energyUtility, error) {
			ts, err := synthesize(cfg, seed, workload.Step, 1)
			if err != nil {
				return energyUtility{}, err
			}
			ts = ts.ScaleToLoad(0.6, cpu.PowerNowK6().Max())
			return euaVsBaseline(cfg, ts, seed, runOptions{interrupt: interrupt}, lat)
		},
		energyUtility.fields,
		func(lat float64, mean []float64) LatencyRow {
			if mean == nil {
				return LatencyRow{Latency: lat}
			}
			return LatencyRow{Latency: lat, Energy: mean[0], Utility: mean[1]}
		},
		WriteLatency)
}

// WriteLatency prints the switch-latency sweep.
func WriteLatency(w io.Writer, rows []LatencyRow) error {
	fmt.Fprintln(w, "DVS switch latency — EUA* normalized to zero-latency EDF-fm (load 0.6)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "latency(us)\tenergy\tutility")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f\t%.3f\t%.3f\n", r.Latency*1e6, r.Energy, r.Utility)
	}
	return tw.Flush()
}

// ContentionRow is one point of the resource-contention sweep.
type ContentionRow struct {
	SectionFrac  float64 // fraction of each job's cycles spent holding the shared resource
	Utility      float64 // EUA* utility ratio
	Inheritances float64 // mean blocking-resolution dispatches per run
}

// Contention sweeps the length of a critical section shared by every task
// (one global resource) at fixed load 0.6, measuring how blocking erodes
// accrued utility and how often the engine's execution inheritance fires.
func Contention(cfg Config, fracs []float64) ([]ContentionRow, error) {
	for _, frac := range fracs {
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("experiment: section fraction %g outside [0, 1)", frac)
		}
	}
	return contention(cfg, fracs).rows()
}

// contUnit is one (section fraction, seed) cell of the contention sweep.
type contUnit struct {
	Utility      float64 `json:"utility"`
	Inheritances float64 `json:"inheritances"`
}

func contention(cfg Config, fracs []float64) *sweep[contUnit, ContentionRow] {
	cfg = cfg.withDefaults()
	// The engine runs resource sections on one core only.
	cfg.Cores = 0
	if len(fracs) == 0 {
		fracs = []float64{0, 0.1, 0.25, 0.5, 0.8}
	}
	euaScheme := mustScheme("EUA*")
	// Each cell synthesizes its own task set, so mutating Sections here
	// never races with another cell.
	return seedMeans("contention", cfg, axis[float64]{load: 0.6, param: "fracs", coord: "section", points: fracs},
		func(frac float64, seed uint64, interrupt <-chan struct{}) (contUnit, error) {
			var u contUnit
			ts, err := synthesize(cfg, seed, workload.Step, 1)
			if err != nil {
				return u, err
			}
			ts = ts.ScaleToLoad(0.6, cpu.PowerNowK6().Max())
			if frac > 0 {
				for _, t := range ts {
					t.Sections = []task.Section{{Resource: 1, Start: 0.1, End: 0.1 + frac*0.9}}
				}
			}
			res, err := runRaw(cfg, euaScheme, ts, seed, runOptions{interrupt: interrupt})
			if err != nil {
				return u, &schemeError{euaScheme.Name, err}
			}
			rep := metrics.Analyze(res)
			return contUnit{Utility: rep.UtilityRatio(), Inheritances: float64(res.Inheritances)}, nil
		},
		func(u contUnit) []float64 { return []float64{u.Utility, u.Inheritances} },
		func(frac float64, mean []float64) ContentionRow {
			if mean == nil {
				return ContentionRow{SectionFrac: frac}
			}
			return ContentionRow{SectionFrac: frac, Utility: mean[0], Inheritances: mean[1]}
		},
		WriteContention)
}

// WriteContention prints the contention sweep.
func WriteContention(w io.Writer, rows []ContentionRow) error {
	fmt.Fprintln(w, "Resource contention — EUA* with one shared resource (load 0.6)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "section\tutilityRatio\tinheritances/run")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.3f\t%.1f\n", r.SectionFrac, r.Utility, r.Inheritances)
	}
	return tw.Flush()
}

// LadderRow is one point of the frequency-granularity sweep.
type LadderRow struct {
	Steps   int     // number of uniform frequency steps over [360, 1000] MHz
	Energy  float64 // EUA* energy normalized to EDF at f_m
	Utility float64
}

// Ladder sweeps the number of available DVS steps (uniform over the
// PowerNow! range) at fixed load 0.6: coarser ladders force rounding up to
// faster-than-needed frequencies, quantifying the value of fine-grained
// DVS hardware.
func Ladder(cfg Config, steps []int) ([]LadderRow, error) {
	for _, n := range steps {
		if n < 1 {
			return nil, fmt.Errorf("experiment: ladder needs >= 1 step, got %d", n)
		}
	}
	return ladder(cfg, steps).rows()
}

func ladder(cfg Config, steps []int) *sweep[energyUtility, LadderRow] {
	cfg = cfg.withDefaults()
	if len(steps) == 0 {
		steps = []int{2, 3, 5, 7, 13, 25}
	}
	return seedMeans("ladder", cfg, axis[int]{load: 0.6, param: "steps", coord: "steps", points: steps},
		func(n int, seed uint64, interrupt <-chan struct{}) (energyUtility, error) {
			table := cpu.Uniform(360e6, 1000e6, n)
			ts, err := synthesize(cfg, seed, workload.Step, 1)
			if err != nil {
				return energyUtility{}, err
			}
			ts = ts.ScaleToLoad(0.6, table.Max())
			return euaVsBaseline(cfg, ts, seed, runOptions{freqs: table, interrupt: interrupt}, 0)
		},
		energyUtility.fields,
		func(n int, mean []float64) LadderRow {
			if mean == nil {
				return LadderRow{Steps: n}
			}
			return LadderRow{Steps: n, Energy: mean[0], Utility: mean[1]}
		},
		WriteLadder)
}

// WriteLadder prints the frequency-granularity sweep.
func WriteLadder(w io.Writer, rows []LadderRow) error {
	fmt.Fprintln(w, "Frequency ladder granularity — EUA* normalized to EDF at f_m (load 0.6)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "steps\tenergy\tutility")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\n", r.Steps, r.Energy, r.Utility)
	}
	return tw.Flush()
}
