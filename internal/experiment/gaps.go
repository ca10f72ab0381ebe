package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"text/tabwriter"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/oracle"
	"github.com/euastar/euastar/internal/stats"
	"github.com/euastar/euastar/internal/workload"
)

// The gaps experiment measures how far each scheduler lands from
// provable optimality on the identical realized workload, using the two
// offline oracles of internal/oracle:
//
//   - energy gap = simulated energy / the YDS lower bound on the work
//     the run actually executed (>= 1; 1 means the run spent no more
//     than any schedule of that work could);
//   - utility gap = accrued utility / the branch-and-bound clairvoyant
//     utility optimum on the cell's released jobs (<= 1; 1 means no
//     online scheduler could have accrued more).
//
// Both ratios are per-cell annotations: they never change a simulation,
// only bracket it. The committed BENCH_gaps.json pins the ratios so a
// scheduler regression that widens a gap fails TestGoldenGaps.

// gapsHorizon caps the gaps sweep's horizon. The branch-and-bound
// oracle is exact only up to oracle.UAMaxJobs released jobs, and the
// GapsApp workload releases roughly one job per task per ~50 ms window,
// so 60 ms keeps every cell inside the exact range. The cap is applied
// before Describe() is taken, so checkpoints and the committed bench
// fingerprint the effective horizon.
const gapsHorizon = 0.06

// GapsApp is the gaps workload: like Fig3App a small task set, but with
// windows long enough that a 60 ms horizon releases only a handful of
// jobs — small enough for the exact utility oracle, busy enough that
// overload is reachable at high load.
func GapsApp() workload.App {
	return workload.App{
		Name:      "GAP",
		Tasks:     3,
		A:         1,
		PRange:    [2]float64{0.030, 0.080},
		UmaxRange: [2]float64{5, 70},
	}
}

// gapsConfig is the configuration the gaps sweep runs: the GapsApp
// workload, the capped horizon and the oracle columns forced on.
// Describe-based fingerprints (checkpoints, the committed bench) are
// taken from it, so they agree with the sweep that actually ran.
func gapsConfig(cfg Config) Config {
	if len(cfg.Apps) == 0 {
		cfg.Apps = []workload.App{GapsApp()}
	}
	cfg = cfg.withDefaults()
	if cfg.Horizon > gapsHorizon {
		cfg.Horizon = gapsHorizon
	}
	cfg.Oracles = true
	return cfg
}

// GapRow is one load point of the gaps sweep: per scheme, the mean
// optimality-gap ratios over seeds with their standard errors, plus how
// often the utility bound was proven exact and the mean instance size.
type GapRow struct {
	Load float64 `json:"load"`
	// EnergyGap is simulated energy / YDS lower bound, mean over seeds.
	EnergyGap    map[string]float64 `json:"energy_gap"`
	EnergyGapErr map[string]float64 `json:"energy_gap_err,omitempty"`
	// UtilityGap is accrued utility / clairvoyant optimum, mean over
	// seeds whose cell produced a bound.
	UtilityGap    map[string]float64 `json:"utility_gap"`
	UtilityGapErr map[string]float64 `json:"utility_gap_err,omitempty"`
	// ExactFrac is the fraction of completed cells whose utility bound
	// was proven exact (vs. budget-truncated or skipped).
	ExactFrac float64 `json:"exact_frac"`
	// Jobs is the mean released-job count per cell.
	Jobs float64 `json:"jobs"`
}

// Gaps runs the optimality-gap sweep: the Figure 2 cell structure (Step
// TUFs, a = 1) on the GapsApp workload with the oracle columns forced
// on, reduced to per-load GapRows.
func Gaps(cfg Config) ([]GapRow, error) { return gaps(cfg).rows() }

func gaps(cfg Config) *sweep[sweepUnit, GapRow] {
	cfg = gapsConfig(cfg)
	g := grid(len(cfg.Loads), len(cfg.Seeds))
	return &sweep[sweepUnit, GapRow]{
		name:   "gaps",
		cfg:    cfg,
		g:      g,
		coords: loadSeedCoords(cfg),
		cell:   sweepCell(cfg, ComparisonSchemes(), 1, g),
		merge: func(units []sweepUnit, done []bool) []GapRow {
			rows := make([]GapRow, 0, len(cfg.Loads))
			for li, load := range cfg.Loads {
				row := GapRow{Load: load}
				accEG := map[string]*stats.Welford{}
				accUG := map[string]*stats.Welford{}
				cells, exact := 0, 0
				for si := range cfg.Seeds {
					idx := li*len(cfg.Seeds) + si
					if !done[idx] {
						continue
					}
					u := units[idx]
					cells++
					if u.BnBExact {
						exact++
					}
					row.Jobs += float64(u.OracleJobs)
					mergeGaps(accEG, u.EnergyGap)
					mergeGaps(accUG, u.UtilityGap)
				}
				if cells > 0 {
					row.ExactFrac = float64(exact) / float64(cells)
					row.Jobs /= float64(cells)
				}
				row.EnergyGap, row.EnergyGapErr = gapColumns(accEG)
				row.UtilityGap, row.UtilityGapErr = gapColumns(accUG)
				if row.EnergyGap == nil {
					row.EnergyGap = map[string]float64{}
				}
				if row.UtilityGap == nil {
					row.UtilityGap = map[string]float64{}
				}
				rows = append(rows, row)
			}
			return rows
		},
		write: WriteGaps,
		doc:   func(d *JSONDocument, rows []GapRow) { d.Gaps = rows },
	}
}

// cellOracle holds one sweep cell's oracle state: the energy model and
// frequency table the cell's runs used, and the cell's clairvoyant
// utility bound (solved once — the released set is scheduler-independent
// because every run draws arrivals from the same seed).
type cellOracle struct {
	model energy.Model
	ft    cpu.FrequencyTable
	upper float64
	exact bool
	jobs  int
}

func newCellOracle(cfg Config, baseRes *engine.Result) (*cellOracle, error) {
	ft := cpu.PowerNowK6()
	model, err := energy.NewPreset(cfg.Energy, ft.Max())
	if err != nil {
		return nil, err
	}
	co := &cellOracle{model: model, ft: ft, jobs: len(baseRes.Jobs)}
	ua := oracle.UAInstance(baseRes.Jobs)
	if len(ua) > 0 && len(ua) <= oracle.UAMaxJobs {
		ub, err := oracle.SolveUA(ua, ft.Max(), oracle.UABudget{})
		if err != nil {
			return nil, err
		}
		if ub.Upper > 0 {
			co.upper = ub.Upper
			co.exact = ub.Status == oracle.Exact
		}
	}
	return co, nil
}

// observe records one run's gap ratios into the unit. Degenerate
// denominators (no work executed, zero utility bound, oversized
// instance) omit the key rather than emitting Inf/NaN — JSON cannot
// carry either, and a missing key is honest about "no bound here".
func (co *cellOracle) observe(u *sweepUnit, name string, res *engine.Result, rep *metrics.Report) {
	if sched, err := oracle.YDS(oracle.ExecutedInstance(res.Jobs, res.EndTime)); err == nil {
		if lower := sched.EnergyDiscrete(co.model, co.ft); lower > 0 {
			u.EnergyGap[name] = rep.TotalEnergy / lower
		}
	}
	if co.upper > 0 {
		u.UtilityGap[name] = rep.AccruedUtility / co.upper
	}
}

// mergeGaps feeds one cell's gap map into the per-name accumulators,
// creating them on first sight.
func mergeGaps(acc map[string]*stats.Welford, vals map[string]float64) {
	for name, v := range vals {
		w := acc[name]
		if w == nil {
			w = &stats.Welford{}
			acc[name] = w
		}
		w.Add(v)
	}
}

// gapColumns reduces the accumulators to mean and standard-error maps;
// both nil when no cell produced the column.
func gapColumns(acc map[string]*stats.Welford) (mean, stderr map[string]float64) {
	if len(acc) == 0 {
		return nil, nil
	}
	mean = make(map[string]float64, len(acc))
	stderr = make(map[string]float64, len(acc))
	for name, w := range acc {
		mean[name] = w.Mean()
		if n := w.N(); n > 1 {
			stderr[name] = w.StdDev() / math.Sqrt(float64(n))
		}
	}
	return mean, stderr
}

// WriteGaps prints the optimality-gap tables.
func WriteGaps(w io.Writer, rows []GapRow) error {
	names := map[string]bool{}
	for _, r := range rows {
		for n := range r.EnergyGap {
			names[n] = true
		}
		for n := range r.UtilityGap {
			names[n] = true
		}
	}
	order := sortedNames(names)

	fmt.Fprintln(w, "Optimality gaps — energy: simulated / YDS lower bound (>= 1, lower is better)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "load")
	for _, n := range order {
		fmt.Fprintf(tw, "\t%s", n)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f", r.Load)
		for _, n := range order {
			writeGapCell(tw, r.EnergyGap, n)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nOptimality gaps — utility: accrued / clairvoyant optimum (<= 1, higher is better)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "load")
	for _, n := range order {
		fmt.Fprintf(tw, "\t%s", n)
	}
	fmt.Fprintln(tw, "\texact\tjobs")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f", r.Load)
		for _, n := range order {
			writeGapCell(tw, r.UtilityGap, n)
		}
		fmt.Fprintf(tw, "\t%.0f%%\t%.1f\n", 100*r.ExactFrac, r.Jobs)
	}
	return tw.Flush()
}

func writeGapCell(w io.Writer, m map[string]float64, name string) {
	if v, ok := m[name]; ok {
		fmt.Fprintf(w, "\t%.3f", v)
	} else {
		fmt.Fprint(w, "\t-")
	}
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GapsBenchDocument is the BENCH_gaps.json envelope, shaped like
// BENCH_admission.json: a version, the toolchain, the effective sweep
// configuration, and the rows.
type GapsBenchDocument struct {
	Version int      `json:"version"`
	Go      string   `json:"go"`
	Config  string   `json:"config"`
	Rows    []GapRow `json:"rows"`
}

// WriteGapsBench writes the committed gaps baseline. The config is
// normalized the same way Gaps normalizes it, so the recorded
// fingerprint matches the sweep that produced the rows.
func WriteGapsBench(w io.Writer, cfg Config, rows []GapRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(GapsBenchDocument{
		Version: 1,
		Go:      runtime.Version(),
		Config:  Describe(gapsConfig(cfg)),
		Rows:    rows,
	})
}
