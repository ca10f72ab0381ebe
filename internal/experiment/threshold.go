package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"

	"github.com/euastar/euastar/internal/admission"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/workload"
)

// The threshold sweep measures where each scheduler actually stops
// satisfying every task's {ν, ρ} requirement as offered load grows, and
// compares that empirical sharp threshold against the analytical
// admission bounds of internal/admission: the highest load the analyzer
// still Accepts and the lowest load it already Rejects. The gap between
// the accept bound and the empirical threshold is the price of the
// analyzer's conservatism (Cantelli over-provisioning); the empirical
// threshold always lying inside [accept bound, reject bound] is the same
// soundness property the differential suite enforces per task set.

// Load range and bisection depth of the sweep. Empirical probes cost one
// simulation per seed per step, so the resolution is deliberately
// coarse: (thresholdHi-thresholdLo)/2^empiricalIters ≈ 0.012. Analytic
// probes are O(n) arithmetic and get effectively exact resolution.
const (
	thresholdLo    = 0.05
	thresholdHi    = 3.0
	empiricalIters = 8
	analyticIters  = 24
)

// ThresholdRow is one scheduler's threshold comparison.
type ThresholdRow struct {
	Scheme string `json:"scheme"`
	// AcceptBound is the highest load (within the search range) the
	// analyzer still Accepts, averaged over seeds; 0 when it never
	// accepts (schemes without a sufficient test).
	AcceptBound float64 `json:"accept_bound"`
	// RejectBound is the lowest load the analyzer already Rejects,
	// averaged over seeds; thresholdHi when no load in range is rejected.
	RejectBound float64 `json:"reject_bound"`
	// Empirical is the bisected sharp threshold: the highest load at
	// which every seed's simulation satisfies all assurance requirements.
	Empirical float64 `json:"empirical"`
	// Gap is Empirical − AcceptBound: how much real capacity the
	// analytical accept test leaves on the table.
	Gap float64 `json:"gap"`
}

// Threshold runs the sweep: one cell per ComparisonSchemes scheduler,
// each bisecting its own empirical threshold over cfg.Seeds (Step TUFs,
// Table 1 workload).
func Threshold(cfg Config) ([]ThresholdRow, error) { return threshold(cfg).rows() }

// thresholdUnit is one scheduler's cell of the threshold sweep.
type thresholdUnit struct {
	AcceptBound float64 `json:"accept_bound"`
	RejectBound float64 `json:"reject_bound"`
	Empirical   float64 `json:"empirical"`
}

func threshold(cfg Config) *sweep[thresholdUnit, ThresholdRow] {
	cfg = cfg.withDefaults()
	schemes := ComparisonSchemes()
	g := grid(len(schemes))
	return &sweep[thresholdUnit, ThresholdRow]{
		name:   "threshold",
		cfg:    cfg,
		params: fmt.Sprintf("schemes=%v range=[%g,%g] iters=%d", schemeNames(schemes), thresholdLo, thresholdHi, empiricalIters),
		g:      g,
		coords: func(c []int) Coords {
			return Coords{Extra: fmt.Sprintf("scheme=%s", schemes[c[0]].Name)}
		},
		cell: func(i int, interrupt <-chan struct{}) (thresholdUnit, error) {
			var u thresholdUnit
			sc := schemes[g.coords(i)[0]]

			// Analytic bounds, averaged over the seeds' workload draws.
			for _, seed := range cfg.Seeds {
				ts, err := synthesize(cfg, seed, workload.Step, 0)
				if err != nil {
					return u, err
				}
				accept, reject, err := analyticBounds(ts, sc.Name)
				if err != nil {
					return u, err
				}
				u.AcceptBound += accept
				u.RejectBound += reject
			}
			u.AcceptBound /= float64(len(cfg.Seeds))
			u.RejectBound /= float64(len(cfg.Seeds))

			// Empirical sharp threshold: bisect the highest load where
			// every seed's run satisfies assurance.
			ok := func(load float64) (bool, error) {
				for _, seed := range cfg.Seeds {
					ts, err := synthesize(cfg, seed, workload.Step, 0)
					if err != nil {
						return false, err
					}
					ts = ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
					rep, err := runOne(cfg, sc, ts, seed, runOptions{interrupt: interrupt})
					if err != nil {
						return false, &schemeError{sc.Name, err}
					}
					if !rep.AssuranceSatisfied() {
						return false, nil
					}
				}
				return true, nil
			}
			lo, hi := thresholdLo, thresholdHi
			okLo, err := ok(lo)
			if err != nil {
				return u, err
			}
			if !okLo {
				u.Empirical = lo // fails even at the bottom of the range
				return u, nil
			}
			okHi, err := ok(hi)
			if err != nil {
				return u, err
			}
			if okHi {
				u.Empirical = hi // never fails within the range
				return u, nil
			}
			for iter := 0; iter < empiricalIters; iter++ {
				mid := (lo + hi) / 2
				good, err := ok(mid)
				if err != nil {
					return u, err
				}
				if good {
					lo = mid
				} else {
					hi = mid
				}
			}
			u.Empirical = lo
			return u, nil
		},
		merge: func(units []thresholdUnit, done []bool) []ThresholdRow {
			rows := make([]ThresholdRow, 0, len(schemes))
			for i, sc := range schemes {
				if !done[i] {
					continue
				}
				u := units[i]
				rows = append(rows, ThresholdRow{
					Scheme:      sc.Name,
					AcceptBound: u.AcceptBound,
					RejectBound: u.RejectBound,
					Empirical:   u.Empirical,
					Gap:         u.Empirical - u.AcceptBound,
				})
			}
			return rows
		},
		write: WriteThreshold,
		doc:   func(d *JSONDocument, rows []ThresholdRow) { d.Threshold = rows },
	}
}

// analyticBounds bisects the admission verdict over the load range for
// one unscaled task set: the highest load still accepted and the lowest
// load already rejected. Both bisections are valid because the verdict
// is monotone in load (scaling every demand up never improves it; see
// FuzzAdmission).
func analyticBounds(ts task.Set, scheme string) (accept, reject float64, err error) {
	ft := cpu.PowerNowK6()
	verdictAt := func(load float64) (admission.Verdict, error) {
		res, err := admission.Analyze(ts.ScaleToLoad(load, ft.Max()), ft, scheme)
		return res.Verdict, err
	}
	vLo, err := verdictAt(thresholdLo)
	if err != nil {
		return 0, 0, err
	}
	vHi, err := verdictAt(thresholdHi)
	if err != nil {
		return 0, 0, err
	}

	switch {
	case vLo != admission.Accept:
		accept = 0 // no sufficient test ever fires (or the set is hopeless)
	case vHi == admission.Accept:
		accept = thresholdHi
	default:
		lo, hi := thresholdLo, thresholdHi
		for i := 0; i < analyticIters; i++ {
			mid := (lo + hi) / 2
			v, err := verdictAt(mid)
			if err != nil {
				return 0, 0, err
			}
			if v == admission.Accept {
				lo = mid
			} else {
				hi = mid
			}
		}
		accept = lo
	}

	switch {
	case vLo == admission.Reject:
		reject = thresholdLo
	case vHi != admission.Reject:
		reject = thresholdHi // nothing in range is provably infeasible
	default:
		lo, hi := thresholdLo, thresholdHi
		for i := 0; i < analyticIters; i++ {
			mid := (lo + hi) / 2
			v, err := verdictAt(mid)
			if err != nil {
				return 0, 0, err
			}
			if v == admission.Reject {
				hi = mid
			} else {
				lo = mid
			}
		}
		reject = hi
	}
	return accept, reject, nil
}

// WriteThreshold prints the sweep table.
func WriteThreshold(w io.Writer, rows []ThresholdRow) error {
	fmt.Fprintln(w, "Admission thresholds — analytic accept/reject bounds vs empirical sharp threshold (Step TUFs)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\taccept<=\treject>=\tempirical\tgap")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%+.3f\n", r.Scheme, r.AcceptBound, r.RejectBound, r.Empirical, r.Gap)
	}
	return tw.Flush()
}

// AdmissionBenchDocument is the BENCH_admission.json envelope, shaped
// like BENCH_sched.json: a version, the toolchain, the sweep
// configuration, and the rows.
type AdmissionBenchDocument struct {
	Version int            `json:"version"`
	Go      string         `json:"go"`
	Config  string         `json:"config"`
	Rows    []ThresholdRow `json:"rows"`
}

// WriteAdmissionBench writes the committed threshold baseline.
func WriteAdmissionBench(w io.Writer, cfg Config, rows []ThresholdRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(AdmissionBenchDocument{
		Version: 1,
		Go:      runtime.Version(),
		Config:  Describe(cfg.withDefaults()),
		Rows:    rows,
	})
}
