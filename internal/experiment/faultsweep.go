package experiment

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/workload"
)

// FaultRow is one point of the fault-injection sweep: EUA* under a fault
// plan of the given intensity, relative to the same EUA* run without
// faults on the identical workload.
type FaultRow struct {
	Intensity   float64 // per-job overrun probability (other fault rates scale with it)
	Utility     float64 // utility relative to the fault-free run
	Energy      float64 // energy relative to the fault-free run
	FaultEvents float64 // mean injected faults per run
	JobsShed    float64 // mean jobs shed by the safe mode per run
	SafeEntries float64 // mean safe-mode activations per run
}

// planFor builds the fault plan of one sweep intensity: overruns at the
// intensity itself, sticky switches and abort-cost spikes at half of it.
// The plan seed is fixed (not the workload seed) so the same cell is
// reproducible from its (intensity, seed) coordinates alone.
func planFor(intensity float64) *faults.Plan {
	if intensity == 0 {
		return nil
	}
	return &faults.Plan{
		Seed:           1,
		OverrunProb:    intensity,
		OverrunFactor:  3,
		StickyProb:     intensity / 2,
		AbortSpikeProb: intensity / 2,
	}
}

// FaultSweep measures graceful degradation: at fixed load 1.0 (where
// overruns bite) it injects increasingly aggressive fault plans into EUA*
// with the overload safe mode armed, and reports how utility and energy
// degrade relative to the fault-free run — the quantitative version of
// "faults degrade output, they do not corrupt it".
func FaultSweep(cfg Config, intensities []float64) ([]FaultRow, error) {
	for _, x := range intensities {
		if x < 0 || x > 1 {
			return nil, fmt.Errorf("experiment: fault intensity %g outside [0, 1]", x)
		}
	}
	return faultSweep(cfg, intensities).rows()
}

// faultUnit is one (intensity, seed) cell of the fault sweep.
type faultUnit struct {
	Utility     float64 `json:"utility"`
	Energy      float64 `json:"energy"`
	FaultEvents float64 `json:"faultEvents"`
	JobsShed    float64 `json:"jobsShed"`
	SafeEntries float64 `json:"safeEntries"`
}

func faultSweep(cfg Config, intensities []float64) *sweep[faultUnit, FaultRow] {
	cfg = cfg.withDefaults()
	if len(intensities) == 0 {
		intensities = []float64{0, 0.05, 0.1, 0.2, 0.4}
	}
	if cfg.SafeModeMisses == 0 {
		cfg.SafeModeMisses = 4 // arm the safe mode so shedding is observable
	}
	// Each cell sets its runs' plans itself: none for the clean run,
	// planFor's for the faulty one.
	cfg.Faults = nil
	euaScheme := mustScheme("EUA*")
	const load = 1.0
	return seedMeans("faults", cfg, axis[float64]{load: load, param: "intensities", coord: "intensity", points: intensities},
		func(intensity float64, seed uint64, interrupt <-chan struct{}) (faultUnit, error) {
			var u faultUnit
			ts, err := synthesize(cfg, seed, workload.Step, 1)
			if err != nil {
				return u, err
			}
			ts = ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
			clean, err := runRaw(cfg, euaScheme, ts, seed, runOptions{interrupt: interrupt})
			if err != nil {
				return u, &schemeError{euaScheme.Name, err}
			}
			faulty, err := runRaw(cfg, euaScheme, ts, seed, runOptions{interrupt: interrupt, faults: planFor(intensity)})
			if err != nil {
				return u, &schemeError{euaScheme.Name + "+faults", err}
			}
			cleanRep, faultyRep := metrics.Analyze(clean), metrics.Analyze(faulty)
			if cleanRep.AccruedUtility > 0 {
				u.Utility = faultyRep.AccruedUtility / cleanRep.AccruedUtility
			}
			if cleanRep.TotalEnergy > 0 {
				u.Energy = faultyRep.TotalEnergy / cleanRep.TotalEnergy
			}
			u.FaultEvents = float64(faulty.FaultEvents)
			u.JobsShed = float64(faulty.JobsShed)
			u.SafeEntries = float64(faulty.SafeModeEntries)
			return u, nil
		},
		func(u faultUnit) []float64 {
			return []float64{u.Utility, u.Energy, u.FaultEvents, u.JobsShed, u.SafeEntries}
		},
		func(x float64, mean []float64) FaultRow {
			if mean == nil {
				return FaultRow{Intensity: x}
			}
			return FaultRow{Intensity: x, Utility: mean[0], Energy: mean[1],
				FaultEvents: mean[2], JobsShed: mean[3], SafeEntries: mean[4]}
		},
		WriteFaults)
}

// WriteFaults prints the fault-injection sweep.
func WriteFaults(w io.Writer, rows []FaultRow) error {
	fmt.Fprintln(w, "Fault injection — EUA* under faults relative to its fault-free run (load 1.0, safe mode armed)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "intensity\tutility\tenergy\tfaults/run\tshed/run\tsafeModes/run")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.3f\t%.3f\t%.1f\t%.1f\t%.1f\n",
			r.Intensity, r.Utility, r.Energy, r.FaultEvents, r.JobsShed, r.SafeEntries)
	}
	return tw.Flush()
}
