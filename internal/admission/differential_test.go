package admission_test

// The differential validation suite — the headline correctness artifact
// of the admission analyzer. Across hundreds of generated task sets
// (workload shapes × loads × schemes, plus randomized sets), a decisive
// analytical verdict must bracket the simulator:
//
//   - Accept  is contradicted if the simulated run fails its assurance
//     check (some task's empirical met-ratio below its ρ);
//   - Reject  is contradicted if the simulated run satisfies assurance.
//
// MustSimulate makes no claim and is not simulated. Every failure prints
// the (shape, load, seed, scheme) coordinates that reproduce it.

import (
	"fmt"
	"testing"

	"github.com/euastar/euastar/internal/admission"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
	"github.com/euastar/euastar/internal/workload"
)

// simulate runs one scheme on the set and reports whether every task met
// its statistical requirement — the oracle a decisive verdict is checked
// against.
func simulate(t *testing.T, ts task.Set, sc experiment.Scheme, seed uint64, horizon float64) *metrics.Report {
	t.Helper()
	ft := cpu.PowerNowK6()
	model, err := energy.NewPreset(energy.E1, ft.Max())
	if err != nil {
		t.Fatalf("energy preset: %v", err)
	}
	res, err := engine.Run(engine.Config{
		Tasks:              ts,
		Scheduler:          sc.New(),
		Freqs:              ft,
		Energy:             model,
		Horizon:            horizon,
		Seed:               seed,
		AbortAtTermination: sc.Abort,
	})
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	return metrics.Analyze(res)
}

// checkCase analyzes one (set, scheme) case and, when the verdict is
// decisive, verifies it against the simulator. It returns whether the
// verdict was decisive.
func checkCase(t *testing.T, coords string, ts task.Set, sc experiment.Scheme, seed uint64, horizon float64) bool {
	t.Helper()
	res, err := admission.Analyze(ts, cpu.PowerNowK6(), sc.Name)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", coords, err)
	}
	if res.Verdict == admission.MustSimulate {
		return false
	}
	rep := simulate(t, ts, sc, seed, horizon)
	satisfied := rep.AssuranceSatisfied()
	switch res.Verdict {
	case admission.Accept:
		if !satisfied {
			t.Errorf("CONTRADICTION %s: verdict accept (%s) but simulation failed assurance\n%s",
				coords, res.Reason, metRatios(rep))
		}
	case admission.Reject:
		if satisfied {
			t.Errorf("CONTRADICTION %s: verdict reject (%s) but simulation satisfied assurance\n%s",
				coords, res.Reason, metRatios(rep))
		}
	}
	return true
}

func metRatios(rep *metrics.Report) string {
	s := "per-task met ratios:"
	for _, pt := range rep.PerTask {
		s += fmt.Sprintf(" %s=%.3f/ρ=%g", pt.Task, pt.MetRatio(), pt.Task.Req.Rho)
	}
	return s
}

// synthesizeTable1 mirrors the experiment harness's workload synthesis:
// the combined Table 1 applications with the given TUF shape, scaled to
// the target load.
func synthesizeTable1(t *testing.T, seed uint64, shape workload.Shape, load float64) task.Set {
	t.Helper()
	src := rng.New(seed * 0x9e3779b9)
	var ts task.Set
	id := 1
	for _, app := range workload.Table1() {
		set, err := app.Synthesize(src, workload.Options{Shape: shape, FirstID: id})
		if err != nil {
			t.Fatalf("synthesize: %v", err)
		}
		ts = append(ts, set...)
		id += len(set)
	}
	return ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
}

// TestDifferentialSoundness is the grid half of the suite: Table 1
// workloads across shapes × loads × seeds × schemes.
func TestDifferentialSoundness(t *testing.T) {
	schemes := experiment.ComparisonSchemes()
	shapes := []workload.Shape{workload.Step, workload.LinearDecay}
	loads := []float64{0.05, 0.3, 0.6, 0.85, 0.98, 1.15, 1.4, 1.8, 2.4, 3.2, 4.5}
	seeds := []uint64{1, 2}
	// Table 1 windows reach 80ms; 0.5s spans >4 of the longest window,
	// the soundness condition of the density Reject (see the admission
	// package documentation).
	const horizon = 0.5

	cases, decisive := 0, 0
	for _, shape := range shapes {
		for _, seed := range seeds {
			for _, load := range loads {
				ts := synthesizeTable1(t, seed, shape, load)
				for _, sc := range schemes {
					coords := fmt.Sprintf("(shape=%s load=%g seed=%d scheme=%s)", shape, load, seed, sc.Name)
					cases++
					if checkCase(t, coords, ts, sc, seed, horizon) {
						decisive++
					}
				}
			}
		}
	}

	// Randomized half: mixed windows, burst bounds, TUF shapes and
	// requirements, cycling through the schemes.
	randCases := 60
	for i := 0; i < randCases; i++ {
		seed := uint64(1000 + i)
		load := []float64{0.2, 0.5, 0.9, 1.3, 2.0, 3.0, 5.0}[i%7]
		ts := randomSet(seed, load)
		sc := schemes[i%len(schemes)]
		coords := fmt.Sprintf("(random seed=%d load=%g scheme=%s)", seed, load, sc.Name)
		cases++
		if checkCase(t, coords, ts, sc, seed, 0.6) {
			decisive++
		}
	}

	t.Logf("differential: %d cases, %d decisive verdicts simulated", cases, decisive)
	if cases < 200 {
		t.Errorf("suite covered %d cases, want >= 200", cases)
	}
	if decisive < 120 {
		t.Errorf("only %d decisive verdicts were simulated, want >= 120 (the suite lost its teeth)", decisive)
	}
}

// randomSet builds a deterministic random task set from the seed: 2–10
// tasks, windows 5–80ms, burst bounds 1–4, step or linear TUFs, varied
// {ν, ρ}, scaled to the target load.
func randomSet(seed uint64, load float64) task.Set {
	src := rng.New(seed*0x9e3779b9 + 1)
	n := 2 + int(src.Uniform(0, 9))
	ts := make(task.Set, n)
	for i := range ts {
		p := src.Uniform(0.005, 0.080)
		a := 1 + int(src.Uniform(0, 4))
		umax := src.Uniform(1, 70)
		nu, rho := 1.0, src.Uniform(0.5, 0.96)
		var f tuf.TUF
		if src.Uniform(0, 1) < 0.5 {
			f = tuf.NewStep(umax, p)
		} else {
			f = tuf.NewLinear(umax, 0, p)
			nu = src.Uniform(0.3, 0.7)
		}
		mean := src.Uniform(1e5, 1e7)
		ts[i] = &task.Task{
			ID:      i + 1,
			Name:    fmt.Sprintf("R%d", i+1),
			Arrival: uam.Spec{A: a, P: p},
			TUF:     f,
			Demand:  task.Demand{Mean: mean, Variance: mean},
			Req:     task.Requirement{Nu: nu, Rho: rho},
		}
	}
	return ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
}

// TestAdmitsMatchesAnalyze holds the verdict-only path to Analyze's
// verdict on random sets from deep underload to past the reject margin,
// for a scheme of every policy, and checks that it allocates nothing.
func TestAdmitsMatchesAnalyze(t *testing.T) {
	ft := cpu.PowerNowK6()
	accepts := 0
	for seed := uint64(1); seed <= 40; seed++ {
		for _, load := range []float64{0.3, 0.8, 1.0, 1.2, 2, 6} {
			ts := randomSet(seed, load)
			for _, scheme := range []string{"EUA*", "laEDF-NA", "GUS", "RR"} {
				res, err := admission.Analyze(ts, ft, scheme)
				if err != nil {
					t.Fatal(err)
				}
				got := admission.Admits(ts, ft.Max(), admission.PolicyFor(scheme))
				if got != (res.Verdict == admission.Accept) {
					t.Fatalf("seed %d load %v %s: Admits %v, Analyze %s", seed, load, scheme, got, res.Verdict)
				}
				if got {
					accepts++
				}
			}
		}
	}
	if accepts == 0 {
		t.Fatal("no set was accepted: the comparison checked only rejections")
	}
	ts := randomSet(1, 0.8)
	if n := testing.AllocsPerRun(20, func() { admission.Admits(ts, ft.Max(), admission.DeadlineOrdered) }); n != 0 {
		t.Fatalf("Admits allocates %v times per call", n)
	}
}
