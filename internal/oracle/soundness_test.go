package oracle_test

// The oracle property suites — the bound-bracketing counterpart of the
// admission differential suite. Across generated workloads (Table 1
// shapes × loads × seeds × schemes × energy settings), every simulated
// run must land inside the oracle bracket:
//
//   - YDS energy lower bound <= the run's simulated energy (both the
//     continuous bound and the tighter discrete-table bound), and
//   - every scheduler's accrued utility <= the branch-and-bound
//     clairvoyant optimum on small instances.
//
// Every violation prints the (shape, load, seed, scheme, energy)
// coordinates that reproduce it.

import (
	"fmt"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/oracle"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
	"github.com/euastar/euastar/internal/workload"
)

// simulateRaw runs one scheme and returns the raw engine result (the
// oracles need the resolved jobs, not just the aggregate report).
func simulateRaw(t testing.TB, ts task.Set, sc experiment.Scheme, seed uint64, horizon float64, preset energy.Preset) *engine.Result {
	t.Helper()
	ft := cpu.PowerNowK6()
	model, err := energy.NewPreset(preset, ft.Max())
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
	return res
}

// synthesizeTable1 mirrors the experiment harness's workload synthesis.
func synthesizeTable1(t testing.TB, seed uint64, shape workload.Shape, load float64) task.Set {
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

// TestYDSLowerBoundsSimulatedEnergy sweeps Table 1 workloads across
// shapes × loads × seeds × schemes × energy settings and checks that no
// run's simulated energy undercuts the YDS bound on the work it
// actually executed.
func TestYDSLowerBoundsSimulatedEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs >100 simulations; skipped in -short")
	}
	schemes := experiment.ComparisonSchemes()
	shapes := []workload.Shape{workload.Step, workload.LinearDecay}
	loads := []float64{0.3, 0.7, 1.0, 1.6}
	seeds := []uint64{1, 2, 3}
	presets := []energy.Preset{energy.E1, energy.E2, energy.E3}
	const horizon = 0.12
	ft := cpu.PowerNowK6()

	cases := 0
	for _, shape := range shapes {
		for _, seed := range seeds {
			for li, load := range loads {
				ts := synthesizeTable1(t, seed, shape, load)
				for si, sc := range schemes {
					preset := presets[(li+si)%len(presets)]
					coords := fmt.Sprintf("(shape=%s load=%g seed=%d scheme=%s energy=%s)",
						shape, load, seed, sc.Name, preset)
					cases++
					res := simulateRaw(t, ts, sc, seed, horizon, preset)
					model := energy.MustPreset(preset, ft.Max())
					sched, err := oracle.YDS(oracle.ExecutedInstance(res.Jobs, res.EndTime))
					if err != nil {
						t.Fatalf("%s: YDS: %v", coords, err)
					}
					cont := sched.EnergyContinuous(model)
					disc := sched.EnergyDiscrete(model, ft)
					tol := 1e-9*res.TotalEnergy + 1e-12
					if cont > disc+tol {
						t.Errorf("CONTRADICTION %s: continuous bound %g above discrete bound %g",
							coords, cont, disc)
					}
					if disc > res.TotalEnergy+tol {
						t.Errorf("CONTRADICTION %s: YDS discrete lower bound %g above simulated energy %g",
							coords, disc, res.TotalEnergy)
					}
				}
			}
		}
	}
	t.Logf("yds soundness: %d cells bracketed", cases)
	if cases < 100 {
		t.Errorf("suite covered %d cells, want >= 100", cases)
	}
}

// smallSet builds a deterministic task set tiny enough that every
// released job fits one branch-and-bound instance: 2–3 periodic tasks
// with windows no shorter than half the horizon.
func smallSet(seed uint64, load float64) task.Set {
	src := rng.New(seed*0x9e3779b9 + 17)
	n := 2 + int(src.Uniform(0, 2))
	ts := make(task.Set, n)
	for i := range ts {
		p := src.Uniform(0.030, 0.080)
		umax := src.Uniform(5, 70)
		nu := 1.0
		var f tuf.TUF
		if src.Uniform(0, 1) < 0.5 {
			f = tuf.NewStep(umax, p)
		} else {
			// A linear TUF with ν=1 would pin the critical time to 0
			// (infinite minimum frequency), so relax ν like the paper's
			// Section 5.2 settings do.
			f = tuf.NewLinear(umax, 0, p)
			nu = 0.5
		}
		mean := src.Uniform(1e5, 5e6)
		ts[i] = &task.Task{
			ID:      i + 1,
			Name:    fmt.Sprintf("S%d", i+1),
			Arrival: uam.Spec{A: 1, P: p},
			TUF:     f,
			Demand:  task.Demand{Mean: mean, Variance: mean},
			Req:     task.Requirement{Nu: nu, Rho: 0.9},
		}
	}
	return ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
}

// TestBnBUpperBoundsSimulatedUtility checks, on every generated
// small-instance cell, that no scheduler accrues more utility than the
// clairvoyant branch-and-bound optimum on the identical released jobs —
// and that the Exact optimum is invariant under permuting the input
// job order.
func TestBnBUpperBoundsSimulatedUtility(t *testing.T) {
	if testing.Short() {
		t.Skip("runs >100 simulations; skipped in -short")
	}
	schemes := experiment.ComparisonSchemes()
	loads := []float64{0.3, 0.6, 0.9, 1.2, 1.6, 2.2}
	seeds := []uint64{1, 2, 3, 4}
	const horizon = 0.06
	fm := cpu.PowerNowK6().Max()

	cells := 0
	for _, seed := range seeds {
		for _, load := range loads {
			ts := smallSet(seed, load)
			var jobs []oracle.UAJob
			var bound float64
			for si, sc := range schemes {
				coords := fmt.Sprintf("(small load=%g seed=%d scheme=%s)", load, seed, sc.Name)
				res := simulateRaw(t, ts, sc, seed, horizon, energy.E1)
				if si == 0 {
					// The released set is scheduler-independent (same
					// seed, same arrival draws); solve it once per cell.
					jobs = oracle.UAInstance(res.Jobs)
					if len(jobs) == 0 || len(jobs) > 12 {
						t.Fatalf("%s: %d released jobs, want 1..12 — retune smallSet", coords, len(jobs))
					}
					ub, err := oracle.SolveUA(jobs, fm, oracle.UABudget{})
					if err != nil {
						t.Fatalf("%s: SolveUA: %v", coords, err)
					}
					if ub.Status != oracle.Exact {
						t.Fatalf("%s: status %v on a %d-job instance, want Exact", coords, ub.Status, len(jobs))
					}
					bound = ub.Upper
					cells++

					// Permutation invariance of the Exact optimum.
					perm := rng.New(seed + 99).Perm(len(jobs))
					shuffled := make([]oracle.UAJob, len(jobs))
					for to, from := range perm {
						shuffled[to] = jobs[from]
					}
					ub2, err := oracle.SolveUA(shuffled, fm, oracle.UABudget{})
					if err != nil {
						t.Fatalf("%s: SolveUA(permuted): %v", coords, err)
					}
					if ub2.Status != oracle.Exact || ub2.Best != ub.Best {
						t.Errorf("CONTRADICTION %s: permuted instance gave Best %g (%v), original %g (%v)",
							coords, ub2.Best, ub2.Status, ub.Best, ub.Status)
					}
				}
				acc := 0.0
				for _, j := range res.Jobs {
					acc += j.Utility
				}
				if acc > bound*(1+1e-9)+1e-9 {
					t.Errorf("CONTRADICTION %s: accrued utility %g above clairvoyant optimum %g (%d jobs)",
						coords, acc, bound, len(jobs))
				}
			}
		}
	}
	t.Logf("bnb soundness: %d cells, %d scheduler runs bracketed", cells, cells*len(schemes))
	if cells*len(schemes) > 0 && cells < 24 {
		t.Errorf("suite covered %d cells, want >= 24", cells)
	}
}
