package euastar_test

import (
	"errors"
	"testing"

	euastar "github.com/euastar/euastar"
	"github.com/euastar/euastar/internal/engine"
)

func demoTasks() euastar.TaskSet {
	return euastar.TaskSet{
		{
			ID:      1,
			Name:    "sensor",
			Arrival: euastar.Periodic(50 * euastar.Millisecond),
			TUF:     euastar.StepTUF(10, 50*euastar.Millisecond),
			Demand:  euastar.Demand{Mean: 2e6, Variance: 0},
			Req:     euastar.Requirement{Nu: 1, Rho: 0.96},
		},
		{
			ID:      2,
			Name:    "tracker",
			Arrival: euastar.UAM(2, 80*euastar.Millisecond),
			TUF:     euastar.LinearTUF(40, 0, 80*euastar.Millisecond),
			Demand:  euastar.Demand{Mean: 3e6, Variance: 3e6},
			Req:     euastar.Requirement{Nu: 0.3, Rho: 0.9},
		},
	}
}

func TestSimulateDefaults(t *testing.T) {
	res, err := euastar.Simulate(euastar.SimConfig{
		Tasks:              demoTasks(),
		Scheduler:          euastar.NewEUA(),
		Horizon:            1,
		Seed:               1,
		AbortAtTermination: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) == 0 {
		t.Fatal("no jobs released")
	}
	rep := euastar.Analyze(res)
	if rep.Released != len(res.Jobs) {
		t.Fatalf("report released %d != %d", rep.Released, len(res.Jobs))
	}
	if !rep.AssuranceSatisfied() {
		t.Fatal("assurance violated on a light default workload")
	}
}

func TestUAMHelpers(t *testing.T) {
	s := euastar.UAM(3, 0.05)
	if s.A != 3 || s.P != 0.05 {
		t.Fatalf("spec = %+v", s)
	}
	p := euastar.Periodic(0.1)
	if !p.IsPeriodic() {
		t.Fatal("Periodic not periodic")
	}
}

func TestTUFConstructors(t *testing.T) {
	cases := []euastar.TUF{
		euastar.StepTUF(10, 1),
		euastar.LinearTUF(10, 2, 1),
		euastar.QuadraticTUF(10, 1),
		euastar.ExponentialTUF(10, 0.3, 1),
	}
	for _, f := range cases {
		if f.MaxUtility() != 10 {
			t.Fatalf("%v: Umax = %v", f, f.MaxUtility())
		}
		if f.Termination() != 1 {
			t.Fatalf("%v: X = %v", f, f.Termination())
		}
	}
}

func TestPiecewiseTUF(t *testing.T) {
	f, err := euastar.PiecewiseTUF([2]float64{0, 10}, [2]float64{5, 10}, [2]float64{10, 0})
	if err != nil {
		t.Fatal(err)
	}
	if u := f.Utility(5); u != 10 {
		t.Fatalf("U(5) = %v", u)
	}
	if _, err := euastar.PiecewiseTUF([2]float64{0, 10}); err == nil {
		t.Fatal("single knot accepted")
	}
}

func TestEnergyPreset(t *testing.T) {
	for _, name := range []string{"E1", "E2", "E3"} {
		m, err := euastar.EnergyPreset(name, 1000e6)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name != name {
			t.Fatalf("name = %q", m.Name)
		}
	}
	if _, err := euastar.EnergyPreset("E7", 1000e6); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestSchedulerConstructors(t *testing.T) {
	names := map[string]euastar.Scheduler{
		"EUA*":       euastar.NewEUA(),
		"EUA*-noDVS": euastar.NewEUA(euastar.WithoutDVS()),
		"EDF-fm":     euastar.NewEDF(true),
		"EDF-fm-NA":  euastar.NewEDF(false),
		"ccEDF":      euastar.NewCCEDF(true),
		"laEDF":      euastar.NewLAEDF(true),
		"laEDF-NA":   euastar.NewLAEDF(false),
		"DASA":       euastar.NewDASA(),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("scheduler name %q != %q", s.Name(), want)
		}
	}
}

func TestCompareOnIdenticalWorkload(t *testing.T) {
	cfg := euastar.SimConfig{
		Tasks:              demoTasks(),
		Horizon:            1,
		Seed:               7,
		AbortAtTermination: true,
	}
	reports, err := euastar.Compare(cfg, euastar.NewEDF(true), euastar.NewEUA())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
	if reports[0].Released != reports[1].Released {
		t.Fatal("different workloads across schedulers")
	}
	n := euastar.Normalize(reports[1], reports[0])
	if n.Energy >= 1 {
		t.Fatalf("EUA* normalized energy = %v, expected savings", n.Energy)
	}
	// With linear TUFs EUA* legitimately trades utility above the ν bound
	// for energy (the dual-criterion objective), so the normalized utility
	// sits below EDF's but every statistical requirement must still hold.
	if n.Utility < 0.5 || n.Utility > 1.01 {
		t.Fatalf("underload normalized utility = %v", n.Utility)
	}
	if !reports[1].AssuranceSatisfied() {
		t.Fatal("EUA* violated {nu, rho} during underload")
	}
}

func TestCompareNoSchedulers(t *testing.T) {
	if _, err := euastar.Compare(euastar.SimConfig{}); err == nil {
		t.Fatal("no schedulers accepted")
	}
}

func TestSimulateInvalidConfig(t *testing.T) {
	if _, err := euastar.Simulate(euastar.SimConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestSimulateRejectsCoreMismatch: a multicore scheduler or a per-core
// table on a config that leaves Cores unset is a configuration error
// reported before the run, not an invariant violation in the middle of
// it.
func TestSimulateRejectsCoreMismatch(t *testing.T) {
	part, err := euastar.NewPartitioned(4, "ff", func() euastar.Scheduler { return euastar.NewEUA() })
	if err != nil {
		t.Fatal(err)
	}
	global, err := euastar.NewGlobalUER(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]euastar.SimConfig{
		"partitioned": {Scheduler: part},
		"global":      {Scheduler: global},
		"per-core table": {
			Scheduler: euastar.NewEUA(),
			CoreFreqs: []euastar.FrequencyTable{{200e6, 300e6, 400e6, 500e6, 600e6}},
		},
	} {
		cfg.Tasks, cfg.Horizon, cfg.AbortAtTermination = demoTasks(), 0.5, true
		_, err := euastar.Simulate(cfg)
		if err == nil {
			t.Fatalf("%s: accepted with Cores unset", name)
		}
		var inv *engine.InvariantError
		if errors.As(err, &inv) {
			t.Fatalf("%s: rejected mid-run (%v), not by validation", name, err)
		}
	}
}

func TestSchedulabilityAnalysis(t *testing.T) {
	light := euastar.TaskSet{{
		ID: 1, Arrival: euastar.Periodic(0.1),
		TUF:    euastar.StepTUF(10, 0.1),
		Demand: euastar.Demand{Mean: 10e6, Variance: 0},
		Req:    euastar.Requirement{Nu: 1, Rho: 0.9},
	}}
	if ok, _ := euastar.Schedulable(light, 1000e6); !ok {
		t.Fatal("light set rejected")
	}
	fmin, ok := euastar.MinimumFrequency(light, euastar.PowerNowK6())
	if !ok || fmin != 360e6 {
		t.Fatalf("minimum frequency = %v, %v", fmin, ok)
	}
	if got := euastar.TheoremOneFrequency(light); got != 1e8 {
		t.Fatalf("theorem 1 frequency = %v", got)
	}
	heavy := euastar.TaskSet{{
		ID: 1, Arrival: euastar.Periodic(0.1),
		TUF:    euastar.StepTUF(10, 0.1),
		Demand: euastar.Demand{Mean: 150e6, Variance: 0},
		Req:    euastar.Requirement{Nu: 1, Rho: 0.9},
	}}
	if ok, w := euastar.Schedulable(heavy, 1000e6); ok || w <= 0 {
		t.Fatalf("overloaded set accepted (witness %v)", w)
	}
}

func TestPowerNowK6(t *testing.T) {
	ft := euastar.PowerNowK6()
	if len(ft) != 7 || ft.Max() != 1000e6 {
		t.Fatalf("table = %v", ft)
	}
}
