package engine

import (
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/workload"
)

// TestEventLoopAllocations runs a scheduler on the Table 1 apps at a
// load, at horizon H and 4H, and bounds the allocations the extra events
// add. The event queue, the job slab and the watchdog's windows are
// sized once per run, and the schedulers' buffers once per Init, so
// stretching the run adds events but almost no allocations (buffers that
// grow with the peak backlog aside). A per-event allocation anywhere on
// the event path (a pointer per queued event, a boxed payload, a heap
// object per job, a re-sliced window, a per-decision map or copy in a
// scheduler) costs at least one allocation per extra event and fails
// either bound several times over. At load 0.6 no job is aborted; at
// 1.6 each decision's abort list escapes into its Decision, which the
// looser bound allows. G-UER dispatches two cores at loads 1.2 and 3.2
// (per system, so 0.6 and 1.6 per core). The "+reg" rows attach one live
// registry to every run, so that the engine times and tallies each
// decision: that path must not allocate per decision either.
func TestEventLoopAllocations(t *testing.T) {
	for _, c := range []struct {
		name   string
		sched  func() sched.Scheduler
		cores  int
		load   float64
		budget float64 // joules, 0 for none
		reg    bool    // attach a live registry
		bound  float64 // allocations per extra event
	}{
		{"EUA*/L0.6", func() sched.Scheduler { return eua.New() }, 1, 0.6, 0, false, 0.05},
		{"DASA/L0.6", func() sched.Scheduler { return baseline.NewDASA() }, 1, 0.6, 0, false, 0.05},
		{"GUS/L0.6", func() sched.Scheduler { return baseline.NewGUS() }, 1, 0.6, 0, false, 0.05},
		{"EUA*/L0.6+reg", func() sched.Scheduler { return eua.New() }, 1, 0.6, 0, true, 0.05},
		{"EUA*/L1.6", func() sched.Scheduler { return eua.New() }, 1, 1.6, 0, false, 0.25},
		{"EUA*/L1.6+reg", func() sched.Scheduler { return eua.New() }, 1, 1.6, 0, true, 0.25},
		// Rationing engages at about 0.76 s of the long run and the
		// battery runs dry at 0.8 s; the short run never binds.
		{"EUA*-budget/L1.6", func() sched.Scheduler { return eua.New(eua.WithBudgetAwareness(0)) }, 1, 1.6, 8e26, false, 0.25},
		{"DASA/L1.6", func() sched.Scheduler { return baseline.NewDASA() }, 1, 1.6, 0, false, 0.25},
		{"GUS/L1.6", func() sched.Scheduler { return baseline.NewGUS() }, 1, 1.6, 0, false, 0.25},
		{"G-UER/2/L1.2", func() sched.Scheduler { return partition.NewGlobal(2) }, 2, 1.2, 0, false, 0.25},
		{"G-UER/2/L3.2", func() sched.Scheduler { return partition.NewGlobal(2) }, 2, 3.2, 0, false, 0.5},
		{"G-UER/2/L3.2+reg", func() sched.Scheduler { return partition.NewGlobal(2) }, 2, 3.2, 0, true, 0.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			var reg *telemetry.Registry
			if c.reg {
				reg = telemetry.NewRegistry()
			}
			perEvent := allocsPerExtraEvent(t, c.sched, c.cores, c.load, c.budget, reg)
			if perEvent > c.bound {
				t.Fatalf("%.3f allocations per extra event, want at most %v", perEvent, c.bound)
			}
		})
	}
	// A registry whose series exist already costs a run only its two
	// tallies: the flush finds every series without allocating.
	for _, c := range []struct {
		name  string
		sched func() sched.Scheduler
		cores int
	}{
		{"EUA*/L0.6+warm-reg", func() sched.Scheduler { return eua.New() }, 1},
		{"G-UER/2/L1.2+warm-reg", func() sched.Scheduler { return partition.NewGlobal(2) }, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			ft := cpu.PowerNowK6()
			model := energy.MustPreset(energy.E1, ft.Max())
			ts := table1Tasks(t, 0.6*float64(c.cores))
			allocs := func(reg *telemetry.Registry) float64 {
				// AllocsPerRun's warm-up run registers every series.
				return testing.AllocsPerRun(5, func() {
					if _, err := Run(Config{Tasks: ts, Scheduler: c.sched(), Cores: c.cores, Freqs: ft, Energy: model,
						Horizon: 0.25, Seed: 1, AbortAtTermination: true, Telemetry: reg}); err != nil {
						t.Fatal(err)
					}
				})
			}
			without, with := allocs(nil), allocs(telemetry.NewRegistry())
			t.Logf("%v allocations per run without a registry, %v with a warm one", without, with)
			if with > without+2 {
				t.Fatalf("a warm registry adds %v allocations per run, want at most the 2 tallies", with-without)
			}
		})
	}
}

// table1Tasks synthesizes the Table 1 applications at seed 1 and scales
// them to the load.
func table1Tasks(t *testing.T, load float64) task.Set {
	t.Helper()
	src := rng.New(1)
	var ts task.Set
	for _, app := range workload.Table1() {
		set, err := app.Synthesize(src, workload.Options{FirstID: len(ts) + 1})
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, set...)
	}
	return ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
}

// allocsPerExtraEvent runs the scheduler on the given number of cores at
// horizons 0.25 and 1, reporting to reg (nil for none), and returns the
// allocations per event the longer run adds.
func allocsPerExtraEvent(t *testing.T, mk func() sched.Scheduler, cores int, load, budget float64, reg *telemetry.Registry) float64 {
	t.Helper()
	ft := cpu.PowerNowK6()
	model := energy.MustPreset(energy.E1, ft.Max())
	ts := table1Tasks(t, load)
	measure := func(horizon float64) (allocs float64, events int) {
		run := func() {
			res, err := Run(Config{Tasks: ts, Scheduler: mk(), Cores: cores, Freqs: ft, Energy: model,
				Horizon: horizon, Seed: 1, AbortAtTermination: true, EnergyBudget: budget, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			events = res.Events
		}
		return testing.AllocsPerRun(5, run), events
	}
	shortAllocs, shortEvents := measure(0.25)
	longAllocs, longEvents := measure(1)
	if longEvents < 3*shortEvents {
		t.Fatalf("horizon 1 processed %d events, horizon 0.25 %d", longEvents, shortEvents)
	}
	perEvent := (longAllocs - shortAllocs) / float64(longEvents-shortEvents)
	t.Logf("%v allocations over %d events, %v over %d: %.4f per extra event",
		shortAllocs, shortEvents, longAllocs, longEvents, perEvent)
	return perEvent
}
