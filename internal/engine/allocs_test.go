package engine

import (
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/workload"
)

// maxAllocsPerExtraEvent bounds what an event costs in allocations,
// amortised: the event queue, the job slab and the watchdog's windows
// are sized once per run, so stretching the run adds events but almost
// no allocations (buffers that grow with the peak backlog aside).
const maxAllocsPerExtraEvent = 0.05

// TestEventLoopAllocations runs the Figure 2 cell's EUA* configuration
// (the Table 1 apps at load 0.6) at horizon H and 4H and bounds the
// allocations the extra events add. A per-event allocation anywhere on
// the event path (a pointer per queued event, a boxed payload, a heap
// object per job, a re-sliced window) costs at least one allocation per
// extra event and fails the bound by a factor of 20.
func TestEventLoopAllocations(t *testing.T) {
	ft := cpu.PowerNowK6()
	model := energy.MustPreset(energy.E1, ft.Max())
	src := rng.New(1)
	var ts task.Set
	for _, app := range workload.Table1() {
		set, err := app.Synthesize(src, workload.Options{FirstID: len(ts) + 1})
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, set...)
	}
	ts = ts.ScaleToLoad(0.6, ft.Max())
	measure := func(horizon float64) (allocs float64, events int) {
		run := func() {
			res, err := Run(Config{Tasks: ts, Scheduler: eua.New(), Freqs: ft, Energy: model,
				Horizon: horizon, Seed: 1, AbortAtTermination: true})
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
	if perEvent > maxAllocsPerExtraEvent {
		t.Fatalf("%.3f allocations per extra event (%v over %d events, %v over %d), want at most %v",
			perEvent, shortAllocs, shortEvents, longAllocs, longEvents, maxAllocsPerExtraEvent)
	}
}
