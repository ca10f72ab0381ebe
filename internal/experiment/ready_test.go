package experiment

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/workload"
)

// readOnlyReady wraps a scheduler and reports the first decision that
// changes the ready list it was handed (its length, its jobs or their
// order) or returns aborts that share its memory. It presents every
// scheduler as a MultiScheduler, answering for a plain one as the
// engine's one-core adapter does, and forwards the lifecycle
// notifications the engine sends (the runs set no energy budget).
type readOnlyReady struct {
	inner  sched.Scheduler
	cores  int
	before []*task.Job
	slot   [1]sched.CoreDecision
	calls  int
	fault  string
}

func (w *readOnlyReady) Name() string                  { return w.inner.Name() }
func (w *readOnlyReady) Init(ctx *sched.Context) error { return w.inner.Init(ctx) }
func (w *readOnlyReady) Cores() int                    { return w.cores }

func (w *readOnlyReady) Decide(now float64, ready []*task.Job) sched.Decision {
	d := w.DecideMulti(now, ready)
	return sched.Decision{Run: d.Cores[0].Run, Freq: d.Cores[0].Freq, Abort: d.Abort}
}

func (w *readOnlyReady) DecideMulti(now float64, ready []*task.Job) sched.MultiDecision {
	w.before = append(w.before[:0], ready...)
	var d sched.MultiDecision
	if ms, ok := w.inner.(sched.MultiScheduler); ok {
		d = ms.DecideMulti(now, ready)
	} else {
		sd := w.inner.Decide(now, ready)
		w.slot[0] = sched.CoreDecision{Run: sd.Run, Freq: sd.Freq}
		d = sched.MultiDecision{Cores: w.slot[:], Abort: sd.Abort}
	}
	w.calls++
	switch {
	case w.fault != "":
	case !slices.Equal(w.before, ready):
		w.fault = fmt.Sprintf("decision %d at t=%g changed ready (%d jobs)", w.calls, now, len(ready))
	case sharesMemory(d.Abort, ready):
		w.fault = fmt.Sprintf("decision %d at t=%g returned aborts that alias ready", w.calls, now)
	}
	return d
}

func (w *readOnlyReady) OnRelease(now float64, j *task.Job) {
	if o, ok := w.inner.(engine.EventObserver); ok {
		o.OnRelease(now, j)
	}
}

func (w *readOnlyReady) OnComplete(now float64, j *task.Job) {
	if o, ok := w.inner.(engine.EventObserver); ok {
		o.OnComplete(now, j)
	}
}

// sharesMemory reports whether the backing arrays of a and b, up to
// their capacities, overlap.
func sharesMemory(a, b []*task.Job) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[:1][0])
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b))*size && pb < pa+uintptr(cap(a))*size
}

// TestDecideLeavesReadyAlone holds every comparison scheme on one core,
// partitioned EUA* (ff and wf) and global UER ranking on 2 and 4 cores
// to the Scheduler contract: a decision must leave the ready list the
// engine hands it exactly as it was and return no aborts that alias it.
// The engine passes its own pending list, not a copy.
func TestDecideLeavesReadyAlone(t *testing.T) {
	type variant struct {
		name  string
		cores int
		build func() (sched.Scheduler, error)
		abort bool
	}
	var variants []variant
	for _, sc := range ComparisonSchemes() {
		variants = append(variants, variant{sc.Name, 1, func() (sched.Scheduler, error) { return sc.New(), nil }, sc.Abort})
	}
	eua := Figure2Schemes()[0]
	for _, m := range []int{2, 4} {
		for _, placement := range []string{"ff", "wf", "global"} {
			variants = append(variants, variant{fmt.Sprintf("EUA*/%d%s", m, placement), m,
				func() (sched.Scheduler, error) { return partition.Place(m, placement, eua.New) }, true})
		}
	}

	cfg := Config{Energy: energy.E1, Horizon: 0.25}.withDefaults()
	ft := cpu.PowerNowK6()
	model := energy.MustPreset(energy.E1, ft.Max())
	for seed := uint64(1); seed <= 2; seed++ {
		base, err := synthesize(cfg, seed, workload.Step, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, load := range []float64{0.6, 1.4} {
			for _, v := range variants {
				inner, err := v.build()
				if err != nil {
					t.Fatal(err)
				}
				w := &readOnlyReady{inner: inner, cores: v.cores}
				_, err = engine.Run(engine.Config{
					Tasks:              base.ScaleToLoad(load*float64(v.cores), ft.Max()),
					Scheduler:          w,
					Freqs:              ft,
					Energy:             model,
					Cores:              v.cores,
					Horizon:            cfg.Horizon,
					Seed:               seed,
					AbortAtTermination: v.abort,
				})
				if err != nil {
					t.Fatalf("seed=%d load=%g scheme=%s: %v", seed, load, v.name, err)
				}
				if w.fault != "" {
					t.Errorf("seed=%d load=%g scheme=%s: %s", seed, load, v.name, w.fault)
				}
				if w.calls == 0 {
					t.Errorf("seed=%d load=%g scheme=%s: no decision was checked", seed, load, v.name)
				}
			}
		}
	}
}
