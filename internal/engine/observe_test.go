package engine

import (
	"errors"
	"slices"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/uam"
)

// passThrough hands a scheduler's decisions to the engine unchanged and
// records what went by: the calls, the feasibility trials the decisions
// reported, and the releases. With stop set, it closes stop after its
// stopAfter-th call.
type passThrough struct {
	sched.Scheduler
	calls, iters, releases int
	stop                   chan struct{}
	stopAfter              int
}

func (p *passThrough) Decide(now float64, ready []*task.Job) sched.Decision {
	d := p.Scheduler.Decide(now, ready)
	p.note(d.Iters)
	return d
}

func (p *passThrough) note(iters int) {
	p.calls++
	p.iters += iters
	if p.calls == p.stopAfter {
		close(p.stop)
	}
}

func (p *passThrough) OnRelease(now float64, j *task.Job) {
	p.releases++
	if obs, ok := p.Scheduler.(EventObserver); ok {
		obs.OnRelease(now, j)
	}
}

func (p *passThrough) OnComplete(now float64, j *task.Job) {
	if obs, ok := p.Scheduler.(EventObserver); ok {
		obs.OnComplete(now, j)
	}
}

// passThroughMulti is passThrough for a MultiScheduler.
type passThroughMulti struct {
	*passThrough
	multi sched.MultiScheduler
}

func (p passThroughMulti) Cores() int { return p.multi.Cores() }

func (p passThroughMulti) DecideMulti(now float64, ready []*task.Job) sched.MultiDecision {
	d := p.multi.DecideMulti(now, ready)
	p.note(d.Iters)
	return d
}

// passThroughOf wraps s, keeping it a MultiScheduler if it is one.
func passThroughOf(s sched.Scheduler) (sched.Scheduler, *passThrough) {
	p := &passThrough{Scheduler: s}
	if ms, ok := s.(sched.MultiScheduler); ok {
		return passThroughMulti{p, ms}, p
	}
	return p, p
}

// TestEachDecisionObservedOnce runs every kind of scheduler — EUA*, an
// EDF variant, a UA scheme, partitioned EUA* and G-UER — each with a
// fresh registry, on a finished run, an interrupted one and one its
// watchdog fails, and checks that the engine observed every decision
// exactly once: the scheme's latency count, the engine's decision count
// and the decisions made agree, one depth observation fills both depth
// histograms, and the feasibility trials exported are those the
// decisions reported.
func TestEachDecisionObservedOnce(t *testing.T) {
	ft := cpu.PowerNowK6()
	model := energy.MustPreset(energy.E1, ft.Max())
	ts := table1Tasks(t, 1.2)
	for _, c := range []struct {
		mk     func() sched.Scheduler
		cores  int
		greedy bool // the scheme's decisions run a feasibility greedy
	}{
		{func() sched.Scheduler { return eua.New() }, 1, true},
		{func() sched.Scheduler { return baseline.NewLAEDF(true) }, 1, false},
		{func() sched.Scheduler { return baseline.NewDASA() }, 1, true},
		{func() sched.Scheduler {
			return partition.New(4, partition.FirstFit, func() sched.Scheduler { return eua.New() })
		}, 4, true},
		{func() sched.Scheduler { return partition.NewGlobal(2) }, 2, false},
	} {
		scheme := c.mk().Name()
		t.Run(scheme, func(t *testing.T) {
			cfg := func(s sched.Scheduler, reg *telemetry.Registry) Config {
				return Config{Tasks: ts, Scheduler: s, Cores: c.cores, Freqs: ft, Energy: model,
					Horizon: 0.25, Seed: 1, AbortAtTermination: true, Telemetry: reg}
			}

			s, seen := passThroughOf(c.mk())
			reg := telemetry.NewRegistry()
			res, err := Run(cfg(s, reg))
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			checkObservedOnce(t, snap, scheme, res.Decisions, seen)
			if got := sumFamily(snap, MetricEvents); got != res.Events {
				t.Errorf("finished run: %s sums to %d, Result.Events %d", MetricEvents, got, res.Events)
			}
			if c.greedy && seen.iters == 0 {
				t.Error("finished run: no feasibility trials reported; the count check has no teeth")
			}

			s, seen = passThroughOf(c.mk())
			seen.stop, seen.stopAfter = make(chan struct{}), 20
			reg = telemetry.NewRegistry()
			interrupted := cfg(s, reg)
			interrupted.Interrupt = seen.stop
			if _, err := Run(interrupted); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted run: err = %v, want ErrInterrupted", err)
			}
			snap = reg.Snapshot()
			checkObservedOnce(t, snap, scheme, seen.calls, seen)
			if got := counterValue(snap, MetricEvents, telemetry.L("kind", "arrival")); got != seen.releases {
				t.Errorf("interrupted run: %d arrival events exported, %d releases", got, seen.releases)
			}

			s, seen = passThroughOf(c.mk())
			reg = telemetry.NewRegistry()
			failing := baseConfig(task.Set{stepTask(1, 0.01, 10, 1e5)}, s, 0.05)
			failing.Cores = c.cores
			failing.Arrivals = func(t *task.Task) uam.Generator { return violatingGen{s: t.Arrival} }
			failing.Telemetry = reg
			var ie *InvariantError
			if _, err := Run(failing); !errors.As(err, &ie) {
				t.Fatalf("failing run: err = %v, want *InvariantError", err)
			}
			snap = reg.Snapshot()
			checkObservedOnce(t, snap, scheme, seen.calls, seen)
			if got := counterValue(snap, MetricInvariants, telemetry.L("invariant", ie.Invariant)); got != 1 {
				t.Errorf("failing run: invariant_violations_total{invariant=%q} = %d, want 1", ie.Invariant, got)
			}
			// Both arrivals count, the one that broke the UAM bound too.
			if got := counterValue(snap, MetricEvents, telemetry.L("kind", "arrival")); got != 2 {
				t.Errorf("failing run: %d arrival events exported, want 2", got)
			}
		})
	}
}

// checkObservedOnce checks a run's registry against the decisions the
// run made and the pass-through wrapper saw.
func checkObservedOnce(t *testing.T, snap telemetry.Snapshot, scheme string, decisions int, seen *passThrough) {
	t.Helper()
	l := telemetry.L("scheme", scheme)
	latency, ready, depth := snap.Find(sched.MetricDecideSeconds, l), snap.Find(sched.MetricReadyJobs, l), snap.Find(MetricQueueDepth)
	if latency == nil || ready == nil || depth == nil {
		t.Fatalf("missing series: %s %v, %s %v, %s %v", sched.MetricDecideSeconds, latency != nil,
			sched.MetricReadyJobs, ready != nil, MetricQueueDepth, depth != nil)
	}
	if got := counterValue(snap, MetricDecisions); decisions == 0 || seen.calls != decisions ||
		got != decisions || int(latency.Count) != decisions || int(depth.Count) != decisions {
		t.Errorf("decisions: %d made, %d passed through, %s = %d, %s count = %d, %s count = %d",
			decisions, seen.calls, MetricDecisions, got, sched.MetricDecideSeconds, latency.Count,
			MetricQueueDepth, depth.Count)
	}
	if !slices.Equal(ready.Buckets, depth.Buckets) || ready.Sum != depth.Sum {
		t.Errorf("%s %v (sum %g) differs from %s %v (sum %g)",
			sched.MetricReadyJobs, ready.Buckets, ready.Sum, MetricQueueDepth, depth.Buckets, depth.Sum)
	}
	if got := counterValue(snap, sched.MetricFeasIters, l); got != seen.iters {
		t.Errorf("%s = %d, the decisions reported %d", sched.MetricFeasIters, got, seen.iters)
	}
}
