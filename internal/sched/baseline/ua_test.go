package baseline_test

import (
	"math"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// TestDensityRanking: during an overload both UA schedulers run the
// job with the higher utility density, wherever it sits in the ready
// list.
func TestDensityRanking(t *testing.T) {
	hi := stepTask(1, 0.1, 100, 60e6)
	lo := stepTask(2, 0.1, 1, 60e6)
	for _, s := range []sched.Scheduler{baseline.NewDASA(), baseline.NewGUS()} {
		t.Run(s.Name(), func(t *testing.T) {
			s := initOn(t, s, hi, lo)
			jHi, jLo := job(hi, 1), job(lo, 2)
			if d := s.Decide(0, []*task.Job{jLo, jHi}); d.Run != jHi {
				t.Errorf("ran %v, want the dense job", d.Run)
			}
		})
	}
}

// TestOverloadBeatsEDF: the UA schedulers' raison d'être — during
// overloads they accrue more utility than plain EDF by favouring
// importance over urgency.
func TestOverloadBeatsEDF(t *testing.T) {
	for _, c := range []struct {
		s    sched.Scheduler
		seed uint64
	}{{baseline.NewDASA(), 21}, {baseline.NewGUS(), 3}} {
		t.Run(c.s.Name(), func(t *testing.T) {
			src := rng.New(c.seed)
			ts := make(task.Set, 5)
			for i := range ts {
				p := src.Uniform(0.03, 0.12)
				ts[i] = stepTask(i+1, p, 1+float64(i*i*25), 1e6)
			}
			ts = ts.ScaleToLoad(1.6, cpu.PowerNowK6().Max())
			ua := metrics.Analyze(simulate(t, ts, c.s, 2.0, 6)).AccruedUtility
			edf := metrics.Analyze(simulate(t, ts, baseline.NewEDF(true), 2.0, 6)).AccruedUtility
			if ua <= edf {
				t.Errorf("%s %v <= EDF %v during overload", c.s.Name(), ua, edf)
			}
		})
	}
}

func TestDASAUnderloadMatchesEDF(t *testing.T) {
	src := rng.New(23)
	ts := make(task.Set, 3)
	for i := range ts {
		p := src.Uniform(0.04, 0.15)
		ts[i] = stepTask(i+1, p, src.Uniform(1, 70), 1e6)
	}
	ts = ts.ScaleToLoad(0.6, cpu.PowerNowK6().Max())
	du := metrics.Analyze(simulate(t, ts, baseline.NewDASA(), 1.0, 2)).AccruedUtility
	eu := metrics.Analyze(simulate(t, ts, baseline.NewEDF(true), 1.0, 2)).AccruedUtility
	if du != eu {
		t.Fatalf("underload: DASA %v != EDF %v", du, eu)
	}
}

// TestGUSChainPUDPrefersUnblockingPath: a low-utility holder that
// unblocks a high-utility waiter must outrank a medium independent job,
// because the waiter's utility counts toward the holder's chain.
func TestGUSChainPUDPrefersUnblockingPath(t *testing.T) {
	holder := stepTask(1, 0.4, 1, 10e6) // tiny own utility
	waiter := stepTask(2, 0.3, 100, 10e6)
	indep := stepTask(3, 0.35, 30, 10e6)
	s := initOn(t, baseline.NewGUS(), holder, waiter, indep)
	jHold, jWait, jInd := job(holder, 1), job(waiter, 2), job(indep, 3)
	// Simulate engine-maintained blocking: the waiter waits on the holder.
	jWait.BlockedBy = jHold

	d := s.Decide(0, []*task.Job{jHold, jWait, jInd})
	// The waiter's chain (waiter+holder: utility 101 over 20e6 cycles,
	// PUD ≈ 5.05e-6) outranks the independent job (30/10e6 = 3e-6) and the
	// bare holder (1/10e6). The schedule is critical-time ordered among
	// inserted jobs, so the earliest critical time among the top chains
	// runs first; what matters is the independent job does NOT win.
	if d.Run == jInd {
		t.Fatalf("independent job outranked the unblocking chain")
	}
}

// TestGUSChainStopsOnCycles: a blocking cycle (which the engine's
// resource model never builds, but BlockedBy alone permits) must not
// hang the chain walk.
func TestGUSChainStopsOnCycles(t *testing.T) {
	a, b := stepTask(1, 0.1, 10, 1e6), stepTask(2, 0.1, 10, 1e6)
	s := initOn(t, baseline.NewGUS(), a, b)
	ja, jb := job(a, 1), job(b, 2)
	ja.BlockedBy, jb.BlockedBy = jb, ja
	if d := s.Decide(0, []*task.Job{ja, jb}); d.Run == nil {
		t.Fatalf("decision %+v", d)
	}
}

func TestGUSEndToEndWithResources(t *testing.T) {
	a := stepTask(1, 0.1, 10, 5e6)
	a.Sections = []task.Section{{Resource: 1, Start: 0, End: 0.6}}
	b := stepTask(2, 0.15, 40, 8e6)
	b.Sections = []task.Section{{Resource: 1, Start: 0.2, End: 0.9}}
	rep := metrics.Analyze(simulate(t, task.Set{a, b}, baseline.NewGUS(), 1.0, 5))
	if rep.Released == 0 || rep.Completed+rep.Aborted != rep.Released {
		t.Fatalf("report %+v", rep)
	}
}

// nanTUF is a caller's TUF whose utility is NaN wherever it is defined.
type nanTUF struct{ tuf.Step }

func (nanTUF) Utility(float64) float64 { return math.NaN() }

// TestUANaNDensity pins what DASA and GUS do with a NaN density, which a
// caller's TUF can produce. Their stable sort by density runs over the
// critical-time order and leaves a NaN where that order put it, and no
// density moves past it; the greedy counts it as a positive candidate.
// Here N (NaN, earliest critical time), B (high density) and A (low)
// are released together, and N and B do not fit together: in every
// ready order the greedy tries N, B and A, keeps N and A, and runs N.
func TestUANaNDensity(t *testing.T) {
	fm := cpu.PowerNowK6().Max()
	n := &task.Task{
		ID: 1, Arrival: uam.Spec{A: 1, P: 0.125},
		TUF:    nanTUF{tuf.NewStep(5, 0.125)},
		Demand: task.Demand{Mean: 0.1 * fm},
		Req:    task.Requirement{Nu: 1, Rho: 0.9},
	}
	b, a := stepTask(2, 0.25, 100, 0.16*fm), stepTask(3, 0.5, 1, 0.05*fm)
	ts := task.Set{n, b, a}
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, mk := range []func() *baseline.UA{baseline.NewDASA, baseline.NewGUS} {
		for _, order := range orders {
			s := mk()
			c := ctx(ts)
			c.Telemetry = telemetry.NewRegistry()
			if err := s.Init(c); err != nil {
				t.Fatal(err)
			}
			ready := make([]*task.Job, len(order))
			for i, k := range order {
				ready[i] = job(ts[k], uint64(k)+1)
			}
			d := s.Decide(0, ready)
			if d.Run == nil || d.Run.Task != n {
				t.Fatalf("%s, order %v: runs %v, want the NaN job", s.Name(), order, d.Run)
			}
			iters := c.Telemetry.Counter(sched.MetricFeasIters, "", telemetry.L("scheme", s.Name())).Value()
			if iters != 3 {
				t.Fatalf("%s, order %v: %d feasibility iterations, want 3", s.Name(), order, iters)
			}
		}
	}
}
