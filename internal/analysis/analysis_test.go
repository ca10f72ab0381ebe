package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

func stepTask(id, a int, p, mean float64) *task.Task {
	return &task.Task{
		ID: id, Arrival: uam.Spec{A: a, P: p},
		TUF:    tuf.NewStep(10, p),
		Demand: task.Demand{Mean: mean, Variance: 0},
		Req:    task.Requirement{Nu: 1, Rho: 0.9},
	}
}

func TestTheoremOneBound(t *testing.T) {
	tk := stepTask(1, 3, 0.1, 2e6)
	// C = 3·2e6, D = 0.1 → 6e7.
	if got := TheoremOneBound(tk); math.Abs(got-6e7) > 1 {
		t.Fatalf("bound = %v", got)
	}
	ts := task.Set{tk, stepTask(2, 1, 0.05, 1e6)}
	if got := TheoremOneFrequency(ts); math.Abs(got-(6e7+2e7)) > 1 {
		t.Fatalf("sum = %v", got)
	}
}

func TestDemandBoundShape(t *testing.T) {
	tk := stepTask(1, 2, 0.1, 5e6) // C = 1e7, D = 0.1
	ts := task.Set{tk}
	cases := []struct{ l, want float64 }{
		{0.05, 0},
		{0.1, 1e7},  // first window due
		{0.19, 1e7}, // second window not yet due
		{0.2, 2e7},  // second window due
		{0.45, 4e7}, // fourth window due at 0.4
	}
	for _, c := range cases {
		if got := DemandBound(ts, c.l); math.Abs(got-c.want) > 1 {
			t.Fatalf("dbf(%v) = %v, want %v", c.l, got, c.want)
		}
	}
}

func TestDemandRate(t *testing.T) {
	ts := task.Set{stepTask(1, 2, 0.1, 5e6)} // 1e7 per 0.1s
	if got := DemandRate(ts); math.Abs(got-1e8) > 1 {
		t.Fatalf("rate = %v", got)
	}
}

func TestSchedulableImplicitDeadlineMatchesUtilization(t *testing.T) {
	// With D = P (step TUFs, ν=1) the demand criterion reduces to the
	// classical utilization bound: schedulable iff Σ C/P <= f.
	ts := task.Set{
		stepTask(1, 1, 0.1, 40e6),
		stepTask(2, 1, 0.05, 20e6), // rates: 4e8 + 4e8 = 8e8
	}
	if ok, _ := Schedulable(ts, 8.0001e8); !ok {
		t.Fatal("rejected at f above the utilization")
	}
	if ok, w := Schedulable(ts, 7.9e8); ok {
		t.Fatal("accepted below the utilization")
	} else if w <= 0 {
		t.Fatal("no witness returned")
	}
}

func TestSchedulableExactlyAtUtilization(t *testing.T) {
	ts := task.Set{stepTask(1, 1, 0.1, 50e6)} // rate 5e8, D = P
	if ok, _ := Schedulable(ts, 5e8); !ok {
		t.Fatal("implicit-deadline set rejected at exactly its utilization")
	}
}

func TestSchedulableConstrainedDeadline(t *testing.T) {
	// ν < 1 on a linear TUF shrinks D below P, so the utilization bound is
	// no longer sufficient: demand concentrates early.
	tk := &task.Task{
		ID: 1, Arrival: uam.Spec{A: 1, P: 0.1},
		TUF:    tuf.NewLinear(10, 0, 0.1),
		Demand: task.Demand{Mean: 50e6, Variance: 0},
		Req:    task.Requirement{Nu: 0.5, Rho: 0.9}, // D = 0.05
	}
	ts := task.Set{tk}
	// Rate = 5e8, but the first window needs 50e6 by 0.05 → f >= 1e9.
	if ok, _ := Schedulable(ts, 6e8); ok {
		t.Fatal("constrained-deadline set accepted at its rate")
	}
	if ok, _ := Schedulable(ts, 1e9); !ok {
		t.Fatal("rejected at the demand-implied frequency")
	}
}

func TestMinimumFrequencyNeverAboveTheoremOne(t *testing.T) {
	src := rng.New(11)
	table := cpu.PowerNowK6()
	for rep := 0; rep < 50; rep++ {
		ts := task.Set{
			stepTask(1, 1+src.Intn(3), src.Uniform(0.02, 0.2), src.Uniform(1e6, 8e6)),
			stepTask(2, 1+src.Intn(3), src.Uniform(0.02, 0.2), src.Uniform(1e6, 8e6)),
		}
		exact, okExact := MinimumFrequency(ts, table)
		t1 := table.ClampSelect(TheoremOneFrequency(ts))
		if okT1, _ := Schedulable(ts, t1); okT1 && okExact && exact > t1 {
			t.Fatalf("exact minimum %v above Theorem 1 provisioning %v", exact, t1)
		}
	}
}

func TestMinimumFrequencyNone(t *testing.T) {
	ts := task.Set{stepTask(1, 1, 0.1, 200e6)} // needs 2 GHz
	if _, ok := MinimumFrequency(ts, cpu.PowerNowK6()); ok {
		t.Fatal("infeasible set got a frequency")
	}
}

func TestSchedulableDegenerate(t *testing.T) {
	ts := task.Set{stepTask(1, 1, 0.1, 1e6)}
	if ok, _ := Schedulable(ts, 0); ok {
		t.Fatal("f=0 accepted")
	}
	if ok, _ := Schedulable(ts, -5); ok {
		t.Fatal("negative f accepted")
	}
}

// TestSchedulableAgainstSimulation cross-validates the analysis with the
// simulator: under the adversarial burst pattern (exactly the dbf's worst
// case) with deterministic demands, EDF at f_m misses a critical time iff
// the analysis says the set is unschedulable at f_m.
func TestSchedulableAgainstSimulation(t *testing.T) {
	table := cpu.PowerNowK6()
	fm := table.Max()
	src := rng.New(77)
	agree := 0
	for rep := 0; rep < 40; rep++ {
		ts := task.Set{
			stepTask(1, 1+src.Intn(3), src.Uniform(0.02, 0.1), src.Uniform(2e6, 30e6)),
			stepTask(2, 1+src.Intn(3), src.Uniform(0.02, 0.1), src.Uniform(2e6, 30e6)),
			stepTask(3, 1+src.Intn(2), src.Uniform(0.02, 0.1), src.Uniform(2e6, 30e6)),
		}
		predicted, _ := Schedulable(ts, fm)

		res, err := engine.Run(engine.Config{
			Tasks: ts, Scheduler: baseline.NewEDF(false), Freqs: table,
			Energy:  energy.MustPreset(energy.E1, fm),
			Horizon: 1.0, Seed: uint64(rep + 1),
			Arrivals: func(tk *task.Task) uam.Generator {
				return uam.Burst{S: tk.Arrival} // the adversarial pattern
			},
			AbortAtTermination: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		missed := false
		for _, j := range res.Jobs {
			if j.State != task.Completed || j.FinishedAt > j.AbsCritical+1e-9 {
				missed = true
				break
			}
		}
		if predicted == !missed {
			agree++
		} else if predicted && missed {
			// Analysis says schedulable but the simulation missed: that
			// would be a soundness bug.
			t.Fatalf("rep %d: analysis accepted an unschedulable set", rep)
		}
		// predicted=false with no miss is acceptable in principle (the
		// horizon may not reach the witness interval), counted below.
	}
	if agree < 35 {
		t.Fatalf("analysis and simulation agree on only %d/40 sets", agree)
	}
}

func TestQuickDbfMonotone(t *testing.T) {
	f := func(seed uint64, l1, l2 uint16) bool {
		src := rng.New(seed)
		ts := task.Set{stepTask(1, 1+src.Intn(3), src.Uniform(0.02, 0.2), src.Uniform(1e5, 1e7))}
		a := float64(l1) / 65535 * 0.6
		b := float64(l2) / 65535 * 0.6
		if a > b {
			a, b = b, a
		}
		return DemandBound(ts, a) <= DemandBound(ts, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSchedulableMonotoneInFrequency(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		ts := task.Set{
			stepTask(1, 1+src.Intn(3), src.Uniform(0.02, 0.2), src.Uniform(1e6, 2e7)),
			stepTask(2, 1+src.Intn(3), src.Uniform(0.02, 0.2), src.Uniform(1e6, 2e7)),
		}
		prev := false
		for _, f := range cpu.PowerNowK6() {
			ok, _ := Schedulable(ts, f)
			if prev && !ok {
				return false // schedulability must be monotone in f
			}
			prev = ok
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulable(b *testing.B) {
	src := rng.New(1)
	ts := make(task.Set, 8)
	for i := range ts {
		ts[i] = stepTask(i+1, 1+src.Intn(3), src.Uniform(0.02, 0.2), src.Uniform(1e6, 8e6))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Schedulable(ts, 1000e6)
	}
}

func BenchmarkDemandBound(b *testing.B) {
	src := rng.New(2)
	ts := make(task.Set, 8)
	for i := range ts {
		ts[i] = stepTask(i+1, 1+src.Intn(3), src.Uniform(0.02, 0.2), src.Uniform(1e6, 8e6))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DemandBound(ts, 0.35)
	}
}
