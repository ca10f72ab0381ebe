package baseline_test

import (
	"math"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/workload"
)

// TestEarliestCriticalTimeFirst: every EDF variant runs the job with
// the earliest absolute critical time, wherever it sits in the ready
// list.
func TestEarliestCriticalTimeFirst(t *testing.T) {
	a, b := stepTask(1, 0.2, 10, 1e6), stepTask(2, 0.05, 10, 1e6)
	for _, v := range variants {
		if !isEDF(v.name) {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			for _, order := range [][2]int{{0, 1}, {1, 0}} {
				s := initOn(t, v.mk(), a, b)
				jobs := []*task.Job{job(a, 1), job(b, 2)}
				want := jobs[1]
				if d := s.Decide(0, []*task.Job{jobs[order[0]], jobs[order[1]]}); d.Run != want {
					t.Errorf("order %v ran %v, want the earliest-critical-time job", order, d.Run)
				}
			}
		})
	}
}

// TestDominoEffect reproduces Locke's observation the paper cites: during
// overloads EDF without abortion suffers domino misses and accrues almost
// no utility, while the abort variant keeps accruing.
func TestDominoEffect(t *testing.T) {
	src := rng.New(7)
	ts := make(task.Set, 4)
	for i := range ts {
		p := src.Uniform(0.03, 0.1)
		ts[i] = stepTask(i+1, p, 10, 1e6)
	}
	ft := cpu.PowerNowK6()
	ts = ts.ScaleToLoad(1.7, ft.Max())
	abortRep := metrics.Analyze(simulate(t, ts, baseline.NewEDF(true), 2.0, 3))
	naRep := metrics.Analyze(simulate(t, ts, baseline.NewEDF(false), 2.0, 3))
	if naRep.UtilityRatio() > 0.5*abortRep.UtilityRatio() {
		t.Fatalf("no domino effect: NA %v vs abort %v", naRep.UtilityRatio(), abortRep.UtilityRatio())
	}
}

// TestEDFOptimalUnderload: with load < 1 and deterministic demands, EDF at
// f_m completes every job by its critical time (Horn's optimality).
func TestEDFOptimalUnderload(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		src := rng.New(seed)
		ts := make(task.Set, 3)
		for i := range ts {
			p := src.Uniform(0.02, 0.2)
			ts[i] = stepTask(i+1, p, src.Uniform(1, 70), 1e6)
		}
		ts = ts.ScaleToLoad(0.9, cpu.PowerNowK6().Max())
		res := simulate(t, ts, baseline.NewEDF(true), 1.0, seed)
		for _, j := range res.Jobs {
			if j.State != task.Completed || j.FinishedAt > j.AbsCritical+1e-9 {
				t.Fatalf("seed %d: EDF missed %v", seed, j)
			}
		}
	}
}

func TestEnergyIsMaxFrequencyEnergy(t *testing.T) {
	tk := stepTask(1, 0.1, 10, 5e6)
	ft := cpu.PowerNowK6()
	em := energy.MustPreset(energy.E1, ft.Max())
	res := simulate(t, task.Set{tk}, baseline.NewEDF(true), 1.0, 1)
	want := res.Cycles * em.PerCycle(ft.Max())
	if math.Abs(res.TotalEnergy-want) > 1e-6*want {
		t.Fatalf("energy = %v, want all cycles at f_m = %v", res.TotalEnergy, want)
	}
}

// TestStaticFrequencySelection: staticEDF runs every decision at the
// lowest step covering Σ C/D, or at f_m once that exceeds the table. The
// -NA variant keeps the overloaded job running, so it decides too.
func TestStaticFrequencySelection(t *testing.T) {
	for _, c := range []struct {
		means []float64 // per task, P = 0.1
		want  float64
	}{
		{[]float64{40e6, 20e6}, 640e6}, // Σ C/D = 4e8 + 2e8 = 6e8 → 640 MHz
		{[]float64{150e6}, 1000e6},     // overload clamps to f_m
	} {
		var ts task.Set
		for i, m := range c.means {
			ts = append(ts, stepTask(i+1, 0.1, 10, m))
		}
		s := initOn(t, baseline.NewStaticEDF(false), ts...)
		for _, now := range []float64{0, 0.01} {
			if d := s.Decide(now, []*task.Job{job(ts[0], 1)}); d.Freq != c.want {
				t.Fatalf("means %v: frequency at %v = %v, want %v", c.means, now, d.Freq, c.want)
			}
		}
	}
}

func TestStaticEndToEndMeetsDeadlines(t *testing.T) {
	src := rng.New(3)
	ts := make(task.Set, 3)
	for i := range ts {
		ts[i] = stepTask(i+1, src.Uniform(0.04, 0.15), 10, 1e6)
	}
	ft := cpu.PowerNowK6()
	ts = ts.ScaleToLoad(0.6, ft.Max())
	res := simulate(t, ts, baseline.NewStaticEDF(true), 2.0, 2)
	rep := metrics.Analyze(res)
	if rep.Aborted != 0 || !rep.AssuranceSatisfied() {
		t.Fatalf("staticEDF failed at load 0.6: %+v", rep)
	}
	// It must also save energy vs f_m: 0.6 load → 640 MHz → (0.64)².
	full := res.Cycles * energy.MustPreset(energy.E1, ft.Max()).PerCycle(ft.Max())
	if res.TotalEnergy >= full {
		t.Fatal("no static energy saving")
	}
}

func TestCCEDFFrequencyTracksStaticUtilization(t *testing.T) {
	for _, c := range []struct {
		mean, want float64
	}{
		// Two tasks each at ~27% of f_m: the summed utilization (~5.4e8)
		// selects 550 MHz while both are fresh.
		{27e6, 550e6},
		// Overload selects f_m.
		{80e6, 1000e6},
	} {
		a, b := stepTask(1, 0.1, 10, c.mean), stepTask(2, 0.1, 10, c.mean)
		s := initOn(t, baseline.NewCCEDF(true), a, b)
		ja, jb := job(a, 1), job(b, 2)
		s.OnRelease(0, ja)
		s.OnRelease(0, jb)
		d := s.Decide(0, []*task.Job{ja, jb})
		if d.Freq != c.want {
			t.Fatalf("mean %v: freq = %v, want %v", c.mean, d.Freq, c.want)
		}
		if d.Run != ja && d.Run != jb {
			t.Fatal("no job selected")
		}
	}
}

func TestCCEDFCompletionConservesCycles(t *testing.T) {
	// After a job completes using fewer cycles than allocated, the task's
	// utilization contribution shrinks and the frequency drops.
	a, b := stepTask(1, 0.1, 10, 40e6), stepTask(2, 0.1, 10, 40e6)
	s := initOn(t, baseline.NewCCEDF(true), a, b)
	ja, jb := job(a, 1), job(b, 2)
	s.OnRelease(0, ja)
	s.OnRelease(0, jb)
	before := s.Decide(0, []*task.Job{ja, jb}).Freq

	// ja completes early having used only a quarter of its allocation.
	ja.Executed = 10e6
	s.OnComplete(0.02, ja)
	after := s.Decide(0.02, []*task.Job{jb}).Freq
	if after >= before {
		t.Fatalf("frequency did not drop after early completion: %v → %v", before, after)
	}
	// The next release restores the full allocated rate.
	ja2 := task.NewJob(a, 1, 0.1, rng.New(3))
	s.OnRelease(0.1, ja2)
	if again := s.Decide(0.1, []*task.Job{ja2}).Freq; again != before {
		t.Fatalf("frequency after re-release = %v, want %v", again, before)
	}
}

// TestCCEDFDeterministicOnStep: at load 0.64 the summed utilization of
// A1+A2+A3 lies on the 640 MHz step, where the summation order decides
// which side of it the float lands. Every fresh instance must sum in
// task order, as task.Set.Load does, and so make the same first decision.
func TestCCEDFDeterministicOnStep(t *testing.T) {
	src := rng.New(1 * 0x9e3779b9)
	var ts task.Set
	for _, app := range workload.Table1() {
		ts = append(ts, app.MustSynthesize(src, workload.Options{FirstID: len(ts) + 1})...)
	}
	ft := cpu.PowerNowK6()
	ts = ts.ScaleToLoad(0.64, ft.Max())
	sum := 0.0
	for _, tk := range ts {
		sum += tk.MinFrequency()
	}
	want := ft.ClampSelect(sum)
	for i := 0; i < 200; i++ {
		s := initOn(t, baseline.NewCCEDF(true), ts...)
		if d := s.Decide(0, []*task.Job{job(ts[0], 1)}); d.Freq != want {
			t.Fatalf("instance %d chose %v MHz, task-order sum %v selects %v MHz",
				i, d.Freq/1e6, sum, want/1e6)
		}
	}
}

func TestCCEDFEndToEndMeetsDeadlinesAndSavesEnergy(t *testing.T) {
	src := rng.New(5)
	ts := make(task.Set, 3)
	for i := range ts {
		p := src.Uniform(0.04, 0.15)
		ts[i] = stepTask(i+1, p, 10, 1e6)
	}
	ts = ts.ScaleToLoad(0.5, cpu.PowerNowK6().Max())
	rcc := simulate(t, ts, baseline.NewCCEDF(true), 2.0, 9)
	redf := simulate(t, ts, baseline.NewEDF(true), 2.0, 9)
	for _, j := range rcc.Jobs {
		if j.State != task.Completed {
			t.Fatalf("ccEDF failed job %v", j)
		}
	}
	if rcc.TotalEnergy >= redf.TotalEnergy {
		t.Fatalf("ccEDF energy %v >= EDF@fm %v", rcc.TotalEnergy, redf.TotalEnergy)
	}
}

func TestLAEDFDefersBelowStaticUtilization(t *testing.T) {
	// Look-ahead EDF can pick a frequency below the static utilization by
	// deferring work past the earliest deadline — the defining difference
	// from ccEDF.
	a := stepTask(1, 0.02, 10, 4e6)  // tight: 20% util, early deadline
	b := stepTask(2, 0.30, 10, 90e6) // heavy but far away: 30% util
	la := initOn(t, baseline.NewLAEDF(true), a, b)
	cc := initOn(t, baseline.NewCCEDF(true), a, b)
	ja, jb := job(a, 1), job(b, 2)
	cc.OnRelease(0, ja)
	cc.OnRelease(0, jb)
	fLA := la.Decide(0, []*task.Job{ja, jb}).Freq
	fCC := cc.Decide(0, []*task.Job{ja, jb}).Freq
	if fLA > fCC {
		t.Fatalf("laEDF %v > ccEDF %v: deferral ineffective", fLA, fCC)
	}
}

func TestLAEDFEndToEndUnderload(t *testing.T) {
	src := rng.New(11)
	ts := make(task.Set, 3)
	for i := range ts {
		p := src.Uniform(0.04, 0.15)
		ts[i] = stepTask(i+1, p, 10, 1e6)
	}
	ts = ts.ScaleToLoad(0.5, cpu.PowerNowK6().Max())
	rla := metrics.Analyze(simulate(t, ts, baseline.NewLAEDF(true), 2.0, 4))
	rcc := metrics.Analyze(simulate(t, ts, baseline.NewCCEDF(true), 2.0, 4))
	if !rla.AssuranceSatisfied() {
		t.Fatal("laEDF violated assurance at load 0.5")
	}
	// The look-ahead should be at least as energy-efficient as cycle
	// conservation on this light, deferral-friendly load.
	if rla.TotalEnergy > rcc.TotalEnergy*1.05 {
		t.Fatalf("laEDF energy %v ≫ ccEDF %v", rla.TotalEnergy, rcc.TotalEnergy)
	}
}

// TestLAEDFNADominoEnergy: the no-abort variant executes every released
// cycle, so its energy grows with load even deep into overload — the
// behaviour behind Figure 2(b)/(d)'s diverging -NA curve.
func TestLAEDFNADominoEnergy(t *testing.T) {
	src := rng.New(13)
	base := make(task.Set, 3)
	for i := range base {
		p := src.Uniform(0.04, 0.15)
		base[i] = stepTask(i+1, p, 10, 1e6)
	}
	var prev float64
	for _, load := range []float64{1.2, 1.5, 1.8} {
		ts := base.ScaleToLoad(load, cpu.PowerNowK6().Max())
		res := simulate(t, ts, baseline.NewLAEDF(false), 1.0, 8)
		if res.TotalEnergy <= prev {
			t.Fatalf("NA energy not increasing with load: %v after %v", res.TotalEnergy, prev)
		}
		prev = res.TotalEnergy
	}
}
