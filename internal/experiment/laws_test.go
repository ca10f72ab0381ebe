package experiment

// Model laws: invariants that follow from the model itself rather than
// from any one scheduler's design, checked on the Table 1 workloads.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/workload"
)

// sameRun describes the first difference between two runs of one
// configuration, or returns "" when every job's outcome and the total
// energy match bit for bit.
func sameRun(a, b *engine.Result) string {
	if len(a.Jobs) != len(b.Jobs) {
		return fmt.Sprintf("%d jobs, %d in the original order", len(b.Jobs), len(a.Jobs))
	}
	for i, ja := range a.Jobs {
		jb := b.Jobs[i]
		if ja.Task.ID != jb.Task.ID || ja.Index != jb.Index || ja.State != jb.State ||
			math.Float64bits(ja.FinishedAt) != math.Float64bits(jb.FinishedAt) ||
			math.Float64bits(ja.Executed) != math.Float64bits(jb.Executed) {
			return fmt.Sprintf("job %d is task %d #%d %v finished %v executed %v, in the original order task %d #%d %v finished %v executed %v",
				i, jb.Task.ID, jb.Index, jb.State, jb.FinishedAt, jb.Executed,
				ja.Task.ID, ja.Index, ja.State, ja.FinishedAt, ja.Executed)
		}
	}
	if math.Float64bits(a.TotalEnergy) != math.Float64bits(b.TotalEnergy) {
		return fmt.Sprintf("total energy %v, in the original order %v", b.TotalEnergy, a.TotalEnergy)
	}
	return ""
}

// TestPermutationLaw checks that the order of the task slice is not an
// input: reversing or shuffling it leaves every job's outcome and the
// run's energy bit-identical, for every comparison scheme on one core
// and for partitioned EUA* on 2 and 4 cores. The loads include the
// PowerNow! step points, where a frequency choice that summed demand in
// slice order flipped. To bound the cost, cells alternate between the
// reversed and a shuffled slice, and the four partitioned variants
// (ff and wf on 2 and 4 cores) take turns; every variant still meets
// both orders.
func TestPermutationLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("runs >1000 simulations; skipped in -short")
	}
	type variant struct {
		scheme    Scheme
		cores     int
		partition string
	}
	var uni, multi []variant
	for _, sc := range ComparisonSchemes() {
		uni = append(uni, variant{scheme: sc, cores: 1})
	}
	eua := Figure2Schemes()[0]
	for _, m := range []int{2, 4} {
		for _, p := range []string{"ff", "wf"} {
			multi = append(multi, variant{scheme: eua, cores: m, partition: p})
		}
	}

	cfg := Config{Energy: energy.E1, Horizon: 0.25}.withDefaults()
	fm := cpu.PowerNowK6().Max()
	for seed := uint64(1); seed <= 10; seed++ {
		base, err := synthesize(cfg, seed, workload.Step, 0)
		if err != nil {
			t.Fatal(err)
		}
		for li, load := range []float64{0.55, 0.6, 0.64, 0.73, 0.82, 0.91, 1.2} {
			ts := base.ScaleToLoad(load, fm)
			order, perm := "reversed", make(task.Set, len(ts))
			if (int(seed)+li)%2 == 0 {
				for i, tk := range ts {
					perm[len(ts)-1-i] = tk
				}
			} else {
				order = "shuffled"
				for to, from := range rng.New(seed).Perm(len(ts)) {
					perm[to] = ts[from]
				}
			}
			cell := (int(seed)-1)*7 + li
			for _, v := range append(slices.Clip(uni), multi[cell/2%len(multi)]) {
				c := cfg
				c.Cores, c.Partition = v.cores, v.partition
				name := v.scheme.Name
				if v.cores > 1 {
					name = fmt.Sprintf("%s/P%d%s", name, v.cores, v.partition)
				}
				want, err := runRaw(c, v.scheme, ts, seed, runOptions{})
				if err != nil {
					t.Fatalf("seed=%d load=%g scheme=%s: %v", seed, load, name, err)
				}
				got, err := runRaw(c, v.scheme, perm, seed, runOptions{})
				if err != nil {
					t.Fatalf("seed=%d load=%g scheme=%s, %s task slice: %v", seed, load, name, order, err)
				}
				if d := sameRun(want, got); d != "" {
					t.Errorf("seed=%d load=%g scheme=%s, %s task slice: %s", seed, load, name, order, d)
				}
			}
		}
	}
}

// scaledRun describes the first job of b that breaks the scaling law
// against a, or returns "": the same job in the same place with the
// same state, utility and finish time bit for bit, and exactly twice
// the executed cycles.
func scaledRun(a, b *engine.Result) string {
	if len(a.Jobs) != len(b.Jobs) {
		return fmt.Sprintf("%d jobs, %d unscaled", len(b.Jobs), len(a.Jobs))
	}
	for i, ja := range a.Jobs {
		jb := b.Jobs[i]
		if ja.Task.ID != jb.Task.ID || ja.Index != jb.Index || ja.State != jb.State ||
			math.Float64bits(ja.FinishedAt) != math.Float64bits(jb.FinishedAt) ||
			math.Float64bits(ja.Utility) != math.Float64bits(jb.Utility) ||
			math.Float64bits(2*ja.Executed) != math.Float64bits(jb.Executed) {
			return fmt.Sprintf("job %d is task %d #%d %v utility %v finished %v executed %v, unscaled task %d #%d %v utility %v finished %v executed %v",
				i, jb.Task.ID, jb.Index, jb.State, jb.Utility, jb.FinishedAt, jb.Executed,
				ja.Task.ID, ja.Index, ja.State, ja.Utility, ja.FinishedAt, ja.Executed)
		}
	}
	return ""
}

// TestScalingLaw checks the power-of-two scaling law: doubling every
// cycle demand and every table frequency, with the energy preset
// following f_m, leaves every job's state, utility and finish time
// bit-identical and doubles its executed cycles. Times are cycles over
// frequencies and the presets price a cycle by f/f_m, so the law holds
// exactly; powers of two keep it exact in floating point too. It covers
// every comparison scheme under E1, E2 and E3, seeds 1–6 and loads
// across underload and overload.
func TestScalingLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("runs >1000 simulations; skipped in -short")
	}
	ft := cpu.PowerNowK6()
	doubledFreqs := make(cpu.FrequencyTable, len(ft))
	for i, f := range ft {
		doubledFreqs[i] = 2 * f
	}
	for _, preset := range []energy.Preset{energy.E1, energy.E2, energy.E3} {
		cfg := Config{Energy: preset, Horizon: 0.25}.withDefaults()
		for seed := uint64(1); seed <= 6; seed++ {
			base, err := synthesize(cfg, seed, workload.Step, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, load := range []float64{0.4, 0.64, 0.91, 1.4} {
				ts := base.ScaleToLoad(load, ft.Max())
				doubled := make(task.Set, len(ts))
				for i, tk := range ts {
					c := *tk
					c.Demand = tk.Demand.Scale(2)
					doubled[i] = &c
				}
				for _, sc := range ComparisonSchemes() {
					cell := fmt.Sprintf("energy=%s seed=%d load=%g scheme=%s", preset, seed, load, sc.Name)
					want, err := runRaw(cfg, sc, ts, seed, runOptions{})
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					got, err := runRaw(cfg, sc, doubled, seed, runOptions{freqs: doubledFreqs})
					if err != nil {
						t.Fatalf("%s, doubled: %v", cell, err)
					}
					if d := scaledRun(want, got); d != "" {
						t.Errorf("%s, doubled cycles and frequencies: %s", cell, d)
					}
				}
			}
		}
	}
}
