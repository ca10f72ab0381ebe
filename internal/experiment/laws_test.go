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
