package oracle_test

// The YDS differential: oracle.YDS rescans only the window components
// the last peel changed, and must still return exactly what the plain
// peel (oracle.YDSReference) returns — every speed bit for bit and the
// same round count — on simulated instances, on near-touching windows
// that probe the component gap margin, and on hand-built edge cases.

import (
	"fmt"
	"math"
	"testing"

	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/oracle"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/workload"
)

// ydsMismatch runs both peels and describes the first difference, or
// returns "" when they agree.
func ydsMismatch(in oracle.Instance) string {
	got, err := oracle.YDS(in)
	want, werr := oracle.YDSReference(in)
	if (err != nil) != (werr != nil) {
		return fmt.Sprintf("error %v, reference error %v", err, werr)
	}
	if err != nil {
		return ""
	}
	if got.Rounds != want.Rounds {
		return fmt.Sprintf("%d rounds, reference %d", got.Rounds, want.Rounds)
	}
	for i := range want.Speeds {
		if math.Float64bits(got.Speeds[i]) != math.Float64bits(want.Speeds[i]) {
			return fmt.Sprintf("job %d speed %v, reference %v", i, got.Speeds[i], want.Speeds[i])
		}
	}
	return ""
}

// ydsInstances simulates A1+A2+A3 (step TUFs, E1, horizon 0.25, the
// fig2-cell configuration) under every scheme at one load and seed, and
// returns each run's executed instance and the cell's released one
// (every scheme sees the same arrivals and demands).
func ydsInstances(t testing.TB, schemes []experiment.Scheme, load float64, seed uint64) (executed []oracle.Instance, released oracle.Instance) {
	ts := synthesizeTable1(t, seed, workload.Step, load)
	for _, sc := range schemes {
		res := simulateRaw(t, ts, sc, seed, 0.25, energy.E1)
		executed = append(executed, oracle.ExecutedInstance(res.Jobs, res.EndTime))
		released = oracle.ReleasedInstance(res.Jobs)
	}
	return executed, released
}

// nearTouching builds 2–5 windows of 2–4 s laid end to end, each
// released 0–2 ulps after the previous deadline, with intensities equal
// to within a few ulps: an interval spanning two of them has almost
// exactly their intensity, which is where a component gap margin too
// small for the rounding error would let the split peel disagree with
// the full one.
func nearTouching(src *rng.Source) oracle.Instance {
	n := 2 + src.Intn(4)
	t := src.Uniform(0.5, 1)
	g := src.Uniform(1e8, 1e9)
	jobs := make([]oracle.Job, n)
	for i := range jobs {
		for k := src.Intn(3); k > 0; k-- {
			t = math.Nextafter(t, math.Inf(1))
		}
		dl := t + src.Uniform(2, 4)
		gi := g
		switch src.Intn(3) {
		case 1:
			gi = math.Nextafter(g, 0)
		case 2:
			gi = math.Nextafter(g, math.Inf(1))
		}
		jobs[i] = oracle.Job{Release: t, Deadline: dl, Cycles: gi * (dl - t)}
		t = dl
	}
	return oracle.Instance{Jobs: jobs}
}

func TestYDSMatchesReference(t *testing.T) {
	schemes := experiment.ComparisonSchemes()
	t.Run("simulated", func(t *testing.T) {
		// (a) executed and (b) released instances of A1+A2+A3 at
		// loads from light to overloaded; released instances have
		// wide windows and peel in few rounds.
		for _, load := range []float64{0.3, 0.45, 0.6, 0.9, 1.2, 1.6} {
			for seed := uint64(1); seed <= 3; seed++ {
				executed, released := ydsInstances(t, schemes, load, seed)
				for i, sc := range schemes {
					if d := ydsMismatch(executed[i]); d != "" {
						t.Errorf("executed instance (load=%g seed=%d scheme=%s, %d jobs): %s",
							load, seed, sc.Name, len(executed[i].Jobs), d)
					}
				}
				if d := ydsMismatch(released); d != "" {
					t.Errorf("released instance (load=%g seed=%d, %d jobs): %s",
						load, seed, len(released.Jobs), d)
				}
			}
		}
	})

	t.Run("near-touching", func(t *testing.T) {
		// (c) With a zero gap margin the split peel disagrees with the
		// full one on 543 of these 20,000 instances.
		src := rng.New(17)
		for k := 0; k < 20000; k++ {
			in := nearTouching(src)
			if d := ydsMismatch(in); d != "" {
				t.Fatalf("near-touching instance %d %+v: %s", k, in.Jobs, d)
			}
		}
	})

	t.Run("hand-built", func(t *testing.T) {
		// (d) One case per mechanism the split peel adds.
		cases := []struct {
			name string
			jobs []oracle.Job
		}{
			{"equal deadlines ordered by index", []oracle.Job{
				{Release: 0, Deadline: 2, Cycles: 0.3},
				{Release: 1, Deadline: 2, Cycles: 0.1},
				{Release: 0.5, Deadline: 2, Cycles: 0.2},
				{Release: 1, Deadline: 2, Cycles: 0.7},
			}},
			// Peeling [1, 2] snaps the three deadlines to 1; summed in
			// index order their work is 0.6000000000000001, in their old
			// deadline order 0.6.
			{"deadlines snapped to t1 reordered by index", []oracle.Job{
				{Release: 1, Deadline: 2, Cycles: 9},
				{Release: 0, Deadline: 1.3, Cycles: 0.1},
				{Release: 0, Deadline: 1.2, Cycles: 0.2},
				{Release: 0, Deadline: 1.1, Cycles: 0.3},
			}},
			{"zero-cycle jobs", []oracle.Job{
				{Release: 0, Deadline: 1, Cycles: 0},
				{Release: 0, Deadline: 1, Cycles: 3},
				{Release: 0.5, Deadline: 0.75, Cycles: 0},
				{Release: 2, Deadline: 3, Cycles: 1},
				{Release: 2.5, Deadline: 2.6, Cycles: 0},
			}},
			{"nested windows", []oracle.Job{
				{Release: 0, Deadline: 100, Cycles: 10},
				{Release: 10, Deadline: 30, Cycles: 30},
				{Release: 12, Deadline: 16, Cycles: 20},
				{Release: 13, Deadline: 14, Cycles: 1},
			}},
			// The middle component is peeled whole; its neighbours
			// become adjacent and the right one's positions shift.
			{"peel removes the component between two others", []oracle.Job{
				{Release: 0, Deadline: 1, Cycles: 1},
				{Release: 2, Deadline: 3, Cycles: 10},
				{Release: 4, Deadline: 5, Cycles: 2},
				{Release: 1.5, Deadline: 1.8, Cycles: 0.1},
			}},
			// After the first peel the right component sits at exactly
			// the positions the peeled one held, with shifted
			// coordinates: the peeled component's best must not be
			// reused for it.
			{"peel left of a component shifts it", []oracle.Job{
				{Release: 0, Deadline: 1, Cycles: 1},
				{Release: 2, Deadline: 3, Cycles: 10},
				{Release: 2.2, Deadline: 2.8, Cycles: 6},
				{Release: 4, Deadline: 5, Cycles: 2},
				{Release: 4.2, Deadline: 4.8, Cycles: 1},
			}},
			// Intensities a few multiples of the smallest subnormal: the
			// interval spanning both windows rounds to the right one's
			// intensity and wins on its earlier start, gap or not. Such
			// rounds run as one component.
			{"subnormal intensities", []oracle.Job{
				{Release: 0, Deadline: 1, Cycles: 7 * math.SmallestNonzeroFloat64},
				{Release: 1.1, Deadline: 4.1, Cycles: 24 * math.SmallestNonzeroFloat64},
			}},
		}
		for _, c := range cases {
			if d := ydsMismatch(oracle.Instance{Jobs: c.jobs}); d != "" {
				t.Errorf("%s: %s", c.name, d)
			}
		}
	})
}

// ydsSink keeps BenchmarkYDS's calls from being optimized away.
var ydsSink *oracle.Schedule

// BenchmarkYDS times one YDS call on the executed instances of the
// fig2-cell configuration (A1+A2+A3, E1, horizon 0.25; EDF-fm and the
// four Figure 2 schemes; seeds 1–8), per load, for the component peel
// (impl=peel) and the plain one it replaced (impl=reference):
//
//	go test -run '^$' -bench BenchmarkYDS -benchmem ./internal/oracle/
func BenchmarkYDS(b *testing.B) {
	schemes := append([]experiment.Scheme{experiment.BaselineScheme()}, experiment.Figure2Schemes()...)
	loads := []float64{0.3, 0.45, 0.6, 0.9, 1.2, 1.6}
	instances := make(map[float64][]oracle.Instance, len(loads))
	for _, load := range loads {
		for seed := uint64(1); seed <= 8; seed++ {
			executed, _ := ydsInstances(b, schemes, load, seed)
			instances[load] = append(instances[load], executed...)
		}
	}
	impls := []struct {
		name string
		yds  func(oracle.Instance) (*oracle.Schedule, error)
	}{{"peel", oracle.YDS}, {"reference", oracle.YDSReference}}
	for _, impl := range impls {
		b.Run("impl="+impl.name, func(b *testing.B) {
			for _, load := range loads {
				ins := instances[load]
				b.Run(fmt.Sprintf("load=%g", load), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						s, err := impl.yds(ins[i%len(ins)])
						if err != nil {
							b.Fatal(err)
						}
						ydsSink = s
					}
				})
			}
		})
	}
}
