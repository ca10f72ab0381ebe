package oracle

import (
	"math"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/tuf"
)

// FuzzOracle decodes arbitrary bytes into a small instance and checks
// the oracle invariants that no input may break:
//
//   - panic-freedom: YDS and SolveUA return errors, never panic;
//   - determinism: both oracles are pure functions of the instance
//     (SolveUA under a node budget only — a wall-clock budget is
//     documented as non-deterministic);
//   - exactness: YDS matches the plain peel ydsReference bit for bit in
//     every speed and in its round count;
//   - ordering: per-job YDS speeds are a permutation-stable assignment
//     with EnergyContinuous <= EnergyDiscrete (intensities never exceed
//     the table maximum here), and SolveUA never inverts Best <= Upper.
func FuzzOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{10, 0, 5, 20, 10, 5, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 1, 200, 0, 1, 200, 0, 1, 200, 0, 1, 200, 0, 1, 200})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 9, 9, 9, 1, 1, 1, 250, 3, 128})
	// Touching windows ([0, 10], [10, 20], [20, 30] ms) and equal
	// deadlines ([0, 20], [10, 20] and [5, 20] ms).
	f.Add([]byte{0, 9, 100, 10, 9, 101, 20, 9, 99})
	f.Add([]byte{0, 19, 80, 10, 9, 160, 5, 14, 120})
	// Forty 4 ms windows laid end to end, two per slot, for the
	// many-job path SolveUA's cap leaves to YDS alone.
	var chain []byte
	for i := 0; i < 40; i++ {
		chain = append(chain, byte(4*(i/2)), 3, byte(60+5*i))
	}
	f.Add(chain)

	ft := cpu.PowerNowK6()
	fm := ft.Max()

	f.Fuzz(func(t *testing.T, data []byte) {
		// Three bytes per job: release slot, window width, work. YDS
		// takes up to 64 jobs; SolveUA the first 8, so the exact search
		// stays fast under the fuzzer.
		n := min(len(data)/3, 64)
		yjobs := make([]Job, 0, n)
		ujobs := make([]UAJob, 0, 8)
		for i := 0; i < n; i++ {
			rel := float64(data[3*i]) * 1e-3
			width := (1 + float64(data[3*i+1])) * 1e-3
			// Each job alone fits its window at fm; overlapping jobs
			// may still stack past fm (checked below).
			cycles := float64(data[3*i+2]) / 255 * width * fm
			yjobs = append(yjobs, Job{Release: rel, Deadline: rel + width, Cycles: cycles})
			if i < 8 {
				ujobs = append(ujobs, UAJob{
					Release: rel,
					Cycles:  cycles,
					TUF:     tuf.NewStep(1+float64(data[3*i+2]), width),
				})
			}
		}

		in := Instance{Jobs: yjobs}
		s1, err := YDS(in)
		if err != nil {
			t.Fatalf("YDS rejected a well-formed instance: %v", err)
		}
		ref, err := ydsReference(in)
		if err != nil {
			t.Fatalf("reference peel: %v", err)
		}
		if s1.Rounds != ref.Rounds {
			t.Fatalf("YDS peeled %d rounds, the reference %d", s1.Rounds, ref.Rounds)
		}
		for i := range s1.Speeds {
			if math.Float64bits(s1.Speeds[i]) != math.Float64bits(ref.Speeds[i]) {
				t.Fatalf("YDS speed of job %d is %v, the reference's %v", i, s1.Speeds[i], ref.Speeds[i])
			}
		}
		s2, err := YDS(in)
		if err != nil {
			t.Fatalf("YDS second run: %v", err)
		}
		for i := range s1.Speeds {
			if s1.Speeds[i] != s2.Speeds[i] {
				t.Fatalf("YDS speeds non-deterministic at job %d: %g vs %g", i, s1.Speeds[i], s2.Speeds[i])
			}
		}
		// Overlapping jobs stack, so a critical interval's intensity can
		// exceed fm even though each job alone fits its window; the
		// continuous <= discrete ordering is only promised for
		// platform-feasible instances (EnergyDiscrete clamps above fm).
		feasible := s1.MaxSpeed() <= fm
		for _, preset := range energy.Presets() {
			m := energy.MustPreset(preset, fm)
			cont := s1.EnergyContinuous(m)
			disc := s1.EnergyDiscrete(m, ft)
			if math.IsNaN(cont) || math.IsNaN(disc) || cont < 0 || disc < 0 {
				t.Fatalf("%s: bound not a non-negative number: cont=%g disc=%g", preset, cont, disc)
			}
			if feasible && cont > disc*(1+1e-9)+1e-9 {
				t.Fatalf("%s: continuous bound %g above discrete bound %g", preset, cont, disc)
			}
		}

		budget := UABudget{MaxNodes: 1 << 14}
		r1, err := SolveUA(ujobs, fm, budget)
		if err != nil {
			t.Fatalf("SolveUA rejected a well-formed instance: %v", err)
		}
		r2, err := SolveUA(ujobs, fm, budget)
		if err != nil {
			t.Fatalf("SolveUA second run: %v", err)
		}
		if r1.Best != r2.Best || r1.Upper != r2.Upper || r1.Status != r2.Status || r1.Nodes != r2.Nodes {
			t.Fatalf("SolveUA non-deterministic: %+v vs %+v", r1, r2)
		}
		if r1.Best > r1.Upper+1e-12 {
			t.Fatalf("inverted bracket: Best %g > Upper %g", r1.Best, r1.Upper)
		}
		if math.IsNaN(r1.Best) || math.IsNaN(r1.Upper) || r1.Best < 0 {
			t.Fatalf("bracket not well formed: %+v", r1)
		}
	})
}
