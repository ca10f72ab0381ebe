package experiment

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/euastar/euastar/internal/energy"
)

func TestResolveWorkers(t *testing.T) {
	cases := []struct {
		requested, n, min, max int
	}{
		{requested: 1, n: 10, min: 1, max: 1},
		{requested: 4, n: 10, min: 4, max: 4},
		{requested: 64, n: 3, min: 3, max: 3},   // clamped to unit count
		{requested: 0, n: 100, min: 1, max: 64}, // GOMAXPROCS default
		{requested: -5, n: 100, min: 1, max: 64},
		{requested: 8, n: 0, min: 1, max: 1},
	}
	for _, c := range cases {
		got := resolveWorkers(c.requested, c.n)
		if got < c.min || got > c.max {
			t.Errorf("resolveWorkers(%d, %d) = %d, want in [%d, %d]", c.requested, c.n, got, c.min, c.max)
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		var visited [n]int32
		err := forEach(workers, n, func(i int) error {
			atomic.AddInt32(&visited[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var calls int32
		// With a pool, units 0..workers-2 hold their workers until the
		// failing unit (workers-1) runs, and fail too: every worker then
		// records an error, and with it the cancel, before it can take
		// another index. Free-running units would let the other workers
		// start all remaining units before the cancel lands. One worker
		// runs units in order, so holding one there would deadlock.
		failing := 3
		release := make(chan struct{})
		if workers > 1 {
			failing = workers - 1
		}
		err := forEach(workers, 100, func(i int) error {
			atomic.AddInt32(&calls, 1)
			switch {
			case i == failing:
				if workers > 1 {
					close(release)
				}
				return fmt.Errorf("unit %d: %w", i, boom)
			case workers > 1 && i < failing:
				<-release
				return fmt.Errorf("held unit %d: %w", i, boom)
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		// Cancellation must prevent the full sweep from running (in-flight
		// units may still finish, but the dispatch stops early).
		if c := atomic.LoadInt32(&calls); c == 100 {
			t.Errorf("workers=%d: all 100 units ran despite early error", workers)
		}
	}
}

func TestForEachRecoversWorkerPanic(t *testing.T) {
	err := forEach(4, 50, func(i int) error {
		if i == 7 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want worker panic surfaced", err)
	}
}

func TestGridMatchesNestedLoops(t *testing.T) {
	g := grid(3, 2, 4)
	if g.size() != 24 {
		t.Fatalf("size = %d", g.size())
	}
	i := 0
	for a := 0; a < 3; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 4; c++ {
				got := g.coords(i)
				if got[0] != a || got[1] != b || got[2] != c {
					t.Fatalf("coords(%d) = %v, want [%d %d %d]", i, got, a, b, c)
				}
				i++
			}
		}
	}
}

// detCfg is the sweep used by the determinism tests: several loads and
// seeds so the pool genuinely interleaves, but short horizons.
func detCfg(workers int) Config {
	return Config{
		Energy:  energy.E1,
		Loads:   []float64{0.4, 0.9, 1.6},
		Seeds:   []uint64{1, 2, 3},
		Horizon: 0.3,
		Workers: workers,
	}
}

// rowsBytes renders rows into the exact textual table euasim prints, the
// byte-level artifact the determinism guarantee is stated over. (Writing
// to a strings.Builder cannot fail, and this must stay callable from
// non-test goroutines, so the error is discarded.)
func rowsBytes(rows []Row) string {
	var sb strings.Builder
	_ = WriteRows(&sb, "det", rows)
	// Append full-precision values: the table rounds, and we promise
	// bit-identity, not display-identity.
	for _, r := range rows {
		for _, name := range SchemeNames(rows) {
			fmt.Fprintf(&sb, "%g %.17g %.17g %.17g %.17g\n",
				r.Load, r.Utility[name], r.Energy[name], r.UtilityErr[name], r.EnergyErr[name])
		}
	}
	return sb.String()
}

// TestSweepDeterministicAcrossWorkers is the tentpole's proof obligation:
// the same Figure 2 sweep at Workers=1 and Workers=8 must produce
// byte-identical rows (run it under -race to also certify data-race
// freedom of the fan-out).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	seq, err := Figure2(detCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	want := rowsBytes(seq)
	for _, workers := range []int{2, 8} {
		par, err := Figure2(detCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsBytes(par); got != want {
			t.Fatalf("Workers=%d sweep diverged from Workers=1:\n--- want ---\n%s--- got ---\n%s", workers, want, got)
		}
	}
}

// TestFigure3DeterministicAcrossWorkers extends the proof to the Figure 3
// (load × UAM-bound × seed) grid.
func TestFigure3DeterministicAcrossWorkers(t *testing.T) {
	render := func(rows []Fig3Row) string {
		var sb strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&sb, "%g", r.Load)
			for a := 1; a <= 3; a++ {
				fmt.Fprintf(&sb, " %.17g", r.Energy[a])
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	cfg := detCfg(1)
	cfg.Loads = []float64{0.5, 1.1}
	cfg.Seeds = []uint64{1, 2}
	seq, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if render(seq) != render(par) {
		t.Fatalf("Figure3 diverged across worker counts:\n%s\nvs\n%s", render(seq), render(par))
	}
}

// TestAssuranceDeterministicAcrossWorkers extends the proof to the
// Section 4 assurance verification.
func TestAssuranceDeterministicAcrossWorkers(t *testing.T) {
	render := func(rows []AssuranceRow) string {
		var sb strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&sb, "%g %.17g %.17g %.17g %.17g\n", r.Load,
				r.Satisfied["EUA*"], r.Satisfied["EDF-fm"],
				r.UtilityRatio["EUA*"], r.UtilityRatio["EDF-fm"])
		}
		return sb.String()
	}
	cfg := detCfg(1)
	cfg.Loads = []float64{0.5, 1.4}
	seq, err := Assurance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := Assurance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if render(seq) != render(par) {
		t.Fatalf("Assurance diverged across worker counts:\n%s\nvs\n%s", render(seq), render(par))
	}
}

// TestSweepConcurrentCallers checks one level up from engine.Run: whole
// sweeps may themselves run concurrently (e.g. several euasim experiments
// in flight) without interfering.
func TestSweepConcurrentCallers(t *testing.T) {
	cfg := detCfg(4)
	cfg.Loads = []float64{0.6}
	cfg.Seeds = []uint64{1, 2}
	ref, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsBytes(ref)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := Figure2(cfg)
			if err != nil {
				errs <- err
				return
			}
			if got := rowsBytes(rows); got != want {
				errs <- errors.New("concurrent Figure2 callers diverged")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
