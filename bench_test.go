// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 5), plus the ablation studies listed in DESIGN.md
// and micro-benchmarks of the scheduler itself.
//
// Each figure benchmark regenerates its full series once (printed via
// b.Logf so `go test -bench` output contains the reproduced rows) and then
// times one representative simulation per iteration.
package euastar_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	euastar "github.com/euastar/euastar"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/experiment"
)

// benchCfg is the shared sweep configuration for the figure benchmarks:
// small enough to finish in seconds, dense enough to show the shapes.
func benchCfg(preset energy.Preset) experiment.Config {
	return experiment.Config{
		Energy:  preset,
		Loads:   []float64{0.2, 0.6, 1.0, 1.4, 1.8},
		Seeds:   []uint64{1, 2},
		Horizon: 0.5,
	}
}

var (
	fig2Once   sync.Once
	fig2Series = map[energy.Preset][]experiment.Row{}
	fig2Err    error
)

func fig2Rows(b *testing.B, preset energy.Preset) []experiment.Row {
	b.Helper()
	fig2Once.Do(func() {
		for _, p := range []energy.Preset{energy.E1, energy.E2, energy.E3} {
			rows, err := experiment.Figure2(benchCfg(p))
			if err != nil {
				fig2Err = err
				return
			}
			fig2Series[p] = rows
		}
	})
	if fig2Err != nil {
		b.Fatal(fig2Err)
	}
	return fig2Series[preset]
}

func logRows(b *testing.B, title string, rows []experiment.Row) {
	b.Helper()
	var sb strings.Builder
	if err := experiment.WriteRows(&sb, title, rows); err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", sb.String())
}

// timeOneRun times a single representative simulation (the unit of work
// every figure is built from).
func timeOneRun(b *testing.B, scheduler func() euastar.Scheduler, load float64) {
	b.Helper()
	tasks := demoTasks().ScaleToLoad(load, euastar.PowerNowK6().Max())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := euastar.Simulate(euastar.SimConfig{
			Tasks:              tasks,
			Scheduler:          scheduler(),
			Horizon:            0.5,
			Seed:               uint64(i + 1),
			AbortAtTermination: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) == 0 {
			b.Fatal("no jobs")
		}
	}
}

// BenchmarkTable1TaskSettings regenerates Table 1.
func BenchmarkTable1TaskSettings(b *testing.B) {
	var sb strings.Builder
	if err := experiment.WriteTable1(&sb); err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", sb.String())
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := experiment.WriteTable1(&sb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2EnergySettings regenerates Table 2.
func BenchmarkTable2EnergySettings(b *testing.B) {
	var sb strings.Builder
	if err := experiment.WriteTable2(&sb); err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", sb.String())
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := experiment.WriteTable2(&sb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2aUtilityE1 regenerates Figure 2(a): normalized utility vs
// load under E1. The reproduced claims: all schemes optimal during
// underloads, EUA* highest during overloads, laEDF-NA collapsing.
func BenchmarkFig2aUtilityE1(b *testing.B) {
	rows := fig2Rows(b, energy.E1)
	logRows(b, "Figure 2(a)+(b) — E1", rows)
	last := rows[len(rows)-1]
	b.ReportMetric(last.Utility["EUA*"], "eua-utility@1.8")
	b.ReportMetric(last.Utility["laEDF-NA"], "na-utility@1.8")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA() }, 1.8)
}

// BenchmarkFig2bEnergyE1 regenerates Figure 2(b): normalized energy vs
// load under E1 (EUA* lowest during underloads; -NA grows linearly).
func BenchmarkFig2bEnergyE1(b *testing.B) {
	rows := fig2Rows(b, energy.E1)
	first, last := rows[0], rows[len(rows)-1]
	b.ReportMetric(first.Energy["EUA*"], "eua-energy@0.2")
	b.ReportMetric(last.Energy["laEDF-NA"], "na-energy@1.8")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA() }, 0.2)
}

// BenchmarkFig2cUtilityE3 regenerates Figure 2(c) under E3.
func BenchmarkFig2cUtilityE3(b *testing.B) {
	rows := fig2Rows(b, energy.E3)
	logRows(b, "Figure 2(c)+(d) — E3", rows)
	last := rows[len(rows)-1]
	b.ReportMetric(last.Utility["EUA*"], "eua-utility@1.8")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA() }, 1.8)
}

// BenchmarkFig2dEnergyE3 regenerates Figure 2(d) under E3.
func BenchmarkFig2dEnergyE3(b *testing.B) {
	rows := fig2Rows(b, energy.E3)
	first := rows[0]
	b.ReportMetric(first.Energy["EUA*"], "eua-energy@0.2")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA() }, 0.2)
}

// BenchmarkFig2E2Similar verifies the paper's remark that "results under
// E2 are similar" to E1.
func BenchmarkFig2E2Similar(b *testing.B) {
	rows := fig2Rows(b, energy.E2)
	logRows(b, "Figure 2 — E2 (text: 'results under E2 are similar')", rows)
	first := rows[0]
	b.ReportMetric(first.Energy["EUA*"], "eua-energy@0.2")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA() }, 0.6)
}

// BenchmarkFig3UAMEnergy regenerates Figure 3: EUA*'s energy (normalized
// to EUA* without DVS) for UAM bounds ⟨1,P⟩, ⟨2,P⟩, ⟨3,P⟩ — increasing
// with a during underloads, converging during overloads.
func BenchmarkFig3UAMEnergy(b *testing.B) {
	cfg := experiment.Config{
		Energy:  energy.E1,
		Loads:   []float64{0.3, 0.5, 0.7, 0.9, 1.1, 1.5},
		Seeds:   []uint64{1, 2, 3},
		Horizon: 1.5,
	}
	rows, err := experiment.Figure3(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := experiment.WriteFig3(&sb, rows); err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", sb.String())
	for _, r := range rows {
		if r.Load == 0.7 {
			b.ReportMetric(r.Energy[1], "energy@0.7/a=1")
			b.ReportMetric(r.Energy[3], "energy@0.7/a=3")
		}
	}
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA() }, 0.7)
}

// BenchmarkAssuranceTheorems empirically verifies the Section 4 claims:
// during underloads EUA* satisfies every {ν, ρ} requirement.
func BenchmarkAssuranceTheorems(b *testing.B) {
	cfg := experiment.Config{
		Energy:  energy.E1,
		Loads:   []float64{0.3, 0.6, 0.9},
		Seeds:   []uint64{1, 2, 3},
		Horizon: 1.0,
	}
	rows, err := experiment.Assurance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := experiment.WriteAssurance(&sb, rows); err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", sb.String())
	b.ReportMetric(rows[0].Satisfied["EUA*"], "assured@0.3")
	b.ReportMetric(rows[2].Satisfied["EUA*"], "assured@0.9")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA() }, 0.6)
}

var (
	ablationOnce sync.Once
	ablationRows []experiment.Row
	ablationErr  error
)

func getAblation(b *testing.B) []experiment.Row {
	b.Helper()
	ablationOnce.Do(func() {
		cfg := experiment.Config{
			Energy:  energy.E3, // E3 exposes the f^o clamp
			Loads:   []float64{0.4, 0.8, 1.4},
			Seeds:   []uint64{1, 2},
			Horizon: 0.5,
		}
		ablationRows, ablationErr = experiment.Ablation(cfg)
	})
	if ablationErr != nil {
		b.Fatal(ablationErr)
	}
	return ablationRows
}

// BenchmarkAblationUERInsertion quantifies the UER-greedy construction:
// without it, overload utility drops toward EDF's.
func BenchmarkAblationUERInsertion(b *testing.B) {
	rows := getAblation(b)
	logRows(b, "Ablation (E3)", rows)
	over := rows[len(rows)-1]
	b.ReportMetric(over.Utility["EUA*"], "eua-utility@1.4")
	b.ReportMetric(over.Utility["EUA*-noUER"], "noUER-utility@1.4")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA(euastar.WithoutUERInsertion()) }, 1.4)
}

// BenchmarkAblationFoClamp quantifies the UER-optimal frequency clamp
// under E3 (where running too slowly wastes constant-power energy).
func BenchmarkAblationFoClamp(b *testing.B) {
	rows := getAblation(b)
	under := rows[0]
	b.ReportMetric(under.Energy["EUA*"], "eua-energy@0.4")
	b.ReportMetric(under.Energy["EUA*-noFo"], "noFo-energy@0.4")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA(euastar.WithoutFoClamp()) }, 0.4)
}

// BenchmarkAblationWindowedDemand quantifies the UAM windowed-demand
// bookkeeping C_i^r.
func BenchmarkAblationWindowedDemand(b *testing.B) {
	rows := getAblation(b)
	mid := rows[1]
	b.ReportMetric(mid.Utility["EUA*"], "eua-utility@0.8")
	b.ReportMetric(mid.Utility["EUA*-noWin"], "noWin-utility@0.8")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA(euastar.WithoutWindowedDemand()) }, 0.8)
}

// BenchmarkAblationPhantomReservation quantifies the phantom-arrival
// reservation DESIGN.md documents (safety of the deferral under UAM).
func BenchmarkAblationPhantomReservation(b *testing.B) {
	rows := getAblation(b)
	mid := rows[1]
	b.ReportMetric(mid.Utility["EUA*"], "eua-utility@0.8")
	b.ReportMetric(mid.Utility["EUA*-noPhantom"], "noPhantom-utility@0.8")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA(euastar.WithoutPhantomReservation()) }, 0.8)
}

// BenchmarkAblationAbortPolicy quantifies termination-time abortion: the
// domino effect of the -NA policy during overload.
func BenchmarkAblationAbortPolicy(b *testing.B) {
	rows := fig2Rows(b, energy.E1)
	over := rows[len(rows)-1]
	b.ReportMetric(over.Utility["laEDF"], "abort-utility@1.8")
	b.ReportMetric(over.Utility["laEDF-NA"], "na-utility@1.8")
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewLAEDF(false) }, 1.8)
}

// BenchmarkParallelSweepSpeedup measures the parallel experiment runner:
// each iteration runs the same Figure-2 sweep with Workers=1 and
// Workers=GOMAXPROCS and reports the wall-clock ratio as "speedup-x".
// The sweep is embarrassingly parallel (loads × seeds × schemes), so on
// an N-core machine the ratio should approach min(N, jobs); on a
// single-core container it sits near 1. Determinism across worker counts
// is asserted by TestSweepDeterministicAcrossWorkers, not here.
func BenchmarkParallelSweepSpeedup(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	sweep := func(w int) {
		cfg := benchCfg(energy.E1)
		cfg.Workers = w
		if _, err := experiment.Figure2(cfg); err != nil {
			b.Fatal(err)
		}
	}
	var seq, par time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		sweep(1)
		seq += time.Since(start)
		start = time.Now()
		sweep(workers)
		par += time.Since(start)
	}
	b.StopTimer()
	if par > 0 {
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-x")
	}
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkEUADecision micro-benchmarks one full simulation dominated by
// scheduler decisions (the per-event cost of Algorithm 1 + 2).
func BenchmarkEUADecision(b *testing.B) {
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEUA() }, 0.9)
}

// BenchmarkEDFDecision is the baseline scheduler's cost on the identical
// workload.
func BenchmarkEDFDecision(b *testing.B) {
	timeOneRun(b, func() euastar.Scheduler { return euastar.NewEDF(true) }, 0.9)
}
