package experiment

import (
	"strings"
	"testing"
)

func TestBudgetSweep(t *testing.T) {
	cfg := quickCfg(0.6)
	rows, err := Budget(cfg, []float64{0.2, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	small, full := rows[0], rows[1]
	// With a small budget EUA* must out-accrue EDF by stretching the
	// battery; with the full budget both complete the mission.
	if small.Utility["EUA*"] <= small.Utility["EDF-fm"] {
		t.Fatalf("budget 0.2: EUA* %v <= EDF %v", small.Utility["EUA*"], small.Utility["EDF-fm"])
	}
	if full.Utility["EUA*"] < 0.95 || full.Utility["EDF-fm"] < 0.95 {
		t.Fatalf("full budget should complete the mission: %+v", full.Utility)
	}
	// Monotone in budget.
	if small.Utility["EUA*"] > full.Utility["EUA*"]+1e-9 {
		t.Fatal("utility not monotone in budget")
	}
}

func TestSwitchLatencySweep(t *testing.T) {
	cfg := quickCfg(0.6)
	rows, err := SwitchLatency(cfg, []float64{0, 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Larger switch latency cannot make EUA* cheaper: each switch steals
	// time that must be bought back at higher frequencies.
	if rows[1].Energy < rows[0].Energy-1e-9 {
		t.Fatalf("energy decreased with latency: %v -> %v", rows[0].Energy, rows[1].Energy)
	}
	if rows[0].Utility < 0.99 {
		t.Fatalf("zero-latency utility = %v", rows[0].Utility)
	}
}

func TestLadderSweep(t *testing.T) {
	cfg := quickCfg(0.6)
	rows, err := Ladder(cfg, []int{2, 7, 25})
	if err != nil {
		t.Fatal(err)
	}
	// Finer ladders never cost more energy (they can only round up less).
	for i := 1; i < len(rows); i++ {
		if rows[i].Energy > rows[i-1].Energy+0.02 {
			t.Fatalf("energy grew with finer ladder: %+v", rows)
		}
	}
	if rows[0].Energy <= rows[len(rows)-1].Energy {
		// 2 steps vs 25 steps must show a real gap.
		t.Logf("rows: %+v", rows)
	}
}

func TestLadderRejectsBadSteps(t *testing.T) {
	if _, err := Ladder(quickCfg(0.6), []int{0}); err == nil {
		t.Fatal("0 steps accepted")
	}
}

func TestWriteExtensionTables(t *testing.T) {
	var sb strings.Builder
	if err := WriteBudget(&sb, []BudgetRow{{BudgetFrac: 0.5, Utility: map[string]float64{"EUA*": 0.8}}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.50") {
		t.Fatalf("budget table:\n%s", sb.String())
	}
	sb.Reset()
	if err := WriteLatency(&sb, []LatencyRow{{Latency: 1e-4, Energy: 0.4, Utility: 1}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "100") {
		t.Fatalf("latency table:\n%s", sb.String())
	}
	sb.Reset()
	if err := WriteLadder(&sb, []LadderRow{{Steps: 7, Energy: 0.36, Utility: 1}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "7") {
		t.Fatalf("ladder table:\n%s", sb.String())
	}
}

func TestWriteCharts(t *testing.T) {
	rows := []Row{
		{Load: 0.2, Utility: map[string]float64{"EUA*": 1}, Energy: map[string]float64{"EUA*": 0.2}},
		{Load: 1.8, Utility: map[string]float64{"EUA*": 1.5}, Energy: map[string]float64{"EUA*": 1}},
	}
	var sb strings.Builder
	if err := WriteRowsChart(&sb, "test", rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "normalized utility vs load") {
		t.Fatalf("chart:\n%s", sb.String())
	}
	f3 := []Fig3Row{
		{Load: 0.5, Energy: map[int]float64{1: 0.2, 3: 0.3}},
		{Load: 1.5, Energy: map[int]float64{1: 1, 3: 1}},
	}
	sb.Reset()
	if err := WriteFig3Chart(&sb, f3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<1,P>") {
		t.Fatalf("fig3 chart:\n%s", sb.String())
	}
	if err := WriteFig3Chart(&sb, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContentionSweep(t *testing.T) {
	cfg := quickCfg(0.6)
	cfg.Horizon = 2.0 // blocking needs preemptions mid-section: give it room
	cfg.Seeds = []uint64{1, 2}
	rows, err := Contention(cfg, []float64{0, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	free, contended := rows[0], rows[1]
	if free.Inheritances != 0 {
		t.Fatalf("inheritances without sections: %v", free.Inheritances)
	}
	if contended.Inheritances == 0 {
		t.Fatal("no blocking with long sections")
	}
	if contended.Utility > free.Utility+1e-9 {
		t.Fatalf("contention improved utility: %v vs %v", contended.Utility, free.Utility)
	}
	var sb strings.Builder
	if err := WriteContention(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.80") {
		t.Fatalf("table:\n%s", sb.String())
	}
}

// TestContentionRunsOnOneCore: the engine runs resource sections on one
// core only, so the contention sweep runs one whatever Config.Cores says,
// and its header claims no cores.
func TestContentionRunsOnOneCore(t *testing.T) {
	cfg := quickCfg(0.6)
	cfg.Horizon = 0.2
	x, _ := Lookup("contention")
	for _, cores := range []int{0, 2, 4} {
		cfg.Cores = cores
		if d := x.Describe(cfg); strings.Contains(d, "cores=") {
			t.Errorf("cores=%d: contention describes %q", cores, d)
		}
	}
	if _, err := Contention(cfg, []float64{0.5}); err != nil {
		t.Fatalf("contention with Cores %d: %v", cfg.Cores, err)
	}
}

func TestContentionRejectsBadFrac(t *testing.T) {
	if _, err := Contention(quickCfg(0.6), []float64{1.5}); err == nil {
		t.Fatal("bad fraction accepted")
	}
}
