package experiment

import (
	"errors"
	"strings"
	"testing"

	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/workload"
)

// quickCfg keeps test sweeps small: one seed, short horizon, few loads.
func quickCfg(loads ...float64) Config {
	return Config{
		Energy:  energy.E1,
		Loads:   loads,
		Seeds:   []uint64{1},
		Horizon: 0.5,
	}
}

func TestFigure2Shapes(t *testing.T) {
	rows, err := Figure2(quickCfg(0.4, 1.6))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	under, over := rows[0], rows[1]

	// Underload: every scheme accrues the baseline's (optimal) utility and
	// the DVS schemes consume visibly less energy than EDF at f_m.
	for _, s := range []string{"EUA*", "ccEDF", "laEDF", "laEDF-NA"} {
		if u := under.Utility[s]; u < 0.99 || u > 1.01 {
			t.Errorf("underload utility[%s] = %v", s, u)
		}
	}
	for _, s := range []string{"EUA*", "laEDF"} {
		if e := under.Energy[s]; e > 0.8 {
			t.Errorf("underload energy[%s] = %v, no DVS saving", s, e)
		}
	}

	// Overload: EUA* accrues the most utility; laEDF-NA collapses; energy
	// of abort-capable schemes converges to ~1; NA exceeds 1.
	if over.Utility["EUA*"] <= over.Utility["laEDF"] {
		t.Errorf("overload: EUA* %v <= laEDF %v", over.Utility["EUA*"], over.Utility["laEDF"])
	}
	if over.Utility["laEDF-NA"] > 0.3 {
		t.Errorf("overload: laEDF-NA utility %v, domino effect missing", over.Utility["laEDF-NA"])
	}
	for _, s := range []string{"EUA*", "ccEDF", "laEDF"} {
		if e := over.Energy[s]; e < 0.9 || e > 1.1 {
			t.Errorf("overload energy[%s] = %v, want ~1", s, e)
		}
	}
	if over.Energy["laEDF-NA"] < 1.1 {
		t.Errorf("overload: laEDF-NA energy %v, want > 1", over.Energy["laEDF-NA"])
	}
}

func TestFigure2E3(t *testing.T) {
	cfg := quickCfg(0.4)
	cfg.Energy = energy.E3
	rows, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Under E3 the idle-adjacent frequencies are less attractive (constant
	// power term) so savings are smaller than under E1 but still present.
	if e := rows[0].Energy["EUA*"]; e >= 1 {
		t.Fatalf("E3 underload energy = %v", e)
	}
}

func TestFigure3Shape(t *testing.T) {
	cfg := quickCfg(0.7, 1.5)
	cfg.Horizon = 1.5
	cfg.Seeds = []uint64{1, 2}
	rows, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	under, over := rows[0], rows[1]
	// Underload: energy grows with the UAM bound a.
	if !(under.Energy[1] < under.Energy[2] && under.Energy[2] <= under.Energy[3]) {
		t.Errorf("underload energies not increasing in a: %v", under.Energy)
	}
	// Overload: the curves coincide near 1.
	for a := 1; a <= 3; a++ {
		if e := over.Energy[a]; e < 0.9 || e > 1.05 {
			t.Errorf("overload energy[a=%d] = %v", a, e)
		}
	}
}

func TestFigure3CustomBounds(t *testing.T) {
	cfg := quickCfg(0.5)
	cfg.Bounds = []int{1, 4}
	rows, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rows[0].Energy[4]; !ok {
		t.Fatal("bound 4 missing")
	}
	if _, ok := rows[0].Energy[2]; ok {
		t.Fatal("unexpected bound 2")
	}
}

// TestFigure3RejectsBoundBelowOne: a UAM bound below 1 fails its cells
// instead of running the app's own bound under the bad label.
func TestFigure3RejectsBoundBelowOne(t *testing.T) {
	cfg := quickCfg(0.5)
	cfg.Bounds = []int{1, 0}
	rows, err := Figure3(cfg)
	var se *SweepError
	if !errors.As(err, &se) || len(se.Cells) != 1 || !strings.Contains(se.Cells[0].Error(), "a=0") {
		t.Fatalf("err = %v, want the a=0 cell failed", err)
	}
	if _, ok := rows[0].Energy[0]; ok {
		t.Fatal("bound 0 reported")
	}
	if _, ok := rows[0].Energy[1]; !ok {
		t.Fatal("bound 1 missing")
	}
}

func TestAssuranceUnderload(t *testing.T) {
	cfg := quickCfg(0.5)
	cfg.Horizon = 1.0
	rows, err := Assurance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].Satisfied["EUA*"]; got != 1 {
		t.Fatalf("EUA* assurance fraction = %v at load 0.5", got)
	}
	if got := rows[0].UtilityRatio["EUA*"]; got < 0.95 {
		t.Fatalf("EUA* utility ratio = %v", got)
	}
}

func TestAblationRuns(t *testing.T) {
	rows, err := Ablation(quickCfg(1.4))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The noDVS variant burns baseline-level energy during overloads, like
	// everyone else; its identity is checked via presence.
	for _, name := range []string{"EUA*", "EUA*-noUER", "EUA*-noFo", "EUA*-noWin", "EUA*-noPhantom", "EUA*-strictBreak", "EUA*-noDVS", "DASA"} {
		if _, ok := r.Utility[name]; !ok {
			t.Errorf("scheme %s missing", name)
		}
	}
	// Dropping the UER insertion must not accrue more overload utility
	// than full EUA*.
	if r.Utility["EUA*-noUER"] > r.Utility["EUA*"]+1e-9 {
		t.Errorf("noUER %v > EUA* %v during overload", r.Utility["EUA*-noUER"], r.Utility["EUA*"])
	}
}

func TestSchemeNames(t *testing.T) {
	rows := []Row{{Utility: map[string]float64{"b": 1, "a": 2}}}
	names := SchemeNames(rows)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestDescribe(t *testing.T) {
	s := Describe(Config{})
	if !strings.Contains(s, "energy=E1") {
		t.Fatalf("describe = %q", s)
	}
}

func TestWriteTable1(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"A1", "A2", "A3", "<5,", "<2,", "<3,"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTable2(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable2(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E1", "E2", "E3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q:\n%s", want, out)
		}
	}
	// E3 must show an interior optimum (not 360 MHz).
	if strings.Contains(out, "E3") && strings.Contains(out, "E3\t") {
		t.Log(out)
	}
}

func TestWriteRowsAndFig3(t *testing.T) {
	rows := []Row{{
		Load:    0.5,
		Utility: map[string]float64{"EUA*": 1},
		Energy:  map[string]float64{"EUA*": 0.2},
	}}
	var sb strings.Builder
	if err := WriteRows(&sb, "test", rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0.50") || !strings.Contains(sb.String(), "0.200") {
		t.Fatalf("output:\n%s", sb.String())
	}
	f3 := []Fig3Row{{Load: 0.5, Energy: map[int]float64{1: 0.2, 2: 0.3}}}
	var sb2 strings.Builder
	if err := WriteFig3(&sb2, f3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "E, <1,P>") {
		t.Fatalf("fig3 output:\n%s", sb2.String())
	}
	if err := WriteFig3(&sb2, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAssurance(t *testing.T) {
	rows := []AssuranceRow{{
		Load:         0.5,
		Satisfied:    map[string]float64{"EUA*": 1},
		UtilityRatio: map[string]float64{"EUA*": 0.99},
	}}
	var sb strings.Builder
	if err := WriteAssurance(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1.00 / 0.990") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := quickCfg(0.5)
	a, err := synthesize(cfg.withDefaults(), 7, workload.Step, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synthesize(cfg.withDefaults(), 7, workload.Step, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].TUF.MaxUtility() != b[i].TUF.MaxUtility() {
			t.Fatalf("task %d differs", i)
		}
	}
}

func TestBurstOverride(t *testing.T) {
	cfg := quickCfg(0.5).withDefaults()
	ts, err := synthesize(cfg, 1, workload.Step, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range ts {
		if tk.Arrival.A != 1 {
			t.Fatalf("override failed: a=%d", tk.Arrival.A)
		}
	}
}
