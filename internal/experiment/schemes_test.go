package experiment

import (
	"fmt"
	"strings"
	"testing"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/telemetry"
)

// TestSchemeTable: every table name is its scheduler's Name(), only the
// -NA schemes run without abortion at termination time, and no name
// repeats.
func TestSchemeTable(t *testing.T) {
	if len(schemeTable) != 14 {
		t.Fatalf("%d schemes, want 14", len(schemeTable))
	}
	seen := map[string]bool{}
	for _, sc := range schemeTable {
		if got := sc.New().Name(); got != sc.Name {
			t.Errorf("scheme %s builds a scheduler named %s", sc.Name, got)
		}
		if sc.Abort == strings.HasSuffix(sc.Name, "-NA") {
			t.Errorf("scheme %s: Abort = %v", sc.Name, sc.Abort)
		}
		if seen[sc.Name] {
			t.Errorf("scheme %s listed twice", sc.Name)
		}
		seen[sc.Name] = true
	}
}

// TestSchemeByName: a lookup finds every table name without allocating,
// and reports false for any other name.
func TestSchemeByName(t *testing.T) {
	for _, want := range schemeTable {
		var (
			sc Scheme
			ok bool
		)
		allocs := testing.AllocsPerRun(100, func() { sc, ok = SchemeByName(want.Name) })
		if !ok || sc.Name != want.Name {
			t.Errorf("SchemeByName(%q) = %q, %v", want.Name, sc.Name, ok)
		}
		if allocs != 0 {
			t.Errorf("SchemeByName(%q) allocates %v times", want.Name, allocs)
		}
	}
	for _, name := range []string{"", "bogus", "eua", "EUA", "EUA*-budget"} {
		if _, ok := SchemeByName(name); ok {
			t.Errorf("SchemeByName(%q) found a scheme", name)
		}
	}
}

// TestSchemeLists pins the names, order and abort policies of the
// exported lists: perfbench runs the baseline and Figure 2 lists, and
// BENCH_admission.json's rows follow ComparisonSchemes.
func TestSchemeLists(t *testing.T) {
	describe := func(scs []Scheme) string {
		parts := make([]string, len(scs))
		for i, sc := range scs {
			parts[i] = fmt.Sprintf("%s/%v", sc.Name, sc.Abort)
		}
		return strings.Join(parts, " ")
	}
	for _, c := range []struct {
		list string
		got  []Scheme
		want string
	}{
		{"BaselineScheme", []Scheme{BaselineScheme()}, "EDF-fm/true"},
		{"Figure2Schemes", Figure2Schemes(), "EUA*/true ccEDF/true laEDF/true laEDF-NA/false"},
		{"AblationSchemes", AblationSchemes(), "EUA*/true EUA*-noUER/true EUA*-noFo/true EUA*-noWin/true " +
			"EUA*-noPhantom/true EUA*-strictBreak/true EUA*-noDVS/true DASA/true GUS/true"},
		{"ComparisonSchemes", ComparisonSchemes(), "EDF-fm/true EUA*/true ccEDF/true laEDF/true laEDF-NA/false DASA/true GUS/true"},
	} {
		if got := describe(c.got); got != c.want {
			t.Errorf("%s = %s\nwant %s", c.list, got, c.want)
		}
	}
}

// TestAblationTelemetryPerScheme: an ablation sweep reports each EUA*
// variant under its own scheme label, so scheme="EUA*" counts EUA*'s
// runs alone: the same as a sweep of the same cells running only EUA*.
func TestAblationTelemetryPerScheme(t *testing.T) {
	cfg := quickCfg(1.4)
	cfg.Telemetry = telemetry.NewRegistry()
	if _, err := Ablation(cfg); err != nil {
		t.Fatal(err)
	}
	ablation := cfg.Telemetry.Snapshot()
	for _, name := range []string{"EUA*-noPhantom", "EUA*-strictBreak"} {
		if ablation.Find(sched.MetricFeasIters, telemetry.L("scheme", name)) == nil {
			t.Errorf("no %s series for scheme %s", sched.MetricFeasIters, name)
		}
	}

	cfg.Telemetry = telemetry.NewRegistry()
	if _, err := normalized("ablation", cfg.withDefaults(), schemesNamed("EUA*"), 0, "").rows(); err != nil {
		t.Fatal(err)
	}
	alone := cfg.Telemetry.Snapshot()
	got := ablation.Find(sched.MetricFeasIters, telemetry.L("scheme", "EUA*"))
	want := alone.Find(sched.MetricFeasIters, telemetry.L("scheme", "EUA*"))
	if got == nil || want == nil || want.Value == 0 {
		t.Fatalf("EUA* feasibility series: ablation %v, alone %v", got, want)
	}
	if got.Value != want.Value {
		t.Fatalf("ablation counts %v feasibility iterations for scheme EUA*, EUA* alone %v", got.Value, want.Value)
	}
}
