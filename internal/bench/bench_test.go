package bench

import (
	"strings"
	"testing"
)

// TestRunSmoke exercises one tiny cell per scheme end to end: the
// measurement must carry positive rates and a nonzero event count.
func TestRunSmoke(t *testing.T) {
	cells := []Cell{
		{Tasks: 4, Load: 0.8, Scheme: SchemeEUA, Seed: 1, Horizon: 0.05},
		{Tasks: 4, Load: 0.8, Scheme: SchemePart, Seed: 1, Horizon: 0.05, Cores: 2},
		{Tasks: 4, Load: 0.8, Scheme: SchemePart, Seed: 1, Horizon: 0.05, Cores: 2, Partition: "wf"},
	}
	for _, c := range cells {
		m, err := Run(c, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.Key(), err)
		}
		if m.Events <= 0 || m.NsPerEvent <= 0 || m.EventsPerSec <= 0 {
			t.Fatalf("%s: degenerate measurement %+v", c.Key(), m)
		}
	}
}

// TestCellKey pins the baseline-matching contract: uniprocessor keys are
// byte-identical to the pre-multicore format, and the core count joins
// the key only when it is a real multiprocessor cell.
func TestCellKey(t *testing.T) {
	uni := Cell{Tasks: 8, Load: 0.5, Scheme: SchemeEUA, Seed: 1, Horizon: 0.4}
	if got, want := uni.Key(), "8/0.5/eua/1/0.4"; got != want {
		t.Fatalf("uniprocessor key %q, want %q", got, want)
	}
	one := Cell{Tasks: 8, Load: 0.5, Scheme: SchemePart, Seed: 1, Horizon: 0.4, Cores: 1}
	if got, want := one.Key(), "8/0.5/eua-part/1/0.4"; got != want {
		t.Fatalf("single-core partitioned key %q, want %q", got, want)
	}
	quad := Cell{Tasks: 8, Load: 0.5, Scheme: SchemePart, Seed: 1, Horizon: 0.4, Cores: 4}
	if got, want := quad.Key(), "8/0.5/eua-part/1/0.4/c4"; got != want {
		t.Fatalf("quad-core partitioned key %q, want %q", got, want)
	}
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	if _, err := Run(Cell{Tasks: 4, Load: 0.8, Scheme: "edf", Seed: 1, Horizon: 0.05}, 1); err == nil {
		t.Fatal("want error for unknown scheme")
	}
}

// TestCompare pins the regression gate: within tolerance passes, beyond
// tolerance is reported, and unmatched cells are ignored.
func TestCompare(t *testing.T) {
	cell := func(tasks int, load float64, scheme string, ns float64) Measurement {
		return Measurement{
			Cell:       Cell{Tasks: tasks, Load: load, Scheme: scheme, Seed: 1, Horizon: 0.4},
			NsPerEvent: ns,
		}
	}
	baseline := Report{Version: 1, Cells: []Measurement{
		cell(8, 0.5, SchemeEUA, 1000),
		cell(8, 1.0, SchemeEUA, 1000),
		cell(8, 1.6, SchemeEUA, 1000),
		cell(24, 1.0, SchemeEUA, 1000),
	}}
	current := Report{Version: 1, Cells: []Measurement{
		cell(8, 0.5, SchemeEUA, 1000),
		cell(8, 1.0, SchemeEUA, 1100),  // +10%: inside 15% tolerance
		cell(24, 1.0, SchemeEUA, 1300), // +30%: regression
		cell(64, 1.0, SchemeEUA, 9999), // not in baseline: ignored
	}}
	regs, drift := Compare(current, baseline, 0.15)
	if drift != 1 {
		t.Fatalf("drift %v, want 1 (lower quartile of {1, 1.1, 1.3})", drift)
	}
	if len(regs) != 1 {
		t.Fatalf("got %d regressions %v, want 1", len(regs), regs)
	}
	if regs[0].Baseline != 1000 || regs[0].Current != 1300 {
		t.Fatalf("wrong regression %v", regs[0])
	}
	if s := regs[0].String(); !strings.Contains(s, "+30.0%") {
		t.Fatalf("regression rendering %q lacks the percentage", s)
	}
	if regs, _ := Compare(current, baseline, 0.35); len(regs) != 0 {
		t.Fatalf("tolerance 35%% should pass, got %v", regs)
	}
}

// TestCompareNormalizesDrift pins the machine-drift defense: a uniform
// 30% slowdown across every cell is drift (slower host), not a
// regression — but one cell rising far beyond the rest still trips the
// gate after normalization.
func TestCompareNormalizesDrift(t *testing.T) {
	cell := func(tasks int, load float64, ns float64) Measurement {
		return Measurement{
			Cell:       Cell{Tasks: tasks, Load: load, Scheme: SchemeEUA, Seed: 1, Horizon: 0.4},
			NsPerEvent: ns,
		}
	}
	baseline := Report{Version: 1, Cells: []Measurement{
		cell(8, 0.5, 1000), cell(8, 1.0, 1000), cell(8, 1.6, 1000), cell(24, 1.0, 1000),
	}}
	uniform := Report{Version: 1, Cells: []Measurement{
		cell(8, 0.5, 1300), cell(8, 1.0, 1300), cell(8, 1.6, 1300), cell(24, 1.0, 1300),
	}}
	regs, drift := Compare(uniform, baseline, 0.15)
	if len(regs) != 0 {
		t.Fatalf("uniform slowdown flagged as regression: %v", regs)
	}
	if drift != 1.3 {
		t.Fatalf("drift %v, want 1.3", drift)
	}
	spiked := Report{Version: 1, Cells: []Measurement{
		cell(8, 0.5, 1300), cell(8, 1.0, 1300), cell(8, 1.6, 1300), cell(24, 1.0, 2600),
	}}
	regs, _ = Compare(spiked, baseline, 0.15)
	if len(regs) != 1 || regs[0].Current != 2600 {
		t.Fatalf("spike not isolated after drift normalization: %v", regs)
	}
}

// TestReportRoundTrip checks WriteJSON/ReadJSON and the version guard.
func TestReportRoundTrip(t *testing.T) {
	rep := Report{Version: 1, Go: "go-test", Cells: []Measurement{{
		Cell:       Cell{Tasks: 8, Load: 0.5, Scheme: SchemeEUA, Seed: 1, Horizon: 0.4},
		NsPerEvent: 123, AllocsPerEvent: 4.5, EventsPerSec: 1e6, Events: 1000, Reps: 3,
	}}}
	var sb strings.Builder
	if err := WriteJSON(&sb, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 1 || got.Cells[0] != rep.Cells[0] || got.Go != rep.Go {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":2}`)); err == nil {
		t.Fatal("want version guard error")
	}
}

// TestCompareFlagsAllocations pins the allocation gate: a cell whose
// allocs/event exceeds its baseline by more than AllocSlack is flagged
// however fast it ran, with no drift normalization; one within the slack
// or below its baseline passes.
func TestCompareFlagsAllocations(t *testing.T) {
	cell := func(tasks int, ns, allocs float64) Measurement {
		return Measurement{
			Cell:       Cell{Tasks: tasks, Load: 1, Scheme: SchemeEUA, Seed: 1, Horizon: 0.4},
			NsPerEvent: ns, AllocsPerEvent: allocs,
		}
	}
	baseline := Report{Version: 1, Cells: []Measurement{
		cell(8, 1000, 0.2), cell(24, 1000, 0.2), cell(64, 1000, 0.2),
	}}
	current := Report{Version: 1, Cells: []Measurement{
		cell(8, 500, 0.2+AllocSlack/2), // within the slack
		cell(24, 500, 2.1),             // one allocation per event came back
		cell(64, 500, 0.1),             // fewer allocations: fine
	}}
	regs, _ := Compare(current, baseline, 0.15)
	if len(regs) != 1 || regs[0].Metric != MetricAllocs || regs[0].Key != current.Cells[1].Key() {
		t.Fatalf("got %v, want one allocs/event regression on %s", regs, current.Cells[1].Key())
	}
	if s := regs[0].String(); !strings.Contains(s, "0.200 -> 2.100 allocs/event") {
		t.Fatalf("regression rendering %q", s)
	}
}
