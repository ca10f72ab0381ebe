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
		{Tasks: 4, Load: 0.8, Scheme: SchemeLAEDF, Seed: 1, Horizon: 0.05},
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

// TestSweep runs a small matrix with two repetitions: every (tasks, load)
// pair yields an eua cell, a laedf cell and one eua-part cell per core
// count, in that order, and each keeps exactly its timed repetitions, so
// the warm-up pass is not counted.
func TestSweep(t *testing.T) {
	rep, err := Sweep(Options{Reps: 2, Horizon: 0.02, Tasks: []int{4}, Loads: []float64{0.8, 1.6}, Cores: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != reportVersion {
		t.Fatalf("report version %d, want %d", rep.Version, reportVersion)
	}
	want := []string{
		"4/0.8/eua/1/0.02", "4/0.8/laedf/1/0.02", "4/0.8/eua-part/1/0.02", "4/0.8/eua-part/1/0.02/c2",
		"4/1.6/eua/1/0.02", "4/1.6/laedf/1/0.02", "4/1.6/eua-part/1/0.02", "4/1.6/eua-part/1/0.02/c2",
	}
	if len(rep.Cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(rep.Cells), len(want))
	}
	for i, m := range rep.Cells {
		if m.Key() != want[i] {
			t.Fatalf("cell %d is %s, want %s", i, m.Key(), want[i])
		}
		if m.Reps != 2 || m.Events <= 0 || m.NsPerEvent <= 0 {
			t.Fatalf("%s: %+v, want 2 repetitions with events", m.Key(), m)
		}
	}
}

// TestSummarize pins how a cell folds its repetitions: it keeps the
// repetition of median ns/event, the upper one of an even count, with
// that repetition's events/s, and the minimum allocs/event of all.
func TestSummarize(t *testing.T) {
	rep := func(ns, allocs float64) Measurement {
		return Measurement{NsPerEvent: ns, AllocsPerEvent: allocs, EventsPerSec: 1e9 / ns, Events: 100}
	}
	m := summarize([]Measurement{rep(30, 0.5), rep(10, 0.4), rep(20, 0.2)})
	if m.NsPerEvent != 20 || m.EventsPerSec != 1e9/20 || m.AllocsPerEvent != 0.2 || m.Reps != 3 {
		t.Fatalf("odd count: %+v, want the 20 ns repetition with allocs 0.2 and 3 reps", m)
	}
	m = summarize([]Measurement{rep(40, 0.3), rep(10, 0.3), rep(30, 0.1), rep(20, 0.3)})
	if m.NsPerEvent != 30 || m.AllocsPerEvent != 0.1 || m.Reps != 4 {
		t.Fatalf("even count: %+v, want the 30 ns repetition with allocs 0.1 and 4 reps", m)
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
	baseline := Report{Version: reportVersion, Cells: []Measurement{
		cell(8, 0.5, SchemeEUA, 1000),
		cell(8, 1.0, SchemeEUA, 1000),
		cell(8, 1.6, SchemeEUA, 1000),
		cell(24, 1.0, SchemeEUA, 1000),
	}}
	current := Report{Version: reportVersion, Cells: []Measurement{
		cell(8, 0.5, SchemeEUA, 1000),
		cell(8, 1.0, SchemeEUA, 1100),  // +10%: inside 15% tolerance
		cell(24, 1.0, SchemeEUA, 1300), // +30%: regression
		cell(64, 1.0, SchemeEUA, 9999), // not in baseline: ignored
	}}
	regs := Compare(current, baseline, 0.15)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions %v, want 1", len(regs), regs)
	}
	if regs[0].Baseline != 1000 || regs[0].Current != 1300 {
		t.Fatalf("wrong regression %v", regs[0])
	}
	if s := regs[0].String(); !strings.Contains(s, "+30.0%") {
		t.Fatalf("regression rendering %q lacks the percentage", s)
	}
	if regs := Compare(current, baseline, 0.35); len(regs) != 0 {
		t.Fatalf("tolerance 35%% should pass, got %v", regs)
	}
}

// TestCalibrationKernel pins what the calibrated times rest on: the
// kernel allocates nothing, so a cell's allocation count is the
// program's own, and a repetition is scaled by the kernel time beside
// it — a host twice as slow doubles both, which cancels.
func TestCalibrationKernel(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(5, func() { c.time() }); n != 0 {
		t.Fatalf("the calibration kernel allocates %v times per timing", n)
	}
	if k := c.time(); k <= 0 {
		t.Fatalf("kernel time %v", k)
	}
	a, b := newCalibrator(), newCalibrator()
	if a.m[a.keys[0]] != b.m[b.keys[0]] || a.base[17] != b.base[17] || len(a.m) != calibKeys {
		t.Fatal("the kernel's inputs are not fixed")
	}
}

// TestReportRoundTrip checks WriteJSON/ReadJSON and the version guard.
func TestReportRoundTrip(t *testing.T) {
	rep := Report{Version: reportVersion, Go: "go-test", Cells: []Measurement{{
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
	if _, err := ReadJSON(strings.NewReader(`{"version":1}`)); err == nil {
		t.Fatal("want version guard error: a version 1 report holds uncalibrated times")
	}
}

// TestCompareFlagsAllocations pins the allocation gate: a cell whose
// allocs/event exceeds its baseline by more than AllocSlack is flagged
// however fast it ran; one within the slack
// or below its baseline passes.
func TestCompareFlagsAllocations(t *testing.T) {
	cell := func(tasks int, ns, allocs float64) Measurement {
		return Measurement{
			Cell:       Cell{Tasks: tasks, Load: 1, Scheme: SchemeEUA, Seed: 1, Horizon: 0.4},
			NsPerEvent: ns, AllocsPerEvent: allocs,
		}
	}
	baseline := Report{Version: reportVersion, Cells: []Measurement{
		cell(8, 1000, 0.2), cell(24, 1000, 0.2), cell(64, 1000, 0.2),
	}}
	current := Report{Version: reportVersion, Cells: []Measurement{
		cell(8, 500, 0.2+AllocSlack/2), // within the slack
		cell(24, 500, 2.1),             // one allocation per event came back
		cell(64, 500, 0.1),             // fewer allocations: fine
	}}
	regs := Compare(current, baseline, 0.15)
	if len(regs) != 1 || regs[0].Metric != MetricAllocs || regs[0].Key != current.Cells[1].Key() {
		t.Fatalf("got %v, want one allocs/event regression on %s", regs, current.Cells[1].Key())
	}
	if s := regs[0].String(); !strings.Contains(s, "0.200 -> 2.100 allocs/event") {
		t.Fatalf("regression rendering %q", s)
	}
}
