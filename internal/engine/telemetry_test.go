package engine

import (
	"errors"
	"testing"

	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/uam"
)

// counterValue reads a registry counter out of a snapshot (0 if absent).
func counterValue(snap telemetry.Snapshot, name string, labels ...telemetry.Label) int {
	m := snap.Find(name, labels...)
	if m == nil {
		return 0
	}
	return int(m.Value)
}

// sumFamily totals every series of one counter family.
func sumFamily(snap telemetry.Snapshot, name string) int {
	total := 0
	for i := range snap.Metrics {
		if snap.Metrics[i].Name == name {
			total += int(snap.Metrics[i].Value)
		}
	}
	return total
}

// TestTelemetryMirrorsResult pins that the exported registry series and
// Result's integer fields are the same per-run counts and cannot
// diverge — and that attaching a registry does not change the
// simulation outcome at all.
func TestTelemetryMirrorsResult(t *testing.T) {
	mk := func(reg *telemetry.Registry) Config {
		ts := task.Set{stepTask(1, 0.01, 10, 3e6), stepTask(2, 0.02, 20, 5e6)}
		cfg := baseConfig(ts, eua.New(), 0.2)
		cfg.Faults = &faults.Plan{Seed: 3, OverrunProb: 0.5, OverrunFactor: 3}
		cfg.Telemetry = reg
		return cfg
	}
	plain, err := Run(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	res, err := Run(mk(reg))
	if err != nil {
		t.Fatal(err)
	}

	// Behavior preservation: the instrumented run is bit-identical.
	if res.TotalEnergy != plain.TotalEnergy || sumUtility(res) != sumUtility(plain) ||
		res.Events != plain.Events || res.Decisions != plain.Decisions ||
		res.Preemptions != plain.Preemptions || res.Switches != plain.Switches ||
		res.FaultEvents != plain.FaultEvents {
		t.Fatalf("registry changed the run: %+v vs %+v", res, plain)
	}

	snap := reg.Snapshot()
	checks := []struct {
		name string
		reg  int
		res  int
	}{
		{MetricEvents, sumFamily(snap, MetricEvents), res.Events},
		{MetricDecisions, counterValue(snap, MetricDecisions), res.Decisions},
		{MetricPreemptions, counterValue(snap, MetricPreemptions), res.Preemptions},
		{MetricFreqSwitches, counterValue(snap, MetricFreqSwitches), res.Switches},
		{MetricFaultEvents, counterValue(snap, MetricFaultEvents), res.FaultEvents},
		{MetricInherit, counterValue(snap, MetricInherit), res.Inheritances},
	}
	for _, c := range checks {
		if c.reg != c.res {
			t.Errorf("%s = %d, Result reports %d — views diverged", c.name, c.reg, c.res)
		}
	}
	if res.Events == 0 || res.Decisions == 0 {
		t.Fatalf("degenerate run (events=%d decisions=%d) proves nothing", res.Events, res.Decisions)
	}

	aborted := 0
	for _, j := range res.Jobs {
		if j.State == task.Aborted {
			aborted++
		}
	}
	if got := sumFamily(snap, MetricAborts); got != aborted {
		t.Errorf("%s sums to %d, %d jobs aborted", MetricAborts, got, aborted)
	}
}

// TestTelemetrySafeModeCounters asserts the watchdog/safe-mode path
// exports what it does: safe-mode entries, shed jobs (also visible as
// aborts with reason "shed"), and termination-time aborts, all matching
// Result's counts and the per-job abort reasons.
func TestTelemetrySafeModeCounters(t *testing.T) {
	ts := task.Set{
		stepTask(1, 0.01, 10, 4e6),
		stepTask(2, 0.012, 20, 4e6),
		stepTask(3, 0.03, 30, 4e6),
	}
	reg := telemetry.NewRegistry()
	cfg := baseConfig(ts, baseline.NewEDF(true), 0.2)
	cfg.Faults = &faults.Plan{Seed: 5, OverrunProb: 1, OverrunFactor: 3}
	cfg.SafeModeMisses = 1
	cfg.Telemetry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SafeModeEntries == 0 || res.JobsShed == 0 {
		t.Fatalf("safe mode never fired: entries=%d shed=%d", res.SafeModeEntries, res.JobsShed)
	}
	snap := reg.Snapshot()
	if got := counterValue(snap, MetricSafeEntries); got != res.SafeModeEntries {
		t.Errorf("%s = %d, want %d", MetricSafeEntries, got, res.SafeModeEntries)
	}
	if got := counterValue(snap, MetricJobsShed); got != res.JobsShed {
		t.Errorf("%s = %d, want %d", MetricJobsShed, got, res.JobsShed)
	}
	shed, terminated := 0, 0
	for _, j := range res.Jobs {
		if j.State != task.Aborted {
			continue
		}
		switch j.AbortReason {
		case shedReason:
			shed++
		case "termination time reached":
			terminated++
		}
	}
	if got := counterValue(snap, MetricAborts, telemetry.L("reason", "shed")); got != shed {
		t.Errorf("aborts{reason=shed} = %d, %d jobs carry the shed reason", got, shed)
	}
	if got := counterValue(snap, MetricAborts, telemetry.L("reason", "termination")); got != terminated {
		t.Errorf("aborts{reason=termination} = %d, %d jobs aborted at termination", got, terminated)
	}
	if terminated == 0 {
		t.Error("overrun plan produced no termination-time aborts; test lost its teeth")
	}
}

// TestTelemetryInvariantCounter: a watchdog trip is both a structured
// InvariantError and an increment of the matching invariant series.
func TestTelemetryInvariantCounter(t *testing.T) {
	tk := stepTask(1, 0.01, 10, 1e5)
	reg := telemetry.NewRegistry()
	cfg := baseConfig(task.Set{tk}, baseline.NewEDF(true), 0.05)
	cfg.Arrivals = func(t *task.Task) uam.Generator { return violatingGen{s: t.Arrival} }
	cfg.Telemetry = reg
	_, err := Run(cfg)
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InvariantError", err)
	}
	snap := reg.Snapshot()
	if got := counterValue(snap, MetricInvariants, telemetry.L("invariant", string(ie.Invariant))); got != 1 {
		t.Fatalf("invariant_violations_total{invariant=%q} = %d, want 1", ie.Invariant, got)
	}
	if got := sumFamily(snap, MetricInvariants); got != 1 {
		t.Fatalf("invariant family sums to %d, want exactly the one violation", got)
	}
}
