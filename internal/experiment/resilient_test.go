package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/telemetry"
)

// faultyCfg is quickCfg plus a fault plan: the determinism and resume
// contracts must hold under injection too.
func faultyCfg(loads ...float64) Config {
	cfg := quickCfg(loads...)
	cfg.Seeds = []uint64{1, 2}
	cfg.Faults = &faults.Plan{Seed: 11, OverrunProb: 0.2, StickyProb: 0.2}
	return cfg
}

// TestFaultedSweepIdenticalAcrossWorkers is the acceptance determinism
// check: with a fixed fault-plan seed, the sweep output is bit-identical
// for Workers=1 and Workers=8.
func TestFaultedSweepIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []Row {
		cfg := faultyCfg(0.5, 1.5)
		cfg.Workers = workers
		rows, err := Figure2(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fault-injected sweep differs between 1 and 8 workers:\n%v\nvs\n%v", seq, par)
	}
}

// TestKilledSweepResumesIdentically is the acceptance resume check: a
// sweep killed partway through (cells past the first few fail), then
// resumed from its checkpoint, produces rows identical to an
// uninterrupted run.
func TestKilledSweepResumesIdentically(t *testing.T) {
	want, err := Figure2(faultyCfg(0.5, 1.5))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ckpt.json")
	// First pass: cells 2 and 3 "die" on every attempt — the simulated
	// kill. Cells 0 and 1 complete and are checkpointed.
	cfg := faultyCfg(0.5, 1.5)
	store, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	cfg.Workers = 1
	cfg.testCellFault = func(exp string, i, attempt int) error {
		if i >= 2 {
			return fmt.Errorf("simulated kill")
		}
		return nil
	}
	partial, err := Figure2(cfg)
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("killed sweep returned %v, want *SweepError", err)
	}
	if len(se.Cells) != 2 {
		t.Fatalf("%d failed cells, want 2: %v", len(se.Cells), se)
	}
	if partial == nil {
		t.Fatal("killed sweep returned no partial rows")
	}

	// Resume: a fresh store from the same file must skip the completed
	// cells and produce exactly the uninterrupted rows.
	cfg2 := faultyCfg(0.5, 1.5)
	store2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := store2.Cells("fig2"); n != 2 {
		t.Fatalf("checkpoint holds %d fig2 cells, want 2", n)
	}
	cfg2.Store = store2
	// The hook runs on the worker pool's goroutines.
	var recomputed atomic.Int32
	cfg2.testCellFault = func(exp string, i, attempt int) error {
		recomputed.Add(1)
		return nil
	}
	got, err := Figure2(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if n := recomputed.Load(); n != 2 {
		t.Fatalf("resume recomputed %d cells, want only the 2 missing ones", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed rows differ from uninterrupted run:\n%v\nvs\n%v", got, want)
	}
}

// TestSweepContinuesPastFailingCell: one poisoned cell must not take the
// sweep down — the other cells complete and the error carries the failing
// cell's (load, seed, scheme) coordinates.
func TestSweepContinuesPastFailingCell(t *testing.T) {
	cfg := faultyCfg(0.5, 1.5)
	cfg.Workers = 1
	ran := 0
	cfg.testCellFault = func(exp string, i, attempt int) error {
		ran++
		if i == 1 {
			return &schemeError{Scheme: "EUA*", Err: errors.New("poisoned cell")}
		}
		return nil
	}
	rows, err := Figure2(cfg)
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if ran != 4 {
		t.Fatalf("dispatched %d cells, want all 4 despite the failure", ran)
	}
	if len(rows) != 2 {
		t.Fatalf("partial rows = %d, want 2", len(rows))
	}
	if len(se.Cells) != 1 {
		t.Fatalf("failed cells = %v, want exactly one", se.Cells)
	}
	ce := se.Cells[0]
	// Cell 1 of a 2x2 (load, seed) grid is load[0]=0.5, seed[1]=2.
	if ce.Load != 0.5 || ce.Seed != 2 || ce.Scheme != "EUA*" {
		t.Fatalf("cell coordinates = load=%g seed=%d scheme=%q, want load=0.5 seed=2 scheme=EUA*", ce.Load, ce.Seed, ce.Scheme)
	}
	for _, part := range []string{"load=0.5", "seed=2", "scheme=EUA*", "poisoned cell"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("error %q missing %q", err, part)
		}
	}
}

// TestRetriesRecoverFlakyCell: a cell that fails once succeeds within its
// retry budget and the sweep reports no error.
func TestRetriesRecoverFlakyCell(t *testing.T) {
	cfg := faultyCfg(0.5)
	cfg.Workers = 1
	cfg.Retries = 1
	cfg.testCellFault = func(exp string, i, attempt int) error {
		if attempt == 0 {
			return errors.New("flaky")
		}
		return nil
	}
	if _, err := Figure2(cfg); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}

	// Without the retry budget the same flakiness is a hard failure, and
	// the report counts the single attempt.
	cfg.Retries = 0
	_, err := Figure2(cfg)
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if se.Cells[0].Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", se.Cells[0].Attempts)
	}
}

// TestTimeoutCellReported: an effectively-zero timeout times every cell
// out; each is reported with coordinates and the sweep still returns.
func TestTimeoutCellReported(t *testing.T) {
	cfg := quickCfg(0.5)
	cfg.Timeout = time.Nanosecond
	// The hook runs after the per-cell timer is armed; sleeping here
	// guarantees the timeout has fired before the cell starts, even on a
	// single-CPU machine where the watcher goroutine would otherwise race
	// a fast cell.
	cfg.testCellFault = func(exp string, i, attempt int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}
	rows, err := Figure2(cfg)
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	if rows == nil {
		t.Fatal("timed-out sweep returned nil rows")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("error %q does not mention the timeout", err)
	}
}

// TestInterruptedSweep: a cancelled Context stops the sweep and marks
// the error as interrupted. Under a per-cell timeout that has not
// expired, the cells it stops are not reported as timed out.
func TestInterruptedSweep(t *testing.T) {
	for _, tc := range []struct {
		name    string
		horizon float64       // 0 keeps quickCfg's
		timeout time.Duration // Config.Timeout
		after   time.Duration // cancel this far into the sweep; 0 = before it
	}{
		{name: "cancelled before the sweep"},
		{name: "cancelled mid-sweep under a timeout", horizon: 100, timeout: time.Minute, after: 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(0.5, 1.5)
			if tc.horizon > 0 {
				cfg.Horizon = tc.horizon
			}
			cfg.Timeout = tc.timeout
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.after == 0 {
				cancel()
			} else {
				time.AfterFunc(tc.after, cancel)
			}
			cfg.Context = ctx
			_, err := Figure2(cfg)
			var se *SweepError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *SweepError", err)
			}
			if !se.Interrupted {
				t.Fatalf("SweepError not marked interrupted: %v", se)
			}
			for _, ce := range se.Cells {
				if strings.Contains(ce.Error(), "timed out") {
					t.Fatalf("interrupted cell reported as a timeout: %v", ce)
				}
			}
		})
	}
}

// failWriter fails every write with errWrite.
type failWriter struct{}

var errWrite = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestRunJoinsWriteError: a table write that fails does not hide the
// sweep's own error (an interrupted sweep stays marked interrupted), and
// the -json document is still returned.
func TestRunJoinsWriteError(t *testing.T) {
	cfg := quickCfg(0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Context = ctx
	x, _ := Lookup("fig2")
	doc, err := x.Run(cfg, failWriter{}, nil)
	var se *SweepError
	if !errors.As(err, &se) || !se.Interrupted {
		t.Fatalf("err = %v, want an interrupted *SweepError", err)
	}
	if !errors.Is(err, errWrite) {
		t.Fatalf("err = %v, want the write error joined in", err)
	}
	if doc == nil || doc.Experiment != "fig2" {
		t.Fatalf("doc = %+v, want the fig2 -json document", doc)
	}
}

// TestCheckpointFingerprintInvalidation: cells checkpointed under one
// parameterization must not be reused under another.
func TestCheckpointFingerprintInvalidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cfg := quickCfg(0.5)
	store, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	if _, err := Figure2(cfg); err != nil {
		t.Fatal(err)
	}

	// Same file, different horizon: every cell must recompute.
	cfg2 := quickCfg(0.5)
	cfg2.Horizon = 0.4
	store2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg2.Store = store2
	var recomputed atomic.Int32
	cfg2.testCellFault = func(exp string, i, attempt int) error { recomputed.Add(1); return nil }
	if _, err := Figure2(cfg2); err != nil {
		t.Fatal(err)
	}
	if n := recomputed.Load(); n != 1 {
		t.Fatalf("fingerprint change recomputed %d cells, want 1", n)
	}
}

// TestOpenCheckpointCorrupt: a torn or non-JSON checkpoint surfaces as an
// error on open, never a panic or silent reuse.
func TestOpenCheckpointCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	for _, data := range []string{"{", `{"version": 99}`, `{"version":1,"experiments":{"x":null}}`} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, true); err == nil {
			t.Fatalf("corrupt checkpoint %q accepted", data)
		}
	}
	// Missing file with -resume is not an error: there is nothing to
	// resume from, the sweep starts fresh.
	if _, err := OpenCheckpoint(filepath.Join(t.TempDir(), "absent.json"), true); err != nil {
		t.Fatalf("missing checkpoint rejected: %v", err)
	}
}

// TestFaultSweepDegradesGracefully: higher fault intensity must not error
// out and must actually inject faults.
func TestFaultSweepDegradesGracefully(t *testing.T) {
	cfg := quickCfg(1.0)
	rows, err := FaultSweep(cfg, []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].FaultEvents != 0 {
		t.Fatalf("intensity 0 injected %g faults", rows[0].FaultEvents)
	}
	if rows[1].FaultEvents == 0 {
		t.Fatal("intensity 0.3 injected no faults")
	}
	if rows[0].Utility < 0.999 || rows[0].Utility > 1.001 {
		t.Fatalf("intensity 0 utility = %g, want 1 (identical run)", rows[0].Utility)
	}
	if _, err := FaultSweep(cfg, []float64{-0.1}); err == nil {
		t.Fatal("negative intensity accepted")
	}
}

// TestFaultSweepCoresAndPlan: the fault sweep runs on Config.Cores cores
// (worst-fit packing puts tasks on both), and since each cell sets its own fault plans, a Config.Faults plan
// enters neither its runs nor its fingerprint.
func TestFaultSweepCoresAndPlan(t *testing.T) {
	cfg := quickCfg(1.0)
	cfg.Horizon = 0.2
	cfg.Cores, cfg.Partition = 2, "wf"
	cfg.Telemetry = telemetry.NewRegistry()
	if _, err := FaultSweep(cfg, []float64{0.2}); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Telemetry.Snapshot()
	if m := snap.Find(engine.MetricCoreDispatch, telemetry.L("core", "1")); m == nil || m.Value == 0 {
		t.Fatalf("a 2-core fault sweep dispatched nothing on core 1: %v", m)
	}

	plain := faultSweep(quickCfg(1.0), nil).plan().Fingerprint()
	withPlan := quickCfg(1.0)
	withPlan.Faults = &faults.Plan{Seed: 7, OverrunProb: 0.1}
	if got := faultSweep(withPlan, nil).plan().Fingerprint(); got != plain {
		t.Fatalf("a -faults plan moved the fault sweep's fingerprint:\n%s\nvs\n%s", got, plain)
	}
}
