package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// shardCfg is a small but non-trivial sweep configuration, with faults
// enabled so the distributed path is exercised on the degraded regime the
// chaos soak uses.
func shardCfg(t *testing.T) Config {
	t.Helper()
	return Config{
		Loads:   []float64{0.4, 1.0, 1.6},
		Seeds:   []uint64{1, 2},
		Horizon: 0.3,
	}
}

// TestPlanCellsMatchesLocalRun: for every registered sweep, computing
// every cell through the cell plan (the distributed execution surface)
// must give the raw units a local run stores under the same fingerprint,
// and running the sweep against the planned cells must reproduce the
// local run's table and -json document without recomputing a cell — the
// property that makes a multi-node merge byte-identical to a single-node
// one.
func TestPlanCellsMatchesLocalRun(t *testing.T) {
	for _, e := range Experiments() {
		if !e.Sweep() {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			cfg := shardCfg(t)

			plan, err := PlanCells(cfg, e.Name)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Experiment() != e.Name {
				t.Fatalf("plan experiment %q, want %q", plan.Experiment(), e.Name)
			}
			if plan.N() <= 0 {
				t.Fatalf("plan has %d cells", plan.N())
			}
			planned := NewMemStore()
			for i := 0; i < plan.N(); i++ {
				raw, err := plan.Run(i, nil)
				if err != nil {
					t.Fatalf("cell %d (%+v): %v", i, plan.Coords(i), err)
				}
				if err := planned.Save(plan.Experiment(), plan.Fingerprint(), i, raw); err != nil {
					t.Fatal(err)
				}
			}

			run := func(cfg Config) (string, *JSONDocument) {
				t.Helper()
				var text bytes.Buffer
				doc, err := e.Run(cfg, &text, nil)
				if err != nil {
					t.Fatal(err)
				}
				return text.String(), doc
			}
			local := cfg
			localStore := NewMemStore()
			local.Store = localStore
			wantText, wantDoc := run(local)
			for i := 0; i < plan.N(); i++ {
				want, ok := localStore.Lookup(e.Name, plan.Fingerprint(), i)
				if !ok {
					t.Fatalf("local run stored no cell %d under the plan's fingerprint", i)
				}
				got, _ := planned.Lookup(e.Name, plan.Fingerprint(), i)
				if !bytes.Equal(got, want) {
					t.Fatalf("cell %d: planned unit %s, local unit %s", i, got, want)
				}
			}

			merged := cfg
			merged.Store = planned
			gotText, gotDoc := run(merged)
			if gotText != wantText || !reflect.DeepEqual(gotDoc, wantDoc) {
				t.Fatalf("merge from planned cells differs from local run:\nlocal:  %s%+v\nmerged: %s%+v", wantText, wantDoc, gotText, gotDoc)
			}
			// The merge run must not have recomputed (and re-saved) any cell.
			if planned.Saves() != plan.N() {
				t.Fatalf("merge run recomputed cells: %d saves for %d cells", planned.Saves(), plan.N())
			}
		})
	}
}

// TestPlanCellsFingerprintFencesStaleCells: a unit stored under a
// different fingerprint (changed loads) must not be resurrected.
func TestPlanCellsFingerprintFencesStaleCells(t *testing.T) {
	cfg := shardCfg(t)
	plan, err := PlanCells(cfg, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if err := store.Save(plan.Experiment(), plan.Fingerprint(), 0, json.RawMessage(`{"utility":{},"energy":{}}`)); err != nil {
		t.Fatal(err)
	}
	changed := cfg
	changed.Loads = []float64{0.2}
	plan2, err := PlanCells(changed, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Fingerprint() == plan.Fingerprint() {
		t.Fatal("changed loads did not change the fingerprint")
	}
	if _, ok := store.Lookup(plan2.Experiment(), plan2.Fingerprint(), 0); ok {
		t.Fatal("stale cell visible under a different fingerprint")
	}
}

// TestPlanCellsRange: out-of-range cells are rejected, never a panic,
// and experiments without cells have no plan.
func TestPlanCellsRange(t *testing.T) {
	plan, err := PlanCells(shardCfg(t), "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(-1, nil); err == nil {
		t.Fatal("negative cell index accepted")
	}
	if _, err := plan.Run(plan.N(), nil); err == nil {
		t.Fatal("past-the-end cell index accepted")
	}
	for _, exp := range []string{"table1", "nosuch"} {
		if _, err := PlanCells(shardCfg(t), exp); err == nil {
			t.Fatalf("%s: cell plan built", exp)
		}
	}
}
