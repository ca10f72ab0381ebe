package experiment

// Cell-level sharding. A sweep decomposes into independent cells, each a
// pure function of its coordinates, and the per-cell checkpoint JSON is
// the canonical serialization of one completed cell. That makes the
// checkpoint format the natural shard handoff unit for distributed
// sweeps: a coordinator hands cell indices to remote workers, workers
// return the same raw JSON a local checkpoint would have stored, the
// coordinator saves it into the sweep's CellStore, and the final run of
// the sweep then finds every cell already "checkpointed" and reduces to
// the ordered merge — the exact code path a single-node resume takes, so
// the merged output is byte-identical to a single-node run regardless of
// node count, failures, or completion order.

import (
	"encoding/json"
	"fmt"
	"sync"
)

// CellStore persists completed sweep cells keyed by (experiment,
// fingerprint, cell index). CheckpointStore is the durable file-backed
// implementation; MemStore the in-memory one. Implementations must be
// safe for concurrent use: the parallel runner and a cluster
// coordinator's commit handlers save cells concurrently.
type CellStore interface {
	// Lookup returns the stored raw result of cell i, if present under a
	// matching fingerprint.
	Lookup(exp, fingerprint string, i int) (json.RawMessage, bool)
	// Save records cell i's raw result. A fingerprint change discards the
	// experiment's stale cells.
	Save(exp, fingerprint string, i int, raw json.RawMessage) error
}

// MemStore is an in-memory CellStore for sweeps that need cell-level
// bookkeeping without durability (coordinators without a data directory,
// tests).
type MemStore struct {
	mu    sync.Mutex
	exps  map[string]*memExp
	saves int
}

type memExp struct {
	fingerprint string
	cells       map[int]json.RawMessage
}

// NewMemStore returns an empty in-memory cell store.
func NewMemStore() *MemStore {
	return &MemStore{exps: make(map[string]*memExp)}
}

// Lookup implements CellStore.
func (s *MemStore) Lookup(exp, fingerprint string, i int) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.exps[exp]
	if e == nil || e.fingerprint != fingerprint {
		return nil, false
	}
	raw, ok := e.cells[i]
	return raw, ok
}

// Save implements CellStore.
func (s *MemStore) Save(exp, fingerprint string, i int, raw json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.exps[exp]
	if e == nil || e.fingerprint != fingerprint {
		e = &memExp{fingerprint: fingerprint, cells: make(map[int]json.RawMessage)}
		s.exps[exp] = e
	}
	e.cells[i] = append(json.RawMessage(nil), raw...)
	s.saves++
	return nil
}

// Saves returns how many cells have been saved (test instrumentation).
func (s *MemStore) Saves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves
}

// CellPlan addresses one sweep's cells for distributed execution: the
// cell count, the sweep fingerprint that fences stale results, the
// reproduction coordinates of each cell, and the cell function itself,
// which returns the raw JSON unit a checkpoint (or a remote commit)
// stores. Build one with PlanCells.
type CellPlan struct {
	experiment  string
	fingerprint string
	g           unitGrid
	coords      func(c []int) Coords
	run         func(i int, interrupt <-chan struct{}) (json.RawMessage, error)
}

// Experiment returns the sweep's experiment name ("fig2", ...).
func (p *CellPlan) Experiment() string { return p.experiment }

// Fingerprint identifies the sweep's full parameterization. A cell result
// is only valid under a matching fingerprint: coordinator and worker both
// derive it independently from the sweep spec, so a version- or
// config-skewed worker can never contribute rows to the wrong sweep.
func (p *CellPlan) Fingerprint() string { return p.fingerprint }

// N returns the number of cells.
func (p *CellPlan) N() int { return p.g.size() }

// Coords returns the reproduction coordinates of cell i.
func (p *CellPlan) Coords(i int) Coords { return p.coords(p.g.coords(i)) }

// Run executes cell i and returns its raw JSON unit — the same bytes a
// local checkpoint of that cell would store.
func (p *CellPlan) Run(i int, interrupt <-chan struct{}) (json.RawMessage, error) {
	if i < 0 || i >= p.g.size() {
		return nil, fmt.Errorf("experiment: cell %d out of range [0,%d)", i, p.g.size())
	}
	return p.run(i, interrupt)
}
