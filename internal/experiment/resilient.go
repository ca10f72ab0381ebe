package experiment

// The resilient cell runner. Every sweep decomposes into independent
// simulation cells; runCells executes them with the robustness guarantees
// the production runner needs:
//
//   - Per-cell timeouts: a cell that exceeds Config.Timeout is stopped
//     cooperatively (the engine polls its attempt context's Done channel)
//     and reported, without taking the sweep down.
//   - Bounded retries: a failing cell is retried up to Config.Retries
//     times before being reported.
//   - Cell-addressable errors: every failure carries the (load, seed,
//     scheme) coordinates that reproduce it.
//   - Run-through semantics: one poisoned cell no longer aborts the
//     sweep; the remaining cells complete and the partial result is
//     returned alongside a *SweepError.
//   - Atomic JSON checkpoints: with a CheckpointStore configured, every
//     completed cell is persisted (write-temp-then-rename) so a killed
//     sweep resumes without recomputing, bit-identically.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/storage"
)

// Coords addresses one sweep cell in reproduction terms.
type Coords struct {
	Load  float64
	Seed  uint64
	Extra string // sweep-specific third coordinate, e.g. "a=2" or "frac=0.4"
}

// CellError reports one failed sweep cell with the coordinates needed to
// reproduce it (`euasim -loads <load> -seeds ...` with the same scheme).
type CellError struct {
	Experiment string
	Index      int // flat cell index in sweep iteration order
	Load       float64
	Seed       uint64
	Scheme     string // scheme running when the cell failed ("" if none)
	Extra      string
	Attempts   int
	Err        error
}

func (e *CellError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s cell %d (load=%g seed=%d", e.Experiment, e.Index, e.Load, e.Seed)
	if e.Scheme != "" {
		fmt.Fprintf(&b, " scheme=%s", e.Scheme)
	}
	if e.Extra != "" {
		fmt.Fprintf(&b, " %s", e.Extra)
	}
	fmt.Fprintf(&b, "): %v", e.Err)
	if e.Attempts > 1 {
		fmt.Fprintf(&b, " (after %d attempts)", e.Attempts)
	}
	return b.String()
}

func (e *CellError) Unwrap() error { return e.Err }

// SweepError aggregates the failed cells of one sweep. The sweep's other
// cells completed and their merged partial result is returned alongside.
type SweepError struct {
	Experiment  string
	Cells       []*CellError
	Interrupted bool // the sweep was stopped by Config.Context
}

func (e *SweepError) Error() string {
	if e.Interrupted && len(e.Cells) == 0 {
		return fmt.Sprintf("%s: sweep interrupted", e.Experiment)
	}
	msgs := make([]string, 0, len(e.Cells)+1)
	if e.Interrupted {
		msgs = append(msgs, "sweep interrupted")
	}
	for _, c := range e.Cells {
		msgs = append(msgs, c.Error())
	}
	return fmt.Sprintf("%s: %d cell(s) failed: %s", e.Experiment, len(e.Cells), strings.Join(msgs, "; "))
}

// schemeError attributes an error inside a cell to the scheme that was
// running; runCells lifts the attribution into the CellError.
type schemeError struct {
	Scheme string
	Err    error
}

func (e *schemeError) Error() string { return fmt.Sprintf("scheme %s: %v", e.Scheme, e.Err) }
func (e *schemeError) Unwrap() error { return e.Err }

// errSweepInterrupted stops the dispatch of not-yet-started cells once
// Config.Context is done; it is internal to runCells.
var errSweepInterrupted = errors.New("experiment: sweep interrupted")

// runCells executes every not-yet-checkpointed cell of the grid through
// run, applying timeouts, retries and checkpointing. It returns the cell
// results, a per-cell completion mask, and nil or a *SweepError listing
// every failed cell (any other error is fatal: checkpoint I/O failure or
// a worker panic). Results for completed cells are valid even when an
// error is returned — callers merge what finished and pass the error up.
func runCells[U any](cfg Config, exp, params string, g unitGrid,
	coords func(c []int) Coords,
	run func(i int, interrupt <-chan struct{}) (U, error)) ([]U, []bool, error) {

	n := g.size()
	units := make([]U, n)
	done := make([]bool, n)
	fp := fingerprint(cfg, exp, params, g)
	if cfg.Store != nil {
		for i := 0; i < n; i++ {
			raw, ok := cfg.Store.Lookup(exp, fp, i)
			if !ok {
				continue
			}
			if err := json.Unmarshal(raw, &units[i]); err != nil {
				return nil, nil, fmt.Errorf("experiment: checkpoint cell %s/%d corrupt: %w", exp, i, err)
			}
			done[i] = true
		}
	}

	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		mu          sync.Mutex
		cellErrs    []*CellError
		interrupted bool
	)
	poolErr := forEach(resolveWorkers(cfg.Workers, n), n, func(i int) error {
		if done[i] {
			return nil
		}
		var lastErr error
		attempts := 0
		for attempt := 0; attempt <= cfg.Retries; attempt++ {
			if ctx.Err() != nil {
				if lastErr == nil {
					lastErr = engine.ErrInterrupted
				}
				break
			}
			attempts++
			cellCtx, cancel := ctx, func() {}
			if cfg.Timeout > 0 {
				cellCtx, cancel = context.WithTimeout(ctx, cfg.Timeout)
			}
			if cfg.testCellFault != nil {
				if err := cfg.testCellFault(exp, i, attempt); err != nil {
					cancel()
					lastErr = err
					continue
				}
			}
			u, err := run(i, cellCtx.Done())
			cancel()
			if err == nil {
				units[i] = u
				done[i] = true
				if cfg.Store != nil {
					raw, err := json.Marshal(u)
					if err != nil {
						return fmt.Errorf("experiment: marshal cell %s/%d: %w", exp, i, err)
					}
					if err := cfg.Store.Save(exp, fp, i, raw); err != nil {
						return fmt.Errorf("experiment: checkpoint cell %s/%d: %w", exp, i, err)
					}
				}
				return nil
			}
			lastErr = err
			if errors.Is(err, engine.ErrInterrupted) {
				if ctx.Err() != nil {
					break // global stop, not a per-cell timeout
				}
				lastErr = fmt.Errorf("cell timed out after %v: %w", cfg.Timeout, err)
			}
		}
		c := coords(g.coords(i))
		ce := &CellError{
			Experiment: exp, Index: i,
			Load: c.Load, Seed: c.Seed, Extra: c.Extra,
			Attempts: attempts, Err: lastErr,
		}
		var se *schemeError
		if errors.As(lastErr, &se) {
			ce.Scheme = se.Scheme
			if lastErr == error(se) {
				// The scheme wrapper is outermost: unwrap it, the scheme is
				// already in the coordinates. Outer annotations (e.g. the
				// timeout note) are kept intact otherwise.
				ce.Err = se.Err
			}
		}
		mu.Lock()
		cellErrs = append(cellErrs, ce)
		mu.Unlock()
		if ctx.Err() != nil {
			mu.Lock()
			interrupted = true
			mu.Unlock()
			return errSweepInterrupted // stop dispatching further cells
		}
		return nil // run-through: the remaining cells still execute
	})
	if poolErr != nil && !errors.Is(poolErr, errSweepInterrupted) {
		return units, done, poolErr
	}
	if len(cellErrs) == 0 && !interrupted {
		return units, done, nil
	}
	sort.Slice(cellErrs, func(a, b int) bool { return cellErrs[a].Index < cellErrs[b].Index })
	return units, done, &SweepError{Experiment: exp, Cells: cellErrs, Interrupted: interrupted}
}

// fingerprint identifies a sweep's full parameterization; a checkpoint
// cell is only reused when its experiment's fingerprint matches, so
// changed loads, seeds, fault plans or sweep-specific parameters can
// never resurrect stale results.
func fingerprint(cfg Config, exp, params string, g unitGrid) string {
	cfg = cfg.withDefaults()
	fp := fmt.Sprintf("v1|%s|%s|seeds=%v|dims=%v", exp, Describe(cfg), cfg.Seeds, g.dims)
	if params != "" {
		fp += "|" + params
	}
	return fp
}

// checkpointVersion guards the on-disk format. Version 2 added the CRC32
// over the experiments payload; version-1 files (no checksum) are treated
// as corrupt and resumed from scratch.
const checkpointVersion = 2

// ErrCheckpointCorrupt reports a checkpoint file that exists but cannot
// be trusted: truncated, bit-flipped (CRC mismatch), not valid JSON, or
// structurally invalid. Callers that want resume-if-possible semantics
// match it with errors.Is and fall back to a fresh (non-resuming) store —
// euasim and euad both do, with a diagnostic — so a damaged checkpoint
// costs recomputation, never a panic or a silent partial resume.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// checkpointDoc is the in-memory checkpoint state: per experiment, the
// sweep fingerprint and the JSON result of every completed cell.
type checkpointDoc struct {
	Version     int                       `json:"version"`
	Experiments map[string]*checkpointExp `json:"experiments"`
}

type checkpointExp struct {
	Fingerprint string                     `json:"fingerprint"`
	Cells       map[string]json.RawMessage `json:"cells"`
}

// checkpointWire is the on-disk framing: the experiments payload is kept
// as raw bytes so the CRC is computed over exactly what the file stores.
// The document is written compact (no re-indentation), which makes the
// decoded RawMessage byte-identical to what encodeCheckpoint hashed.
type checkpointWire struct {
	Version     int             `json:"version"`
	CRC         uint32          `json:"crc"`
	Experiments json.RawMessage `json:"experiments"`
}

// encodeCheckpoint serializes a checkpoint document with its integrity
// checksum: CRC32-C over the marshaled experiments payload.
func encodeCheckpoint(doc *checkpointDoc) ([]byte, error) {
	payload, err := json.Marshal(doc.Experiments)
	if err != nil {
		return nil, err
	}
	return json.Marshal(checkpointWire{
		Version:     checkpointVersion,
		CRC:         storage.Checksum(payload),
		Experiments: payload,
	})
}

// decodeCheckpoint parses and validates a checkpoint document. It is the
// fuzzed entry point: arbitrary bytes must produce an error (wrapping
// ErrCheckpointCorrupt), never a panic or a structurally unusable
// document. A truncated file fails the JSON parse; a bit-flipped one
// fails either the parse or the CRC check.
func decodeCheckpoint(data []byte) (*checkpointDoc, error) {
	var wire checkpointWire
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("experiment: %w: not valid JSON: %v", ErrCheckpointCorrupt, err)
	}
	if wire.Version != checkpointVersion {
		return nil, fmt.Errorf("experiment: %w: version %d, want %d", ErrCheckpointCorrupt, wire.Version, checkpointVersion)
	}
	if len(wire.Experiments) == 0 {
		return nil, fmt.Errorf("experiment: %w: missing experiments payload", ErrCheckpointCorrupt)
	}
	if sum := storage.Checksum(wire.Experiments); sum != wire.CRC {
		return nil, fmt.Errorf("experiment: %w: CRC mismatch (file %08x, payload %08x)", ErrCheckpointCorrupt, wire.CRC, sum)
	}
	doc := checkpointDoc{Version: wire.Version}
	if err := json.Unmarshal(wire.Experiments, &doc.Experiments); err != nil {
		return nil, fmt.Errorf("experiment: %w: experiments payload: %v", ErrCheckpointCorrupt, err)
	}
	if doc.Experiments == nil {
		doc.Experiments = map[string]*checkpointExp{}
	}
	for name, e := range doc.Experiments {
		if e == nil {
			return nil, fmt.Errorf("experiment: %w: experiment %q is null", ErrCheckpointCorrupt, name)
		}
		if e.Cells == nil {
			e.Cells = map[string]json.RawMessage{}
		}
		for key := range e.Cells {
			if i, err := strconv.Atoi(key); err != nil || i < 0 {
				return nil, fmt.Errorf("experiment: %w: experiment %q has bad cell key %q", ErrCheckpointCorrupt, name, key)
			}
		}
	}
	return &doc, nil
}

// CheckpointStore persists completed sweep cells to a JSON file with
// atomic write-temp-then-rename updates, so a checkpoint read after a
// kill at any instant is either the previous or the next consistent
// state, never a torn write.
type CheckpointStore struct {
	mu   sync.Mutex
	fs   storage.FS
	path string
	doc  *checkpointDoc
}

// OpenCheckpoint opens (or initializes) the checkpoint at path on the
// real filesystem. With resume set, an existing file is loaded and its
// completed cells are reused; otherwise the store starts empty and the
// first save overwrites any stale file.
func OpenCheckpoint(path string, resume bool) (*CheckpointStore, error) {
	return OpenCheckpointFS(storage.OS(), path, resume)
}

// OpenCheckpointFS is OpenCheckpoint over an injectable filesystem, so
// chaos suites can subject checkpoint persistence to the same storage
// fault plans as the journal.
func OpenCheckpointFS(fs storage.FS, path string, resume bool) (*CheckpointStore, error) {
	s := &CheckpointStore{
		fs:   fs,
		path: path,
		doc:  &checkpointDoc{Version: checkpointVersion, Experiments: map[string]*checkpointExp{}},
	}
	if !resume {
		return s, nil
	}
	data, err := fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil // nothing to resume from: start fresh
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: read checkpoint: %w", err)
	}
	doc, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	s.doc = doc
	return s, nil
}

// Path returns the checkpoint file path.
func (s *CheckpointStore) Path() string { return s.path }

// Cells returns how many completed cells the store currently holds for
// the experiment (any fingerprint).
func (s *CheckpointStore) Cells(exp string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.doc.Experiments[exp]; ok {
		return len(e.Cells)
	}
	return 0
}

// Lookup returns the checkpointed result of cell i, if present under a
// matching fingerprint.
func (s *CheckpointStore) Lookup(exp, fingerprint string, i int) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.doc.Experiments[exp]
	if !ok || e.Fingerprint != fingerprint {
		return nil, false
	}
	raw, ok := e.Cells[strconv.Itoa(i)]
	return raw, ok
}

// Save records cell i's result and durably replaces the checkpoint file
// (storage.WriteFileAtomic). A fingerprint change discards the
// experiment's stale cells.
func (s *CheckpointStore) Save(exp, fingerprint string, i int, raw json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.doc.Experiments[exp]
	if !ok || e.Fingerprint != fingerprint {
		e = &checkpointExp{Fingerprint: fingerprint, Cells: map[string]json.RawMessage{}}
		s.doc.Experiments[exp] = e
	}
	e.Cells[strconv.Itoa(i)] = raw
	data, err := encodeCheckpoint(s.doc)
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(s.fs, s.path, data)
}
