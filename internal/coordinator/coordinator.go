// Package coordinator shards sweeps across euad worker daemons.
//
// The unit of distribution is the sweep cell, and the unit of handoff is
// the per-cell checkpoint JSON: a worker computes a cell and commits the
// exact bytes a local checkpoint would have stored, the coordinator
// saves them into the sweep's cell store, and the sweep then runs
// locally against that store — finding every remote cell already
// "checkpointed" and reducing to the deterministic ordered merge, the
// same code path a single-node resume takes. That is what makes the
// merged output byte-identical to a single-node run regardless of node
// count, failures, or completion order.
//
// Fault tolerance is lease-based. Each granted cell carries an epoch — a
// globally unique, monotonically increasing fencing token. A commit is
// accepted only while the cell is leased under exactly that epoch; any
// revocation (TTL expiry after missed heartbeats, theft from a suspect
// straggler, worker death) re-pends the cell and invalidates the epoch,
// so a zombie worker resuming after a partition commits into a fence and
// its result is discarded. Epochs stay monotonic across coordinator
// restarts via the persisted lease manifest. Every granted lease
// resolves exactly once: granted = completed + expired + stolen.
package coordinator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/storage"
	"github.com/euastar/euastar/internal/telemetry"
)

// ErrUnknownWorker reports a heartbeat, lease, or commit from a worker
// that is not registered (never was, or was declared dead). The worker
// must re-register; its in-flight leases are already revoked.
var ErrUnknownWorker = errors.New("coordinator: unknown worker")

// epochReserve is how many epochs a manifest save reserves ahead of the
// watermark, so lease grants fsync the manifest once per reserve block
// instead of once per lease. Restarting from the reserved (higher)
// watermark only skips epochs, which preserves monotonicity.
const epochReserve = 64

// Config tunes a Coordinator. The zero value is usable: 10s leases,
// heartbeats at TTL/4, theft candidacy at TTL/2 of silence, death at
// 2×TTL, three failures per cell, no manifest persistence.
type Config struct {
	// LeaseTTL is how long a granted lease stays valid without a
	// heartbeat renewing it.
	LeaseTTL time.Duration
	// Heartbeat is the interval workers are told to beat at.
	Heartbeat time.Duration
	// SuspectAfter is how long a worker may go silent before its leases
	// become theft candidates for idle workers.
	SuspectAfter time.Duration
	// DeadAfter is how long a worker may go silent before it is
	// deregistered and all its leases revoked.
	DeadAfter time.Duration
	// MaxCellFailures bounds how many failure commits a cell absorbs
	// before it is abandoned (left for the local fallback to compute).
	MaxCellFailures int
	// ManifestPath, when set, persists the epoch watermark (see
	// manifest.go). Empty disables persistence.
	ManifestPath string
	// FS is the filesystem the manifest is read and written through
	// (nil = the real filesystem).
	FS storage.FS
	// Registry receives the euad_coord_* series (nil = no metrics).
	Registry *telemetry.Registry
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	// now overrides the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 4
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = c.LeaseTTL / 2
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2 * c.LeaseTTL
	}
	if c.MaxCellFailures <= 0 {
		c.MaxCellFailures = 3
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.FS == nil {
		c.FS = storage.OS()
	}
	return c
}

type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
	cellAbandoned
)

type cell struct {
	state    cellState
	epoch    uint64
	worker   string
	expiry   time.Time
	failures int
}

type sweepRun struct {
	id          string
	spec        SweepSpec
	plan        *experiment.CellPlan
	store       experiment.CellStore
	cells       []cell
	remaining   int // cells neither done nor abandoned
	outstanding int // cells currently leased
	done        chan struct{}
}

type worker struct {
	id       string
	lastBeat time.Time
	leases   map[LeaseRef]struct{}
	// cancel queues revocations for delivery on the next heartbeat, so
	// the worker can abandon computations whose commit would be fenced.
	cancel []LeaseRef
}

// Coordinator shards sweeps across registered workers. All methods are
// safe for concurrent use.
type Coordinator struct {
	cfg Config
	ins *instruments

	mu       sync.Mutex
	workers  map[string]*worker
	ring     ring
	sweeps   map[string]*sweepRun
	order    []string // active sweep IDs, registration order
	epoch    uint64   // highest epoch granted
	reserved uint64   // highest epoch covered by the persisted manifest
}

// New builds a coordinator. A corrupt lease manifest is logged and
// discarded — determinism survives an epoch collision because cells are
// pure functions fenced by the sweep fingerprint, so availability wins —
// but a readable manifest guarantees the stronger exactly-once lease
// accounting across restarts.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		ins:     newInstruments(cfg.Registry),
		workers: make(map[string]*worker),
		sweeps:  make(map[string]*sweepRun),
	}
	if cfg.ManifestPath != "" {
		m, err := LoadManifestFS(cfg.FS, cfg.ManifestPath)
		if err != nil {
			c.logf("coordinator: %v; discarding manifest, epoch fencing restarts from zero", err)
		}
		c.epoch = m.MaxEpoch
		c.reserved = m.MaxEpoch
	}
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Register adds (or refreshes) a worker. Idempotent.
func (c *Coordinator) Register(workerID string) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerID]
	if w == nil {
		w = &worker{id: workerID, leases: make(map[LeaseRef]struct{})}
		c.workers[workerID] = w
		c.ring.add(workerID)
		c.ins.workersLive.Add(1)
		c.logf("coordinator: worker %s registered", workerID)
	}
	w.lastBeat = c.cfg.now()
	c.ins.workersRegistered.Inc()
	return RegisterResponse{
		LeaseTTLSeconds:  c.cfg.LeaseTTL.Seconds(),
		HeartbeatSeconds: c.cfg.Heartbeat.Seconds(),
	}
}

// Heartbeat renews a worker's liveness and the expiry of every lease it
// holds, and delivers pending revocations.
func (c *Coordinator) Heartbeat(workerID string) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)
	w := c.workers[workerID]
	if w == nil {
		return HeartbeatResponse{}, ErrUnknownWorker
	}
	w.lastBeat = now
	for ref := range w.leases {
		sw := c.sweeps[ref.Sweep]
		if sw == nil {
			continue
		}
		cl := &sw.cells[ref.Cell]
		if cl.state == cellLeased && cl.epoch == ref.Epoch && cl.worker == workerID {
			cl.expiry = now.Add(c.cfg.LeaseTTL)
		}
	}
	resp := HeartbeatResponse{Cancel: w.cancel}
	w.cancel = nil
	return resp, nil
}

// Lease grants one cell to the worker: a pending cell the hash ring
// assigns to it if any, else any pending cell (preference never blocks
// progress), else — when every cell is out on lease — a cell stolen
// from a suspect straggler, so the sweep's tail is not hostage to its
// slowest worker. No grantable cell returns None with a retry hint.
func (c *Coordinator) Lease(workerID string) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)
	w := c.workers[workerID]
	if w == nil {
		return LeaseResponse{}, ErrUnknownWorker
	}
	w.lastBeat = now

	var fallbackSweep *sweepRun
	fallbackCell := -1
	for _, id := range c.order {
		sw := c.sweeps[id]
		for i := range sw.cells {
			if sw.cells[i].state != cellPending {
				continue
			}
			if c.ring.owner(c.cellKey(sw, i)) == workerID {
				return c.grantLocked(sw, i, w, now), nil
			}
			if fallbackCell < 0 {
				fallbackSweep, fallbackCell = sw, i
			}
		}
	}
	if fallbackCell >= 0 {
		return c.grantLocked(fallbackSweep, fallbackCell, w, now), nil
	}

	// Nothing pending: steal from a straggler that has gone quiet.
	for _, id := range c.order {
		sw := c.sweeps[id]
		for i := range sw.cells {
			cl := &sw.cells[i]
			if cl.state != cellLeased || cl.worker == workerID {
				continue
			}
			holder := c.workers[cl.worker]
			if holder == nil || now.Sub(holder.lastBeat) > c.cfg.SuspectAfter {
				c.revokeLocked(sw, i, c.ins.stolen)
				c.logf("coordinator: stole sweep %s cell %d from %s for %s", sw.id, i, holderID(holder, cl.worker), workerID)
				return c.grantLocked(sw, i, w, now), nil
			}
		}
	}
	return LeaseResponse{None: true, RetryAfterSeconds: c.cfg.Heartbeat.Seconds()}, nil
}

func holderID(w *worker, fallback string) string {
	if w != nil {
		return w.id
	}
	return fallback
}

// cellKey is the consistent-hash key of one cell: the sweep fingerprint
// plus the cell's index and seed coordinate, so the preferred assignment
// is stable across coordinator restarts and resubmissions of the same
// sweep.
func (c *Coordinator) cellKey(sw *sweepRun, i int) string {
	return fmt.Sprintf("%s|cell=%d|seed=%d", sw.plan.Fingerprint(), i, sw.plan.Coords(i).Seed)
}

// grantLocked leases cell i of sw to w under a fresh epoch.
func (c *Coordinator) grantLocked(sw *sweepRun, i int, w *worker, now time.Time) LeaseResponse {
	c.epoch++
	if c.epoch > c.reserved {
		c.persistLocked()
	}
	cl := &sw.cells[i]
	cl.state = cellLeased
	cl.epoch = c.epoch
	cl.worker = w.id
	cl.expiry = now.Add(c.cfg.LeaseTTL)
	sw.outstanding++
	w.leases[LeaseRef{Sweep: sw.id, Cell: i, Epoch: c.epoch}] = struct{}{}
	c.ins.granted.Inc()
	return LeaseResponse{
		Sweep:       sw.id,
		Spec:        sw.spec,
		Fingerprint: sw.plan.Fingerprint(),
		Cell:        i,
		Epoch:       c.epoch,
		TTLSeconds:  c.cfg.LeaseTTL.Seconds(),
	}
}

// revokeLocked resolves cell i's lease (counted on the given counter —
// expired or stolen) and re-pends the cell. The holder, if still
// registered, learns of the revocation on its next heartbeat.
func (c *Coordinator) revokeLocked(sw *sweepRun, i int, resolved *telemetry.Counter) {
	cl := &sw.cells[i]
	ref := LeaseRef{Sweep: sw.id, Cell: i, Epoch: cl.epoch}
	if holder := c.workers[cl.worker]; holder != nil {
		delete(holder.leases, ref)
		holder.cancel = append(holder.cancel, ref)
	}
	cl.state = cellPending
	cl.worker = ""
	sw.outstanding--
	resolved.Inc()
	c.ins.reassigned.Inc()
}

// expireLocked revokes overdue leases and deregisters dead workers. It
// runs lazily at the head of every protocol call and periodically from
// Distribute, so fencing holds even between ticks.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, id := range c.order {
		sw := c.sweeps[id]
		for i := range sw.cells {
			cl := &sw.cells[i]
			if cl.state == cellLeased && cl.expiry.Before(now) {
				c.logf("coordinator: lease expired: sweep %s cell %d epoch %d worker %s", sw.id, i, cl.epoch, cl.worker)
				c.revokeLocked(sw, i, c.ins.expired)
			}
		}
	}
	var dead []string
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) > c.cfg.DeadAfter {
			dead = append(dead, id)
		}
	}
	for _, id := range dead {
		w := c.workers[id]
		for ref := range w.leases {
			if sw := c.sweeps[ref.Sweep]; sw != nil {
				cl := &sw.cells[ref.Cell]
				if cl.state == cellLeased && cl.epoch == ref.Epoch {
					c.revokeLocked(sw, ref.Cell, c.ins.expired)
				}
			}
		}
		c.ring.remove(id)
		delete(c.workers, id)
		c.ins.workersLive.Add(-1)
		c.logf("coordinator: worker %s declared dead after %v of silence", id, now.Sub(w.lastBeat).Round(time.Millisecond))
	}
}

// Commit accepts a cell result under its lease. The fence is exact: the
// cell must still be leased to this worker under this epoch, under a
// matching sweep fingerprint. Anything else — lease expired a
// microsecond ago, cell stolen and regranted, sweep finished, zombie
// from a previous coordinator incarnation — returns Stale and the
// result is discarded.
func (c *Coordinator) Commit(req CommitRequest) (CommitResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.expireLocked(now)
	if w := c.workers[req.Worker]; w != nil {
		w.lastBeat = now
	}
	sw := c.sweeps[req.Sweep]
	if sw == nil {
		c.ins.stale.Inc()
		return CommitResponse{Stale: true}, nil
	}
	if req.Cell < 0 || req.Cell >= len(sw.cells) {
		return CommitResponse{}, fmt.Errorf("coordinator: cell %d out of range [0,%d)", req.Cell, len(sw.cells))
	}
	if req.Fingerprint != sw.plan.Fingerprint() {
		// A worker whose plan derivation disagrees (version skew) must
		// never contribute rows; fence it and say why.
		c.ins.stale.Inc()
		c.logf("coordinator: fingerprint mismatch from worker %s on sweep %s (skew?)", req.Worker, req.Sweep)
		return CommitResponse{Stale: true}, nil
	}
	cl := &sw.cells[req.Cell]
	if cl.state != cellLeased || cl.epoch != req.Epoch || cl.worker != req.Worker {
		c.ins.stale.Inc()
		return CommitResponse{Stale: true}, nil
	}

	// The lease resolves now, exactly once, whatever the payload.
	if w := c.workers[req.Worker]; w != nil {
		delete(w.leases, LeaseRef{Sweep: sw.id, Cell: req.Cell, Epoch: req.Epoch})
	}
	sw.outstanding--
	c.ins.completed.Inc()

	fail := req.Error
	if fail == "" {
		if !json.Valid(req.Unit) {
			fail = "commit payload is not valid JSON"
		} else if err := sw.store.Save(sw.plan.Experiment(), sw.plan.Fingerprint(), req.Cell, req.Unit); err != nil {
			fail = fmt.Sprintf("store cell: %v", err)
		}
	}
	if fail != "" {
		c.ins.cellFailures.Inc()
		cl.failures++
		c.logf("coordinator: sweep %s cell %d failed on %s (attempt %d/%d): %s",
			sw.id, req.Cell, req.Worker, cl.failures, c.cfg.MaxCellFailures, fail)
		if cl.failures >= c.cfg.MaxCellFailures {
			cl.state = cellAbandoned
			cl.worker = ""
			sw.remaining--
		} else {
			cl.state = cellPending
			cl.worker = ""
			c.ins.reassigned.Inc()
		}
	} else {
		cl.state = cellDone
		cl.worker = ""
		sw.remaining--
	}
	if sw.remaining == 0 {
		close(sw.done)
	}
	return CommitResponse{}, nil
}

// persistLocked advances the manifest watermark a reserve block past the
// granted epoch. A save failure is logged, not fatal: losing the
// manifest weakens lease accounting across restarts, never determinism.
func (c *Coordinator) persistLocked() {
	c.reserved = c.epoch + epochReserve
	if c.cfg.ManifestPath == "" {
		return
	}
	m := Manifest{MaxEpoch: c.reserved}
	for _, id := range c.order {
		sw := c.sweeps[id]
		for i := range sw.cells {
			if cl := &sw.cells[i]; cl.state == cellLeased {
				m.Leases = append(m.Leases, LeaseRecord{
					Sweep: sw.id, Fingerprint: sw.plan.Fingerprint(),
					Cell: i, Epoch: cl.epoch, Worker: cl.worker,
				})
			}
		}
	}
	if err := SaveManifestFS(c.cfg.FS, c.cfg.ManifestPath, m); err != nil {
		c.logf("coordinator: persist lease manifest: %v", err)
	}
}

// Workers returns how many workers are currently registered.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Distribute runs one sweep through the cluster: registers its cells,
// lets workers lease and commit them, and returns once every cell is
// done or abandoned — or once the cluster is idle (no live workers, no
// outstanding leases) or ctx is done, in which case the caller's local
// sweep run computes whatever is missing. Distribute never fails the
// sweep: its worst case is "the local run does all the work", its best
// case is "the local run finds every cell checkpointed and just merges".
func (c *Coordinator) Distribute(ctx context.Context, id string, spec SweepSpec, store experiment.CellStore) error {
	plan, err := spec.Plan()
	if err != nil {
		return err
	}
	sw := &sweepRun{
		id:    id,
		spec:  spec,
		plan:  plan,
		store: store,
		cells: make([]cell, plan.N()),
		done:  make(chan struct{}),
	}
	for i := 0; i < plan.N(); i++ {
		if _, ok := store.Lookup(plan.Experiment(), plan.Fingerprint(), i); ok {
			sw.cells[i].state = cellDone
			continue
		}
		sw.remaining++
	}
	if sw.remaining == 0 {
		return nil
	}

	c.mu.Lock()
	if _, dup := c.sweeps[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("coordinator: sweep %q is already being distributed", id)
	}
	if len(c.workers) == 0 {
		// No cluster: don't stall the sweep waiting for workers that may
		// never come. The local run computes everything, as before.
		c.mu.Unlock()
		return nil
	}
	c.sweeps[id] = sw
	c.order = append(c.order, id)
	c.ins.sweepsActive.Add(1)
	cells, nodes := sw.remaining, len(c.workers)
	c.mu.Unlock()
	c.logf("coordinator: distributing sweep %s: %d cells across %d workers", id, cells, nodes)

	defer func() {
		c.mu.Lock()
		// Resolve any leases still out (ctx done or idle exit): each
		// granted lease must resolve exactly once, and these resolve as
		// expired. Late commits then fence on the missing sweep.
		for i := range sw.cells {
			if sw.cells[i].state == cellLeased {
				c.revokeLocked(sw, i, c.ins.expired)
			}
		}
		delete(c.sweeps, id)
		for j, sid := range c.order {
			if sid == id {
				c.order = append(c.order[:j], c.order[j+1:]...)
				break
			}
		}
		c.ins.sweepsActive.Add(-1)
		c.mu.Unlock()
	}()

	tick := c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-sw.done:
			c.mu.Lock()
			abandoned := 0
			for i := range sw.cells {
				if sw.cells[i].state == cellAbandoned {
					abandoned++
				}
			}
			c.mu.Unlock()
			if abandoned > 0 {
				c.logf("coordinator: sweep %s: %d cells abandoned after repeated failures; local run will compute them", id, abandoned)
			}
			return nil
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			c.mu.Lock()
			c.expireLocked(c.cfg.now())
			idle := len(c.workers) == 0 && sw.outstanding == 0
			remaining := sw.remaining
			c.mu.Unlock()
			if idle {
				c.logf("coordinator: sweep %s: cluster idle with %d cells unfinished; falling back to local computation", id, remaining)
				return nil
			}
		}
	}
}
