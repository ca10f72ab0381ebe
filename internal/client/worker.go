package client

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/euastar/euastar/internal/coordinator"
	"github.com/euastar/euastar/internal/experiment"
)

// Worker is the worker side of the cluster protocol: it registers with a
// coordinator, heartbeats to keep its leases alive, and runs a lease
// loop per slot — lease a cell, compute it, commit the raw unit. All
// communication reuses the client's retry/backoff discipline, so a
// coordinator restart shows up as a few retried requests (bounded by
// the jitter cap), not a wedged worker.
//
// Crash safety needs nothing from the worker: computed-but-uncommitted
// work is re-leased by the coordinator after the TTL, and a commit that
// arrives after its lease resolved is fenced by epoch and dropped. The
// worker's only obligations are to heartbeat while computing and to
// abandon cells the coordinator cancels.
type Worker struct {
	// Client talks to the coordinator daemon.
	Client *Client
	// ID is the worker's stable identity.
	ID string
	// Slots is how many cells run concurrently (default GOMAXPROCS).
	Slots int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	mu        sync.Mutex
	active    map[coordinator.LeaseRef]func() // cancel hooks for running cells
	plans     map[string]*experiment.CellPlan // keyed by fingerprint
	heartbeat time.Duration
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// register announces the worker and records the coordinator's timing
// contract. Safe to call again after an unknown-worker rejection.
func (w *Worker) register(ctx context.Context) error {
	resp, err := postJSON[coordinator.RegisterResponse](ctx, w.Client, "/v1/cluster/register", coordinator.RegisterRequest{Worker: w.ID})
	if err != nil {
		return fmt.Errorf("register worker %s: %w", w.ID, err)
	}
	hb := time.Duration(resp.HeartbeatSeconds * float64(time.Second))
	if hb < 50*time.Millisecond {
		hb = 50 * time.Millisecond
	}
	w.mu.Lock()
	w.heartbeat = hb
	w.mu.Unlock()
	w.logf("worker %s: registered (heartbeat %v, lease TTL %vs)", w.ID, hb, resp.LeaseTTLSeconds)
	return nil
}

func (w *Worker) heartbeatEvery() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.heartbeat
}

// Run registers and serves lease loops until ctx is canceled.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		return fmt.Errorf("worker ID is required")
	}
	w.active = make(map[coordinator.LeaseRef]func())
	w.plans = make(map[string]*experiment.CellPlan)
	if err := w.register(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	slots := w.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.leaseLoop(ctx)
		}()
	}
	wg.Wait()
	return nil
}

// heartbeatLoop renews liveness and applies revocations. A worker the
// coordinator declared dead (long stall, partition) re-registers and
// carries on — its old leases are gone, which the cancel hooks and
// commit fencing both already handle.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(w.heartbeatEvery()):
		}
		resp, err := postJSON[coordinator.HeartbeatResponse](ctx, w.Client, "/v1/cluster/heartbeat", coordinator.HeartbeatRequest{Worker: w.ID})
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if isUnknownWorker(err) {
				w.logf("worker %s: coordinator declared us dead; re-registering", w.ID)
				if rerr := w.register(ctx); rerr != nil && ctx.Err() == nil {
					w.logf("worker %s: re-register: %v", w.ID, rerr)
				}
				continue
			}
			w.logf("worker %s: heartbeat: %v", w.ID, err)
			continue
		}
		for _, ref := range resp.Cancel {
			w.cancelLease(ref)
		}
	}
}

func isUnknownWorker(err error) bool {
	var apiErr *APIError
	return asAPIError(err, &apiErr) && apiErr.Code == coordinator.CodeUnknownWorker
}

// leaseLoop runs one slot: lease, compute, commit, repeat.
func (w *Worker) leaseLoop(ctx context.Context) {
	for ctx.Err() == nil {
		lease, err := postJSON[coordinator.LeaseResponse](ctx, w.Client, "/v1/cluster/lease", coordinator.LeaseRequest{Worker: w.ID})
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if isUnknownWorker(err) {
				if rerr := w.register(ctx); rerr != nil && ctx.Err() == nil {
					w.logf("worker %s: re-register: %v", w.ID, rerr)
				}
				continue
			}
			w.logf("worker %s: lease: %v", w.ID, err)
			if sleepCtx(ctx, w.heartbeatEvery()) != nil {
				return
			}
			continue
		}
		if lease.None {
			idle := time.Duration(lease.RetryAfterSeconds * float64(time.Second))
			if idle <= 0 {
				idle = w.heartbeatEvery()
			}
			if sleepCtx(ctx, idle) != nil {
				return
			}
			continue
		}
		w.runLease(ctx, *lease)
	}
}

// sleepCtx waits d, or returns ctx's error as soon as ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// plan returns the worker's own derivation of the sweep's cell plan,
// verified against the coordinator's fingerprint. A mismatch means
// version skew — this worker would compute different bytes — so it must
// refuse the cell rather than taint the sweep.
func (w *Worker) plan(lease coordinator.LeaseResponse) (*experiment.CellPlan, error) {
	w.mu.Lock()
	if p := w.plans[lease.Fingerprint]; p != nil {
		w.mu.Unlock()
		return p, nil
	}
	w.mu.Unlock()
	p, err := lease.Spec.Plan()
	if err != nil {
		return nil, err
	}
	if p.Fingerprint() != lease.Fingerprint {
		return nil, fmt.Errorf("plan fingerprint mismatch (version skew): coordinator %q, worker %q", lease.Fingerprint, p.Fingerprint())
	}
	w.mu.Lock()
	w.plans[lease.Fingerprint] = p
	w.mu.Unlock()
	return p, nil
}

// cancelLease aborts the in-flight computation of a revoked lease.
func (w *Worker) cancelLease(ref coordinator.LeaseRef) {
	w.mu.Lock()
	cancel := w.active[ref]
	w.mu.Unlock()
	if cancel != nil {
		w.logf("worker %s: lease revoked, abandoning sweep %s cell %d", w.ID, ref.Sweep, ref.Cell)
		cancel()
	}
}

// runLease computes one leased cell and commits the result (or the
// failure). The cell runs under its own context, which a revocation or
// the worker's shutdown cancels; a cell stopped that way is dropped
// without a commit — the coordinator has already resolved the lease.
func (w *Worker) runLease(ctx context.Context, lease coordinator.LeaseResponse) {
	ref := coordinator.LeaseRef{Sweep: lease.Sweep, Cell: lease.Cell, Epoch: lease.Epoch}
	cellCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.active[ref] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.active, ref)
		w.mu.Unlock()
	}()

	commit := coordinator.CommitRequest{
		Worker: w.ID, Sweep: lease.Sweep, Fingerprint: lease.Fingerprint,
		Cell: lease.Cell, Epoch: lease.Epoch,
	}
	plan, err := w.plan(lease)
	if err == nil {
		commit.Unit, err = plan.Run(lease.Cell, cellCtx.Done())
	}
	if err != nil {
		if cellCtx.Err() != nil {
			// Revoked (or shutting down) mid-computation: the error is the
			// stop surfacing, and the lease is already resolved on the
			// coordinator — nothing to commit.
			w.logf("worker %s: dropped sweep %s cell %d: %v", w.ID, lease.Sweep, lease.Cell, err)
			return
		}
		commit.Unit = nil
		commit.Error = err.Error()
	}
	resp, err := postJSON[coordinator.CommitResponse](ctx, w.Client, "/v1/cluster/commit", commit)
	if err != nil {
		if ctx.Err() == nil {
			w.logf("worker %s: commit sweep %s cell %d: %v", w.ID, lease.Sweep, lease.Cell, err)
		}
		return
	}
	if resp.Stale {
		w.logf("worker %s: commit fenced as stale: sweep %s cell %d epoch %d", w.ID, lease.Sweep, lease.Cell, lease.Epoch)
	}
}
