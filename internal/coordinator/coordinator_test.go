package coordinator

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/telemetry"
)

// fakeClock drives the coordinator's time deterministically. The
// Distribute ticker still fires on real time, but every expiry decision
// reads this clock, so leases expire exactly when a test advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testSpec is a tiny fig2 sweep; unit tests never execute its cells
// (workers are simulated by direct Lease/Commit calls), so the horizon
// is irrelevant — only the cell count (loads × seeds) matters.
func testSpec(loads int, seeds int) SweepSpec {
	ls := make([]float64, loads)
	for i := range ls {
		ls[i] = 0.4 + 0.2*float64(i)
	}
	return SweepSpec{Experiment: "fig2", Loads: ls, Seeds: seeds, Horizon: 0.1}
}

type harness struct {
	c     *Coordinator
	clock *fakeClock
	reg   *telemetry.Registry
	store *experiment.MemStore
	done  chan error
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{
		clock: newFakeClock(),
		reg:   telemetry.NewRegistry(),
		store: experiment.NewMemStore(),
		done:  make(chan error, 1),
	}
	cfg.Registry = h.reg
	cfg.Logf = t.Logf
	cfg.now = h.clock.now
	h.c = New(cfg)
	return h
}

// distribute starts Distribute in the background.
func (h *harness) distribute(t *testing.T, id string, spec SweepSpec) {
	t.Helper()
	go func() { h.done <- h.c.Distribute(context.Background(), id, spec, h.store) }()
}

// wait asserts Distribute finishes cleanly.
func (h *harness) wait(t *testing.T) {
	t.Helper()
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatalf("Distribute: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Distribute did not finish")
	}
}

// lease polls until the worker is granted a cell (Distribute registers
// the sweep asynchronously).
func (h *harness) lease(t *testing.T, worker string) LeaseResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := h.c.Lease(worker)
		if err != nil {
			t.Fatalf("Lease(%s): %v", worker, err)
		}
		if !resp.None {
			return resp
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("Lease(%s): no grant before deadline", worker)
	return LeaseResponse{}
}

func unit(s string) json.RawMessage { return json.RawMessage(s) }

// commit submits a successful cell result under the lease.
func (h *harness) commit(t *testing.T, worker string, l LeaseResponse, raw string) CommitResponse {
	t.Helper()
	resp, err := h.c.Commit(CommitRequest{
		Worker: worker, Sweep: l.Sweep, Fingerprint: l.Fingerprint,
		Cell: l.Cell, Epoch: l.Epoch, Unit: unit(raw),
	})
	if err != nil {
		t.Fatalf("Commit(%s, cell %d): %v", worker, l.Cell, err)
	}
	return resp
}

type counts struct {
	granted, completed, expired, stolen, stale, reassigned, failures float64
}

func (h *harness) counts() counts {
	snap := h.reg.Snapshot()
	get := func(name string) float64 {
		if m := snap.Find(name); m != nil {
			return m.Value
		}
		return 0
	}
	return counts{
		granted:    get("euad_coord_leases_granted_total"),
		completed:  get("euad_coord_leases_completed_total"),
		expired:    get("euad_coord_leases_expired_total"),
		stolen:     get("euad_coord_leases_stolen_total"),
		stale:      get("euad_coord_commits_stale_total"),
		reassigned: get("euad_coord_cells_reassigned_total"),
		failures:   get("euad_coord_cell_failures_total"),
	}
}

// checkInvariant asserts the exact lease accounting identity at
// quiescence: every granted lease resolved exactly once.
func (h *harness) checkInvariant(t *testing.T) {
	t.Helper()
	c := h.counts()
	if c.granted != c.completed+c.expired+c.stolen {
		t.Fatalf("lease accounting broken: granted=%v completed=%v expired=%v stolen=%v",
			c.granted, c.completed, c.expired, c.stolen)
	}
}

func TestLeaseLifecycle(t *testing.T) {
	h := newHarness(t, Config{LeaseTTL: time.Minute})
	h.c.Register("w1")
	h.distribute(t, "job-1", testSpec(1, 2))

	l1 := h.lease(t, "w1")
	if l1.Fingerprint == "" || l1.Epoch == 0 || l1.Sweep != "job-1" {
		t.Fatalf("malformed lease: %+v", l1)
	}
	if resp := h.commit(t, "w1", l1, `{"u":1}`); resp.Stale {
		t.Fatal("live commit reported stale")
	}
	l2 := h.lease(t, "w1")
	if l2.Cell == l1.Cell {
		t.Fatalf("cell %d leased twice", l1.Cell)
	}
	if l2.Epoch <= l1.Epoch {
		t.Fatalf("epochs not monotonic: %d then %d", l1.Epoch, l2.Epoch)
	}
	h.commit(t, "w1", l2, `{"u":2}`)
	h.wait(t)

	for _, l := range []LeaseResponse{l1, l2} {
		if _, ok := h.store.Lookup("fig2", l.Fingerprint, l.Cell); !ok {
			t.Fatalf("cell %d not in store", l.Cell)
		}
	}
	// The sweep is gone: a duplicate commit must fence, not double-store.
	if resp := h.commit(t, "w1", l2, `{"u":9}`); !resp.Stale {
		t.Fatal("commit after sweep completion was accepted")
	}
	c := h.counts()
	if c.granted != 2 || c.completed != 2 || c.stale != 1 {
		t.Fatalf("counts: %+v", c)
	}
	h.checkInvariant(t)
}

func TestEpochFencingRejectsExpiredCommit(t *testing.T) {
	ttl := time.Minute
	h := newHarness(t, Config{LeaseTTL: ttl})
	h.c.Register("w1")
	h.distribute(t, "job-1", testSpec(1, 1))

	l1 := h.lease(t, "w1")
	// w1 goes silent past the TTL (partition); w2 arrives and picks the
	// cell up under a higher epoch.
	h.clock.advance(ttl + time.Second)
	h.c.Register("w2")
	l2 := h.lease(t, "w2")
	if l2.Cell != l1.Cell {
		t.Fatalf("reassigned a different cell: %d, want %d", l2.Cell, l1.Cell)
	}
	if l2.Epoch <= l1.Epoch {
		t.Fatalf("reissued epoch %d not above fenced epoch %d", l2.Epoch, l1.Epoch)
	}

	// The zombie's commit must be fenced even though its payload differs.
	if resp := h.commit(t, "w1", l1, `{"u":"zombie"}`); !resp.Stale {
		t.Fatal("stale-epoch commit was accepted")
	}
	// The zombie hears about the revocation on its next heartbeat.
	hb, err := h.c.Heartbeat("w1")
	if err != nil {
		t.Fatal(err)
	}
	ref := LeaseRef{Sweep: l1.Sweep, Cell: l1.Cell, Epoch: l1.Epoch}
	found := false
	for _, cancel := range hb.Cancel {
		if cancel == ref {
			found = true
		}
	}
	if !found {
		t.Fatalf("heartbeat cancel list %v missing revoked lease %v", hb.Cancel, ref)
	}

	if resp := h.commit(t, "w2", l2, `{"u":"live"}`); resp.Stale {
		t.Fatal("live replacement commit was fenced")
	}
	h.wait(t)
	raw, ok := h.store.Lookup("fig2", l2.Fingerprint, l2.Cell)
	if !ok || string(raw) != `{"u":"live"}` {
		t.Fatalf("stored %q, want the live worker's unit", raw)
	}
	c := h.counts()
	if c.granted != 2 || c.completed != 1 || c.expired != 1 || c.stale != 1 {
		t.Fatalf("counts: %+v", c)
	}
	h.checkInvariant(t)
}

func TestHeartbeatRenewsLeases(t *testing.T) {
	ttl := time.Minute
	h := newHarness(t, Config{LeaseTTL: ttl})
	h.c.Register("w1")
	h.distribute(t, "job-1", testSpec(1, 1))

	l := h.lease(t, "w1")
	// Beat every TTL/2 for several TTLs: the lease must survive.
	for i := 0; i < 6; i++ {
		h.clock.advance(ttl / 2)
		if _, err := h.c.Heartbeat("w1"); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if resp := h.commit(t, "w1", l, `{"u":1}`); resp.Stale {
		t.Fatal("renewed lease was fenced")
	}
	h.wait(t)
	h.checkInvariant(t)
}

func TestStealFromStraggler(t *testing.T) {
	ttl := time.Minute
	h := newHarness(t, Config{LeaseTTL: ttl, SuspectAfter: ttl / 2})
	h.c.Register("w1")
	h.distribute(t, "job-1", testSpec(2, 1))

	l1 := h.lease(t, "w1")
	l2 := h.lease(t, "w1")
	// w1 goes quiet past SuspectAfter but under the TTL: its leases are
	// still valid, but an idle worker may steal one.
	h.clock.advance(ttl/2 + time.Second)
	h.c.Register("w2")
	stolen := h.lease(t, "w2")
	if stolen.Cell != l1.Cell && stolen.Cell != l2.Cell {
		t.Fatalf("stole unknown cell %d", stolen.Cell)
	}
	victim, kept := l1, l2
	if stolen.Cell == l2.Cell {
		victim, kept = l2, l1
	}
	if stolen.Epoch <= victim.Epoch {
		t.Fatalf("stolen lease epoch %d not above victim epoch %d", stolen.Epoch, victim.Epoch)
	}
	// The straggler's commit on the stolen cell fences; on its still-held
	// cell it is accepted (theft is per-lease, not per-worker).
	if resp := h.commit(t, "w1", victim, `{"u":"straggler"}`); !resp.Stale {
		t.Fatal("commit on stolen lease was accepted")
	}
	if resp := h.commit(t, "w1", kept, `{"u":"kept"}`); resp.Stale {
		t.Fatal("commit on retained lease was fenced")
	}
	if resp := h.commit(t, "w2", stolen, `{"u":"thief"}`); resp.Stale {
		t.Fatal("thief's commit was fenced")
	}
	h.wait(t)
	raw, _ := h.store.Lookup("fig2", stolen.Fingerprint, stolen.Cell)
	if string(raw) != `{"u":"thief"}` {
		t.Fatalf("stored %q for stolen cell, want the thief's unit", raw)
	}
	c := h.counts()
	if c.granted != 3 || c.completed != 2 || c.stolen != 1 || c.expired != 0 || c.stale != 1 {
		t.Fatalf("counts: %+v", c)
	}
	h.checkInvariant(t)
}

func TestDeadWorkerIsDeregistered(t *testing.T) {
	ttl := time.Minute
	h := newHarness(t, Config{LeaseTTL: ttl, DeadAfter: 2 * ttl})
	h.c.Register("w1")
	h.distribute(t, "job-1", testSpec(1, 1))

	l1 := h.lease(t, "w1")
	h.clock.advance(2*ttl + time.Second)
	h.c.Register("w2")
	l2 := h.lease(t, "w2")
	if l2.Cell != l1.Cell {
		t.Fatalf("dead worker's cell not reassigned")
	}
	if h.c.Workers() != 1 {
		t.Fatalf("%d workers registered, want 1 (w1 dead)", h.c.Workers())
	}
	if _, err := h.c.Heartbeat("w1"); err != ErrUnknownWorker {
		t.Fatalf("dead worker heartbeat: %v, want ErrUnknownWorker", err)
	}
	// Death is not a ban: re-registering works.
	h.c.Register("w1")
	if h.c.Workers() != 2 {
		t.Fatalf("%d workers after re-register, want 2", h.c.Workers())
	}
	h.commit(t, "w2", l2, `{"u":1}`)
	h.wait(t)
	h.checkInvariant(t)
}

func TestCellAbandonedAfterFailureBudget(t *testing.T) {
	h := newHarness(t, Config{LeaseTTL: time.Minute, MaxCellFailures: 2})
	h.c.Register("w1")
	h.distribute(t, "job-1", testSpec(1, 1))

	var last LeaseResponse
	for attempt := 0; attempt < 2; attempt++ {
		last = h.lease(t, "w1")
		resp, err := h.c.Commit(CommitRequest{
			Worker: "w1", Sweep: last.Sweep, Fingerprint: last.Fingerprint,
			Cell: last.Cell, Epoch: last.Epoch, Error: "simulated engine failure",
		})
		if err != nil || resp.Stale {
			t.Fatalf("failure commit %d: err=%v stale=%v", attempt, err, resp.Stale)
		}
	}
	// Budget exhausted: the cell is abandoned and the sweep completes
	// with a gap for the local fallback to fill.
	h.wait(t)
	if _, ok := h.store.Lookup("fig2", last.Fingerprint, last.Cell); ok {
		t.Fatal("abandoned cell has a stored unit")
	}
	c := h.counts()
	if c.failures != 2 || c.granted != 2 || c.completed != 2 {
		t.Fatalf("counts: %+v", c)
	}
	h.checkInvariant(t)
}

func TestDistributeWithoutWorkersReturnsImmediately(t *testing.T) {
	h := newHarness(t, Config{LeaseTTL: time.Minute})
	start := time.Now()
	if err := h.c.Distribute(context.Background(), "job-1", testSpec(2, 2), h.store); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("no-worker Distribute took %v", d)
	}
	if h.store.Saves() != 0 {
		t.Fatal("no-worker Distribute stored cells")
	}
}

func TestDistributeResumesFromStore(t *testing.T) {
	h := newHarness(t, Config{LeaseTTL: time.Minute})
	h.c.Register("w1")
	spec := testSpec(1, 2)
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plan.N(); i++ {
		if err := h.store.Save(plan.Experiment(), plan.Fingerprint(), i, unit(`{"u":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.c.Distribute(context.Background(), "job-1", spec, h.store); err != nil {
		t.Fatal(err)
	}
	if c := h.counts(); c.granted != 0 {
		t.Fatalf("fully checkpointed sweep granted %v leases", c.granted)
	}
}

func TestCommitRejectsFingerprintSkew(t *testing.T) {
	h := newHarness(t, Config{LeaseTTL: time.Minute})
	h.c.Register("w1")
	h.distribute(t, "job-1", testSpec(1, 1))
	l := h.lease(t, "w1")
	resp, err := h.c.Commit(CommitRequest{
		Worker: "w1", Sweep: l.Sweep, Fingerprint: l.Fingerprint + "|skewed",
		Cell: l.Cell, Epoch: l.Epoch, Unit: unit(`{"u":1}`),
	})
	if err != nil || !resp.Stale {
		t.Fatalf("skewed-fingerprint commit: err=%v stale=%v, want stale", err, resp.Stale)
	}
	// The real commit still lands.
	h.commit(t, "w1", l, `{"u":1}`)
	h.wait(t)
	h.checkInvariant(t)
}

func TestCommitRejectsInvalidJSON(t *testing.T) {
	h := newHarness(t, Config{LeaseTTL: time.Minute, MaxCellFailures: 1})
	h.c.Register("w1")
	h.distribute(t, "job-1", testSpec(1, 1))
	l := h.lease(t, "w1")
	resp, err := h.c.Commit(CommitRequest{
		Worker: "w1", Sweep: l.Sweep, Fingerprint: l.Fingerprint,
		Cell: l.Cell, Epoch: l.Epoch, Unit: unit(`{"u":`),
	})
	if err != nil || resp.Stale {
		t.Fatalf("invalid-JSON commit: err=%v stale=%v", err, resp.Stale)
	}
	h.wait(t) // budget 1 → abandoned → sweep quiesces
	if c := h.counts(); c.failures != 1 {
		t.Fatalf("counts: %+v", c)
	}
	h.checkInvariant(t)
}

func TestRingPrefersStableOwner(t *testing.T) {
	var r ring
	r.add("w1")
	r.add("w2")
	r.add("w3")
	owners := make(map[string]string)
	keys := []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"}
	for _, k := range keys {
		owners[k] = r.owner(k)
		if owners[k] == "" {
			t.Fatalf("no owner for %s", k)
		}
	}
	// Removing one node must not remap keys owned by the others.
	r.remove("w2")
	for _, k := range keys {
		if owners[k] == "w2" {
			continue
		}
		if got := r.owner(k); got != owners[k] {
			t.Fatalf("key %s remapped from %s to %s by unrelated removal", k, owners[k], got)
		}
	}
	if r.owner("k1") == "" {
		t.Fatal("ring lost all owners")
	}
	var empty ring
	if empty.owner("k") != "" {
		t.Fatal("empty ring returned an owner")
	}
}

func TestSweepSpecConfigMatchesDefaults(t *testing.T) {
	cfg, err := SweepSpec{Experiment: "fig2", Horizon: 0.5}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Seeds) != 3 || cfg.Seeds[0] != 1 || cfg.Seeds[2] != 3 {
		t.Fatalf("default seeds: %v", cfg.Seeds)
	}
	if string(cfg.Energy) != "E1" {
		t.Fatalf("default energy: %v", cfg.Energy)
	}
	if _, err := (SweepSpec{Experiment: "fig2", Energy: "E9"}).Config(); err == nil {
		t.Fatal("unknown energy preset accepted")
	}
	if _, err := (SweepSpec{Experiment: "fig2", Faults: "bogus"}).Config(); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
	if _, err := (SweepSpec{Experiment: "nope"}).Plan(); err == nil {
		t.Fatal("unknown experiment planned")
	}
	// Faulty sweeps parse into a plan whose fingerprint differs from the
	// fault-free one: fault state is part of cell identity.
	p1, err := SweepSpec{Experiment: "fig2", Horizon: 0.5}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := SweepSpec{Experiment: "fig2", Horizon: 0.5, Faults: "seed=7,overrun=0.1"}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() == p2.Fingerprint() {
		t.Fatal("fault plan not part of the fingerprint")
	}
	if !strings.Contains(p1.Fingerprint(), "fig2") {
		t.Fatalf("fingerprint %q does not name the experiment", p1.Fingerprint())
	}
}
