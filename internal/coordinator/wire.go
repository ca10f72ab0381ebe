package coordinator

import (
	"encoding/json"
	"fmt"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/faults"
)

// SweepSpec is the distributable description of one sweep: the subset of
// a job spec that determines the sweep's cells and fingerprint. It is
// the single source of truth for both sides of the cluster protocol —
// the coordinator derives the cell plan from it and ships it verbatim
// inside each lease, and the worker re-derives the same plan from the
// shipped copy. Because both plans come from the same conversion, their
// fingerprints agree exactly, and a worker whose derivation disagrees
// (version skew) simply fails the lease's fingerprint check instead of
// contributing wrong rows.
type SweepSpec struct {
	Experiment string    `json:"experiment"`
	Energy     string    `json:"energy,omitempty"`
	Loads      []float64 `json:"loads,omitempty"`
	Seeds      int       `json:"seeds,omitempty"`
	Horizon    float64   `json:"horizon,omitempty"`
	Bounds     []int     `json:"bounds,omitempty"`
	Faults     string    `json:"faults,omitempty"`
	// Cores > 1 runs every cell's engine on that many DVS cores under the
	// Partition placement policy ("ff", "wf" or "global"; empty means
	// "ff"). Both fields feed the sweep fingerprint, so multicore results
	// can never be merged into a uniprocessor sweep or vice versa.
	Cores     int    `json:"cores,omitempty"`
	Partition string `json:"partition,omitempty"`
}

// Config materializes the spec into an experiment configuration, with
// the same defaults the euad sweep path applies: energy preset E1 and
// three seeds (1..n). The error is a validation error in the spec's
// content (unknown preset, malformed fault plan).
func (s SweepSpec) Config() (experiment.Config, error) {
	cfg := experiment.Config{
		Energy:    energy.E1,
		Loads:     s.Loads,
		Horizon:   s.Horizon,
		Bounds:    s.Bounds,
		Cores:     s.Cores,
		Partition: s.Partition,
	}
	if s.Energy != "" {
		cfg.Energy = energy.Preset(s.Energy)
	}
	seeds := s.Seeds
	if seeds == 0 {
		seeds = 3
	}
	for i := 1; i <= seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, uint64(i))
	}
	if s.Faults != "" {
		plan, err := faults.Parse(s.Faults)
		if err != nil {
			return cfg, fmt.Errorf("fault plan: %w", err)
		}
		cfg.Faults = plan
	}
	if _, err := energy.NewPreset(cfg.Energy, cpu.PowerNowK6().Max()); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Plan builds the sweep's cell plan. Coordinator and worker both call
// this on their own copy of the spec; fingerprint equality between the
// two plans is what admits a worker's cells into the sweep.
func (s SweepSpec) Plan() (*experiment.CellPlan, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	return experiment.PlanCells(cfg, s.Experiment)
}

// Error codes specific to the cluster protocol, carried in the same
// {"error":{"code","message"}} envelope the job API uses.
const (
	// CodeUnknownWorker: the worker is not registered (never was, or was
	// declared dead). The worker must re-register before continuing; its
	// in-flight leases are already revoked.
	CodeUnknownWorker = "unknown_worker"
)

// RegisterRequest announces a worker to the coordinator. Registration is
// idempotent: re-registering an existing ID refreshes its liveness.
type RegisterRequest struct {
	// Worker is the worker's stable self-chosen identity.
	Worker string `json:"worker"`
}

// RegisterResponse carries the coordinator's timing contract.
type RegisterResponse struct {
	// LeaseTTLSeconds is how long a granted lease stays valid without a
	// heartbeat renewing it.
	LeaseTTLSeconds float64 `json:"lease_ttl_seconds"`
	// HeartbeatSeconds is the interval the worker should heartbeat at.
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
}

// LeaseRef identifies one granted lease.
type LeaseRef struct {
	Sweep string `json:"sweep"`
	Cell  int    `json:"cell"`
	Epoch uint64 `json:"epoch"`
}

// HeartbeatRequest renews a worker's liveness and every lease it holds.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse tells the worker which of its leases were revoked
// (expired or stolen) since its last beat, so it can abandon the
// computation instead of burning cycles on a commit that will be fenced.
type HeartbeatResponse struct {
	Cancel []LeaseRef `json:"cancel,omitempty"`
}

// LeaseRequest asks for one cell of work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants one cell, or reports that no work is available.
type LeaseResponse struct {
	// None is true when the coordinator has no grantable cell right now;
	// RetryAfterSeconds hints when to ask again.
	None              bool    `json:"none,omitempty"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`

	Sweep string    `json:"sweep,omitempty"`
	Spec  SweepSpec `json:"spec,omitempty"`
	// Fingerprint is the coordinator's plan fingerprint. The worker must
	// verify its own derivation matches before running the cell.
	Fingerprint string  `json:"fingerprint,omitempty"`
	Cell        int     `json:"cell,omitempty"`
	Epoch       uint64  `json:"epoch,omitempty"`
	TTLSeconds  float64 `json:"ttl_seconds,omitempty"`
}

// CommitRequest returns a completed (or failed) cell under its lease.
type CommitRequest struct {
	Worker      string `json:"worker"`
	Sweep       string `json:"sweep"`
	Fingerprint string `json:"fingerprint"`
	Cell        int    `json:"cell"`
	Epoch       uint64 `json:"epoch"`
	// Unit is the cell's raw JSON result — the exact bytes a local
	// checkpoint of the cell would store. Empty when Error is set.
	Unit json.RawMessage `json:"unit,omitempty"`
	// Error reports a cell that failed to compute; the coordinator
	// re-pends the cell (bounded by its failure budget).
	Error string `json:"error,omitempty"`
}

// CommitResponse acknowledges a commit. Stale means the lease was no
// longer valid (expired, stolen, or epoch-fenced) and the result was
// discarded; the worker should drop the cell and move on.
type CommitResponse struct {
	Stale bool `json:"stale,omitempty"`
}
