// Package eua implements EUA*, the paper's contribution: an energy-
// efficient utility-accrual scheduler for TUF-constrained tasks arriving
// under the Unimodal Arbitrary Arrival Model (Algorithm 1), with the
// stochastic DVS technique decideFreq (Algorithm 2).
//
// At every scheduling event EUA*:
//
//  1. aborts jobs that cannot meet their termination time even at the
//     highest frequency f_m;
//  2. computes each remaining job's Utility and Energy Ratio
//     UER = U(t + c/f_m) / (c · E(f_m)), the utility accrued per unit
//     energy;
//  3. greedily inserts jobs in non-increasing UER order into a
//     critical-time-ordered schedule, keeping it feasible at f_m;
//  4. executes the head job at the frequency chosen by decideFreq —
//     the lowest discrete frequency that runs all non-deferrable work
//     before the earliest critical time — raised, if necessary, to the
//     task's offline UER-optimal frequency f^o.
package eua

import (
	"fmt"
	"math"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// Option configures a Scheduler; the zero configuration is the paper's
// EUA*. Options disable individual mechanisms for the ablation studies
// called out in DESIGN.md.
type Option func(*Scheduler)

// WithoutDVS forces execution at f_m, preserving EUA*'s sequencing but
// disabling frequency scaling. This is the "EUA* without DVS"
// normalization baseline of Figure 3.
func WithoutDVS() Option { return func(s *Scheduler) { s.noDVS = true } }

// WithoutUERInsertion replaces the UER-greedy schedule construction with
// plain critical-time (EDF) ordering, keeping the abort logic and DVS.
func WithoutUERInsertion() Option { return func(s *Scheduler) { s.noUER = true } }

// WithoutFoClamp disables the final f_exe = max(f_exe, f^o) step, letting
// decideFreq's choice stand even below the task's UER-optimal frequency.
func WithoutFoClamp() Option { return func(s *Scheduler) { s.noFoClamp = true } }

// WithoutWindowedDemand makes decideFreq consider only each task's
// earliest pending job instead of the full windowed demand C_i^r,
// quantifying the value of the UAM-aware bookkeeping.
func WithoutWindowedDemand() Option { return func(s *Scheduler) { s.noWindowed = true } }

// WithStrictBreak stops the greedy insertion at the first job whose
// insertion would make the schedule infeasible (a literal reading of
// Algorithm 1 line 18) instead of skipping that job and continuing, the
// DASA-style behaviour this package defaults to.
func WithStrictBreak() Option { return func(s *Scheduler) { s.strictBreak = true } }

// WithBudgetAwareness makes EUA* ration a finite energy budget (the
// paper's first named future work, in the spirit of the authors' follow-up
// EBUA work). lookahead is the remaining mission time, in seconds, the
// battery should survive; pass 0 to default to a few windows. When the
// projected lifetime at the full fleet's planned energy rate falls below
// the lookahead, admission switches to utility-per-energy rationing: a
// job is scheduled only if its UER is at least the energy-weighted
// average of the higher-UER work already admitted — under a binding
// battery, total expected utility budget·(ΣU/ΣE) only grows for such
// jobs. Rationed jobs stay pending and abort at their termination times.
func WithBudgetAwareness(lookahead float64) Option {
	return func(s *Scheduler) {
		s.budgetAware = true
		s.budgetLookahead = lookahead
	}
}

// WithoutPhantomReservation disables the UAM phantom-arrival reservation
// in decideFreq (see uam.Window), reverting to the literal Algorithm 2,
// which reserves only rate capacity for tasks without pending jobs. The
// literal form is measurably more aggressive: at loads around 0.7–0.8 it
// occasionally defers so much work that an idle task's next burst causes a
// transient overload and a critical-time miss — violating the underload
// assurances of Section 4 that the reservation restores.
func WithoutPhantomReservation() Option { return func(s *Scheduler) { s.noPhantom = true } }

// Scheduler is the EUA* algorithm. Create it with New and use one instance
// per simulation run. Decide, the incremental core, is in fastpath.go.
type Scheduler struct {
	ctx *sched.Context

	noDVS       bool
	noUER       bool
	noFoClamp   bool
	noWindowed  bool
	noPhantom   bool
	strictBreak bool

	// fp holds the core's Init-time per-task caches, the UAM release
	// history and the scratch buffers reused across events.
	fp fastState

	// Budget state (WithBudgetAwareness), fed by the engine via OnEnergy.
	budgetAware     bool
	budgetLookahead float64
	spentEnergy     float64
	energyBudget    float64
	budgetKnown     bool
	// fleetUER is the fleet's energy-weighted average fresh-job UER, the
	// admission threshold while the battery binds (computed at Init).
	fleetUER float64
}

// New returns an EUA* scheduler with the given options.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string {
	switch {
	case s.noDVS:
		return "EUA*-noDVS"
	case s.noUER:
		return "EUA*-noUER"
	case s.noFoClamp:
		return "EUA*-noFo"
	case s.noWindowed:
		return "EUA*-noWin"
	case s.noPhantom:
		return "EUA*-noPhantom"
	case s.strictBreak:
		return "EUA*-strictBreak"
	case s.budgetAware:
		return "EUA*-budget"
	default:
		return "EUA*"
	}
}

// Init implements sched.Scheduler: the paper's offlineComputing(). For
// every task it computes the UER-optimal frequency
//
//	f^o_i = argmax_{f ∈ table} U_i(c_i/f) / (c_i · E(f))
//
// — the frequency at which executing one fresh job of T_i accrues the most
// utility per unit energy — together with the per-task caches the
// incremental core reads (fastpath.go). Per-task critical times D_i and
// allocations c_i are derived from the task model (Section 3.1).
func (s *Scheduler) Init(ctx *sched.Context) error {
	if err := ctx.Validate(); err != nil {
		return fmt.Errorf("eua: %w", err)
	}
	s.ctx = ctx
	if s.budgetAware {
		fm := ctx.Freqs.Max()
		sumU, sumE := 0.0, 0.0
		for _, t := range ctx.Tasks {
			c := t.CycleAllocation()
			e := float64(t.Arrival.A) * c * ctx.Energy.PerCycle(fm)
			sumU += float64(t.Arrival.A) * t.TUF.Utility(c/fm)
			sumE += e
		}
		if sumE > 0 {
			s.fleetUER = sumU / sumE
		}
	}
	s.initFast()
	return nil
}

// OnRelease implements engine.EventObserver: record the release so the
// phantom-arrival reservation knows the earliest legal next release.
func (s *Scheduler) OnRelease(now float64, j *task.Job) {
	if ti := s.fp.tab.Pos(j); ti >= 0 {
		s.fp.arrivals[ti].Push(now)
	}
}

// OnComplete implements engine.EventObserver (no-op; releases are all the
// history the reservation needs).
func (s *Scheduler) OnComplete(now float64, j *task.Job) {}

// OnEnergy implements engine.BudgetObserver.
func (s *Scheduler) OnEnergy(spent, budget float64) {
	s.spentEnergy, s.energyBudget, s.budgetKnown = spent, budget, true
}

// energyConstrainedWindows is the default look-ahead of the budget
// rationing when the caller gives no mission horizon: rationing engages
// when the projected battery lifetime at full admission drops below this
// many of the longest task windows.
const energyConstrainedWindows = 4

// energyConstrained reports whether the remaining budget is the binding
// constraint: at the full fleet's planned energy rate, the battery would
// die within the protected look-ahead. The rate is summed once at Init
// unless some task profiles its demand online.
func (s *Scheduler) energyConstrained(budgetLeft float64) bool {
	fp := &s.fp
	rate, maxP := fp.ecRate, fp.ecMaxP
	if !fp.allCacheable {
		rate, maxP = s.fleetRate()
	}
	lookahead := s.budgetLookahead
	if lookahead <= 0 {
		lookahead = energyConstrainedWindows * maxP
	}
	return rate > 0 && budgetLeft/rate < lookahead
}

// fleetRate returns the fleet's planned energy rate — every task's
// windowed demand run at its UER-optimal frequency, per window length —
// and the longest window P.
func (s *Scheduler) fleetRate() (rate, maxP float64) {
	for ti, t := range s.ctx.Tasks {
		rate += float64(t.Arrival.A) * s.fp.tab.Alloc(ti) * s.fp.foCost[ti] / t.Arrival.P
		if t.Arrival.P > maxP {
			maxP = t.Arrival.P
		}
	}
	return rate, maxP
}

// nextPossibleArrival returns the earliest instant a new job of t (dense
// index ti) may legally be released, and how many instances may arrive
// simultaneously then, given the recorded history and the UAM bound.
func (s *Scheduler) nextPossibleArrival(now float64, ti int, t *task.Task) (at float64, count int) {
	w := &s.fp.arrivals[ti]
	a := t.Arrival.A
	if n := w.Len(); n < a {
		// Fewer than a recorded releases: the window constraint is not yet
		// binding; a − n instances could arrive right now.
		return now, a - n
	}
	// Under UAM ⟨a, P⟩ the next release cannot occur before the a-th
	// most recent release + P, which bounds when an idle task can next
	// demand work — the phantom-arrival reservation decideFreq uses to
	// stay safe against the model's adversary.
	at = w.Oldest() + t.Arrival.P
	if at < now {
		at = now
	}
	// At time `at`, releases within (at − P, at] count against the bound.
	return at, a - w.CountAfter(at-t.Arrival.P)
}

func (s *Scheduler) optimalFrequency(t *task.Task) float64 {
	c := t.CycleAllocation()
	best, bestUER := s.ctx.Freqs.Max(), math.Inf(-1)
	// Iterate ascending so that ties resolve to the lowest (cheapest)
	// frequency.
	for _, f := range s.ctx.Freqs {
		u := t.TUF.Utility(c / f)
		uer := u / (c * s.ctx.Energy.PerCycle(f))
		if uer > bestUER {
			best, bestUER = f, uer
		}
	}
	if bestUER <= 0 {
		// No frequency yields positive utility for a fresh job (the task
		// is infeasible in isolation); fall back to f_m.
		return s.ctx.Freqs.Max()
	}
	return best
}

// UER returns job j's Utility and Energy Ratio at time now evaluated at
// the highest frequency, as in Algorithm 1 line 11:
// U_J(now + c/f_m) / (E(f_m) · c).
func (s *Scheduler) UER(now float64, j *task.Job) float64 {
	return sched.UER(now, j, s.ctx.Freqs.Max(), s.ctx.Energy)
}
