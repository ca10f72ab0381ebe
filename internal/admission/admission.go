// Package admission implements the analytical admission triage the euad
// daemon, euasim -admit and the threshold-sweep experiment share: given a
// UAM task set and a scheduling scheme, Analyze returns in O(n) one of
// three verdicts bracketing the simulator.
//
//   - Accept: a sufficient schedulability test passes. For deadline-ordered
//     schemes this is Theorem 1 of the paper: provisioning every task at
//     C_i/D_i (with C_i = a_i·c_i the Cantelli-allocated windowed demand)
//     meets all critical times whenever Σ_i C_i/D_i <= f_max. Because
//     Section 5 defines system load as exactly (1/f_max)·Σ_i C_i/D_i, the
//     analytic accept threshold of a load-scaled family sits at load 1.0
//     by construction. For utility-greedy schemes at fixed f_max (GUS) the
//     deadline-ordered argument does not apply; Accept instead requires
//     the scheduler-oblivious busy-period bound: with burst work
//     σ = Σ_i a_i·c_i and demand rate r = Σ_i a_i·c_i/P_i < f_max, any
//     work-conserving order finishes every job within σ/(f_max − r)
//     seconds of its arrival, so the set is safe when that bound is below
//     the shortest critical time.
//
//   - Reject: a necessary condition is violated, using the *guaranteed
//     minimum* of the realized demand process rather than the Cantelli
//     allocation (which over-provisions and would be unsound on this
//     side). Either a single task is infeasible alone at f_max — every job
//     needs more than D_i·f_max cycles, so its met-ratio is ~0 < ρ_i — or
//     the ρ-weighted guaranteed demand density exceeds capacity with
//     margin, so not every task can reach its required met-ratio.
//
//   - MustSimulate: the set lies between the sufficient and the necessary
//     bound; only the simulator can tell.
//
// The differential suite in this package validates the bracketing on
// hundreds of generated task sets: Accept is never contradicted by a
// simulated assurance failure, Reject never by a simulated success (the
// soundness conditions below spell out the margins that make this hold).
package admission

import (
	"fmt"
	"math"
	"strings"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/task"
)

// Verdict is the analyzer's three-way answer.
type Verdict string

// The verdict values, ordered by severity: Accept < MustSimulate <
// Reject. Scaling every demand up can only move a verdict rightward
// (see Rank and FuzzAdmission).
const (
	Accept       Verdict = "accept"
	MustSimulate Verdict = "must-simulate"
	Reject       Verdict = "reject"
)

// Rank orders verdicts by severity (Accept 0, MustSimulate 1, Reject 2).
// Demand scaling is monotone in this order: if ts yields verdict v, then
// scaling all demands up by k >= 1 yields a verdict with Rank >= Rank(v).
func (v Verdict) Rank() int {
	switch v {
	case Accept:
		return 0
	case Reject:
		return 2
	default:
		return 1
	}
}

func (v Verdict) String() string { return string(v) }

// Policy classifies how a scheme's sufficient (Accept) test is derived;
// the necessary (Reject) tests are scheduler-independent.
type Policy int

const (
	// DeadlineOrdered schemes execute feasible jobs in critical-time
	// order (EDF family, DASA's and EUA*'s tentative-schedule
	// construction), so Theorem 1's utilization test applies.
	DeadlineOrdered Policy = iota
	// UtilityGreedy schemes order by utility density at fixed f_max
	// (GUS): no deadline-order guarantee, only the work-conserving
	// busy-period bound yields an Accept.
	UtilityGreedy
	// Unknown schemes get no sufficient test at all: the analyzer can
	// only Reject or MustSimulate.
	Unknown
)

func (p Policy) String() string {
	switch p {
	case DeadlineOrdered:
		return "deadline-ordered"
	case UtilityGreedy:
		return "utility-greedy"
	default:
		return "unknown"
	}
}

// PolicyFor maps an experiment scheme name onto its accept policy. The
// EUA* ablation variants keep the critical-time-ordered tentative
// schedule, so they stay deadline-ordered.
func PolicyFor(scheme string) Policy {
	switch {
	case scheme == "GUS":
		return UtilityGreedy
	case scheme == "DASA",
		strings.HasPrefix(scheme, "EUA*"),
		strings.HasPrefix(scheme, "EDF"),
		strings.HasPrefix(scheme, "staticEDF"),
		strings.HasPrefix(scheme, "ccEDF"),
		strings.HasPrefix(scheme, "laEDF"):
		return DeadlineOrdered
	default:
		return Unknown
	}
}

// Soundness margins of the Reject side. The guaranteed per-job minimum
// demand is max(DemandFloorFrac·E(Y), E(Y) − floorSigmas·σ): the first
// term is the hard truncation floor of Demand.Sample, the second holds
// per job except with probability Φ(−floorSigmas) ≈ 1e-9.
const floorSigmas = 6.0

// aggregateSlack is the capacity margin of the density Reject: the
// ρ-weighted guaranteed demand rate must exceed (1+aggregateSlack)·f_max.
// The slack absorbs the boundary work a finite run can carry past its
// horizon (jobs released before the horizon may execute up to one window
// beyond it), so the condition implies simulated failure for any run
// whose horizon spans at least a few of the longest windows
// (aggregateSlack·horizon > max_i P_i, i.e. horizon > 4·max_i P_i).
const aggregateSlack = 0.25

// Result is the analyzer's verdict plus the quantitative facts it was
// derived from, so callers can render a reason and the threshold sweep
// can report analytic bounds.
type Result struct {
	Verdict Verdict `json:"verdict"`
	Scheme  string  `json:"scheme"`
	Policy  string  `json:"policy"`
	// Reason is the human-readable one-line justification.
	Reason string `json:"reason"`

	// Utilization is Theorem 1's Σ_i C_i/D_i at f_max — identical to the
	// Section 5 system load of the set.
	Utilization float64 `json:"utilization"`
	// FloorDensity is the ρ-weighted guaranteed demand density at f_max:
	// Σ_i ρ_i·a_i·yLo_i/P_i / f_max, the quantity the density Reject
	// tests against 1+aggregateSlack.
	FloorDensity float64 `json:"floor_density"`
	// BusyPeriod is the scheduler-oblivious response-time bound
	// σ/(f_max − r) in seconds, or 0 when no finite bound exists
	// (allocated demand rate ≥ f_max).
	BusyPeriod float64 `json:"busy_period_seconds"`
	// MinCritical is min_i D_i in seconds, the budget BusyPeriod is
	// compared against.
	MinCritical float64 `json:"min_critical_seconds"`
	// InfeasibleTask is the ID of the first task that is infeasible alone
	// at f_max (0 when none): its guaranteed minimum demand exceeds
	// D_i·f_max while ρ_i > 0.
	InfeasibleTask int `json:"infeasible_task,omitempty"`
}

// demandFloor returns yLo: a lower bound that every realized demand of
// the task respects (up to the ~1e-9 per-job tail of floorSigmas).
func demandFloor(d task.Demand) float64 {
	lo := d.Mean - floorSigmas*math.Sqrt(d.Variance)
	if hard := task.DemandFloorFrac * d.Mean; lo < hard {
		lo = hard
	}
	return lo
}

// Analyze triages the task set for the scheme in one O(n) pass. It
// validates its inputs and never panics on validated sets; the verdicts
// bracket the simulator as documented on the package.
func Analyze(ts task.Set, ft cpu.FrequencyTable, scheme string) (Result, error) {
	if err := ts.Validate(); err != nil {
		return Result{}, fmt.Errorf("admission: %w", err)
	}
	if err := ft.Validate(); err != nil {
		return Result{}, fmt.Errorf("admission: %w", err)
	}
	fmax := ft.Max()
	policy := PolicyFor(scheme)
	res, infeasible, infeasibleLo := triage(ts, fmax, policy)
	res.Scheme, res.Policy = scheme, policy.String()
	switch {
	case infeasible != nil:
		res.Reason = fmt.Sprintf(
			"task %s is infeasible alone at f_max: guaranteed demand %.3g cycles exceeds D·f_max = %.3g",
			infeasible, infeasibleLo, infeasible.CriticalTime()*fmax)
	case res.Verdict == Reject:
		res.Reason = fmt.Sprintf(
			"guaranteed demand density %.3f exceeds capacity margin %.2f at f_max: no schedule can satisfy every {ν, ρ}",
			res.FloorDensity, 1+aggregateSlack)
	case res.Verdict == Accept && policy == DeadlineOrdered:
		res.Reason = fmt.Sprintf(
			"Theorem-1 utilization %.3f <= 1 at f_max: Cantelli-provisioned demand meets every critical time",
			res.Utilization)
	case res.Verdict == Accept:
		res.Reason = fmt.Sprintf(
			"busy-period bound %.4gs <= shortest critical time %.4gs: any work-conserving order at f_max completes every job in time",
			res.BusyPeriod, res.MinCritical)
	case policy == Unknown:
		res.Reason = fmt.Sprintf(
			"no sufficient test for scheme %q: necessary conditions hold (density %.3f), only simulation can accept",
			scheme, res.FloorDensity)
	case policy == UtilityGreedy && res.BusyPeriod > 0:
		res.Reason = fmt.Sprintf(
			"between bounds: busy-period %.4gs exceeds shortest critical time %.4gs but guaranteed density %.3f is below the reject margin",
			res.BusyPeriod, res.MinCritical, res.FloorDensity)
	case policy == UtilityGreedy:
		res.Reason = fmt.Sprintf(
			"between bounds: no finite busy-period bound (allocated demand rate >= f_max) but guaranteed density %.3f is below the reject margin",
			res.FloorDensity)
	default:
		res.Reason = fmt.Sprintf(
			"between bounds: Theorem-1 utilization %.3f > 1 but guaranteed density %.3f is below the reject margin",
			res.Utilization, res.FloorDensity)
	}
	return res, nil
}

// Admits reports whether Analyze accepts ts for a scheme of the given
// policy on a table topped by fmax. It is the verdict alone, for callers
// that probe many candidate sets (partitioned bin packing): it neither
// re-validates ts, which must be valid, nor explains the verdict.
func Admits(ts task.Set, fmax float64, policy Policy) bool {
	res, _, _ := triage(ts, fmax, policy)
	return res.Verdict == Accept
}

// triage computes the verdict and the bounds behind it, everything of the
// Result but its scheme, policy and reason. infeasible is the first task
// infeasible alone at f_max (nil when none) and infeasibleLo its
// guaranteed demand.
func triage(ts task.Set, fmax float64, policy Policy) (res Result, infeasible *task.Task, infeasibleLo float64) {
	res.MinCritical = math.Inf(1)
	var (
		util      float64 // Σ C_i/D_i (cycles/s)
		rate      float64 // Σ C_i/P_i (cycles/s)
		sigma     float64 // Σ C_i (burst cycles)
		floorRate float64 // Σ ρ_i·a_i·yLo_i/P_i (cycles/s)
	)
	for _, t := range ts {
		c := t.WindowCycles() // a_i·c_i, Cantelli-allocated
		d := t.CriticalTime()
		util += c / d
		rate += c / t.Arrival.P
		sigma += c
		if d < res.MinCritical {
			res.MinCritical = d
		}
		yLo := demandFloor(t.Demand)
		floorRate += t.Req.Rho * float64(t.Arrival.A) * yLo / t.Arrival.P
		if infeasible == nil && t.Req.Rho > 0 && yLo > d*fmax {
			infeasible, infeasibleLo = t, yLo
		}
	}
	res.Utilization = util / fmax
	res.FloorDensity = floorRate / fmax
	if rate < fmax {
		res.BusyPeriod = sigma / (fmax - rate)
	}

	switch {
	// Necessary conditions first: a Reject is a Reject for every scheme.
	case infeasible != nil:
		res.Verdict = Reject
		res.InfeasibleTask = infeasible.ID
	case res.FloorDensity > 1+aggregateSlack:
		res.Verdict = Reject
	// Sufficient condition, per the scheme's policy.
	case policy == DeadlineOrdered && res.Utilization <= 1,
		policy == UtilityGreedy && res.BusyPeriod > 0 && res.BusyPeriod <= res.MinCritical:
		res.Verdict = Accept
	default:
		res.Verdict = MustSimulate
	}
	return res, infeasible, infeasibleLo
}

// String renders the verdict line euasim -admit prints.
func (r Result) String() string {
	return fmt.Sprintf("%s (%s, %s): %s", r.Verdict, r.Scheme, r.Policy, r.Reason)
}
