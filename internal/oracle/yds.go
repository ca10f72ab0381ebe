package oracle

import (
	"cmp"
	"math"
	"slices"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
)

// Schedule is the Yao–Demers–Shenker optimal continuous speed schedule
// of an instance (the Li–Yao–Yuan formulation from PAPERS.md): every
// job is assigned the intensity of the critical interval it was peeled
// with, and the per-round intensities are non-increasing.
//
// The schedule's structure depends only on the instance geometry, never
// on the power model; pricing happens in EnergyContinuous /
// EnergyDiscrete, which floor the speeds at the model's critical speed
// (below it, running faster and idling is cheaper — idle time is free
// in the engine's accounting, matching engine.Config.IdleStaticPower's
// default of zero).
type Schedule struct {
	// Jobs is the instance priced by this schedule, in input order.
	Jobs []Job
	// Speeds is the per-job critical-interval intensity in Hz, aligned
	// with Jobs; zero for zero-cycle jobs (they never execute).
	Speeds []float64
	// Rounds is how many critical intervals the peeling removed.
	Rounds int
}

// YDS computes the optimal continuous speed assignment for the
// instance. It returns an error only for invalid instances.
//
// Each round finds the interval [t1, t2] maximizing the intensity
// g = W(t1, t2) / (t2 − t1), where W sums the cycles of jobs whose
// window is contained in [t1, t2]; those jobs are scheduled at speed g
// and removed, and the interval is collapsed out of the remaining
// windows (endpoints inside it snap to t1, endpoints past it shift left
// by its length). Critical-interval endpoints are always a release and
// a deadline, so a round sweeps each distinct release t1 over the jobs
// in (deadline, index) order, adding the work of every job released at
// or after t1: each prefix is a candidate, and among equal intensities
// the earlier start, then the earlier end, wins. Each round removes at
// least one job.
//
// A round rescans only what the last peel could have changed, with the
// float operations of the plain peel (ydsReference in the tests), so
// Speeds and Rounds match it bit for bit:
//
//   - The jobs stay in (deadline, index) order across rounds. A peel
//     moves few of them (the snapped deadlines, up to rounding), so one
//     insertion pass restores the order.
//   - The order splits into window components: a new one starts after
//     position k when every later job is released more than gapRel of
//     the active span after the k-th deadline. An interval spanning
//     such a gap holds the work of one candidate on each side in
//     strictly more time, so in exact arithmetic its intensity is below
//     the better side's by a factor of at least 1 − gapRel. That factor
//     exceeds the relative rounding error of the prefix sums, (2n+3)·2⁻⁵³
//     for n ≤ maxSplitJobs jobs, four times over, so the spanning
//     interval's computed intensity is strictly below too and never
//     wins or ties. Each release is therefore swept only to the end of
//     its own component: earlier components end before it, later ones
//     come later in the order, so every prefix sum it forms is the one
//     the full sweep forms, addition for addition.
//   - A component whose jobs and coordinates are the same as in the
//     last round (it lies wholly before the peeled interval) keeps its
//     best interval; every other component is rescanned. The round's
//     winner is the best of the component bests under the same order.
//
// Where that rounding argument does not apply — a collapsed window of
// zero or negative width, intensities or the margin outside the normal
// float range with room to spare, more than maxSplitJobs jobs — the
// round runs as one component, which is the plain sweep.
func YDS(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{
		Jobs:   append([]Job(nil), in.Jobs...),
		Speeds: make([]float64, len(in.Jobs)),
	}
	p := newPeeler(in.Jobs)
	var comps, prev []ydsComp
	stable := 0 // leading positions whose jobs and coordinates the last peel left alone
	for len(p.items) > 0 {
		s.Rounds++
		prev, comps = comps, p.components(prev[:0])
		best := ydsComp{g: math.Inf(-1)}
		k := 0
		for c := range comps {
			cc := &comps[c]
			for k < len(prev) && prev[k].lo < cc.lo {
				k++
			}
			if k < len(prev) && prev[k].lo == cc.lo && prev[k].hi == cc.hi && cc.hi <= stable {
				*cc = prev[k]
			} else {
				p.sweep(cc)
			}
			if better(cc.g, cc.t1, cc.t2, best) {
				best = *cc
			}
		}
		stable = p.peel(best, s.Speeds)
	}
	return s, nil
}

const (
	// gapRel is the gap between two window components, relative to the
	// active span, that keeps every interval spanning it from winning a
	// round after rounding (see YDS).
	gapRel = 1e-9
	// maxSplitJobs is the most jobs whose prefix-sum rounding error
	// gapRel covers with a factor of four to spare.
	maxSplitJobs = 1 << 20
)

// ydsItem is one active job in the current, collapsed coordinates.
type ydsItem struct {
	rel, dl, w float64
	idx        int
}

// byDeadline is the sweep order: deadline, then input index.
func byDeadline(a, b ydsItem) int {
	if c := cmp.Compare(a.dl, b.dl); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// ydsComp is one window component — the jobs at positions [lo, hi) of
// the deadline order — with the best interval of its own sweep.
type ydsComp struct {
	lo, hi    int
	g, t1, t2 float64
}

// better reports whether the candidate (g, t1, t2) beats best: higher
// intensity, then earlier start, then earlier end.
func better(g, t1, t2 float64, best ydsComp) bool {
	return g > best.g || (g == best.g && (t1 < best.t1 || (t1 == best.t1 && t2 < best.t2)))
}

// peeler holds the active jobs in deadline order and, alongside, their
// releases in ascending order. Window components are contiguous in
// both: a component's jobs at positions [lo, hi) have the releases
// rels[lo:hi], since every earlier component's jobs are released before
// all of its own and every later one's after.
type peeler struct {
	items  []ydsItem
	rels   []ydsRel
	peeled []bool // by input index
}

// ydsRel is one active job's release, with the job's input index.
type ydsRel struct {
	t   float64
	idx int
}

func newPeeler(jobs []Job) *peeler {
	p := &peeler{items: make([]ydsItem, 0, len(jobs)), peeled: make([]bool, len(jobs))}
	for i, j := range jobs {
		if j.Cycles > 0 {
			p.items = append(p.items, ydsItem{rel: j.Release, dl: j.Deadline, w: j.Cycles, idx: i})
		}
	}
	slices.SortFunc(p.items, byDeadline)
	p.rels = make([]ydsRel, len(p.items))
	for k, it := range p.items {
		p.rels[k] = ydsRel{t: it.rel, idx: it.idx}
	}
	slices.SortFunc(p.rels, byRelease)
	return p
}

func byRelease(a, b ydsRel) int { return cmp.Compare(a.t, b.t) }

// components appends the window components of the deadline order to
// comps, in order, with empty bests.
func (p *peeler) components(comps []ydsComp) []ydsComp {
	margin := p.gapMargin()
	items := p.items
	hi := len(items)
	minRel := math.Inf(1)
	for k := len(items) - 1; k > 0; k-- {
		if items[k].rel < minRel {
			minRel = items[k].rel
		}
		if minRel-items[k-1].dl > margin {
			comps = append(comps, ydsComp{lo: k, hi: hi})
			hi = k
		}
	}
	comps = append(comps, ydsComp{lo: 0, hi: hi})
	slices.Reverse(comps)
	return comps
}

// gapMargin is the gap a component boundary must exceed: gapRel of the
// active span, or +Inf (no boundary) outside the range the rounding
// argument in YDS covers.
func (p *peeler) gapMargin() float64 {
	if len(p.items) > maxSplitJobs {
		return math.Inf(1)
	}
	span := p.items[len(p.items)-1].dl - p.rels[0].t
	wSum, wMin, widthMin := 0.0, math.Inf(1), math.Inf(1)
	for _, it := range p.items {
		wSum += it.w
		if it.w < wMin {
			wMin = it.w
		}
		if width := it.dl - it.rel; width < widthMin {
			widthMin = width
		}
	}
	if !(widthMin > 0) || wSum/widthMin > 0x1p1000 || wMin/span < 0x1p-1000 || gapRel*span < 0x1p-1000 {
		return math.Inf(1)
	}
	return gapRel * span
}

// sweep finds the component's best interval, sweeping each of its
// distinct releases from the first deadline after it to the
// component's end.
func (p *peeler) sweep(c *ydsComp) {
	items := p.items[c.lo:c.hi]
	best := ydsComp{g: math.Inf(-1)}
	start := 0
	for k, r := range p.rels[c.lo:c.hi] {
		t1 := r.t
		if k > 0 && t1 == p.rels[c.lo+k-1].t {
			continue
		}
		for start < len(items) && items[start].dl <= t1 {
			start++
		}
		w := 0.0
		for _, it := range items[start:] {
			if it.rel < t1 {
				continue
			}
			w += it.w
			if g := w / (it.dl - t1); better(g, t1, it.dl, best) {
				best.g, best.t1, best.t2 = g, t1, it.dl
			}
		}
	}
	c.g, c.t1, c.t2 = best.g, best.t1, best.t2
}

// peel assigns the winner's intensity to the jobs inside [t1, t2],
// collapses the interval out of the other windows and restores both
// orders. It returns how many leading positions of the deadline order
// still hold the same jobs at the same coordinates.
func (p *peeler) peel(best ydsComp, speeds []float64) int {
	t1, t2 := best.t1, best.t2
	length := t2 - t1
	collapse := func(t float64) float64 {
		switch {
		case t <= t1:
			return t
		case t >= t2:
			return t - length
		default:
			return t1
		}
	}
	n, stable := 0, len(p.items)
	for _, it := range p.items {
		if it.rel >= t1 && it.dl <= t2 {
			speeds[it.idx] = best.g
			p.peeled[it.idx] = true
			stable = min(stable, n)
			continue
		}
		rel, dl := collapse(it.rel), collapse(it.dl)
		if rel != it.rel || dl != it.dl {
			stable = min(stable, n)
		}
		p.items[n] = ydsItem{rel: rel, dl: dl, w: it.w, idx: it.idx}
		n++
	}
	p.items = p.items[:n]
	// Deadlines inside the interval snapped to t1 and now tie with
	// each other (and with deadlines already at t1), so their index
	// order must be restored; positions before stable are in order.
	for i := max(stable, 1); i < n; i++ {
		it, j := p.items[i], i
		for j > 0 && byDeadline(it, p.items[j-1]) < 0 {
			p.items[j] = p.items[j-1]
			j--
		}
		p.items[j] = it
		stable = min(stable, j)
	}

	m := 0
	for _, r := range p.rels {
		if !p.peeled[r.idx] {
			p.rels[m] = ydsRel{t: collapse(r.t), idx: r.idx}
			m++
		}
	}
	p.rels = p.rels[:m]
	// Collapsing keeps the releases in order except one at exactly t2,
	// which t2 − length can round below t1; the sweep's start pointer
	// and the component ranges rely on the order, so one insertion pass
	// restores it. Nothing reads the order among equal releases: the
	// sweep skips repeats and gapMargin reads only the first.
	for i := 1; i < m; i++ {
		r, j := p.rels[i], i
		for j > 0 && p.rels[j-1].t > r.t {
			p.rels[j] = p.rels[j-1]
			j--
		}
		p.rels[j] = r
	}
	return stable
}

// MaxSpeed is the highest intensity in the schedule — the speed the
// platform must sustain for the instance to be feasible at all.
func (s *Schedule) MaxSpeed() float64 {
	var m float64
	for _, v := range s.Speeds {
		m = math.Max(m, v)
	}
	return m
}

// EnergyContinuous prices the schedule under the model with speeds
// allowed anywhere on the positive reals: each job pays
// Cycles · inf_{f >= speed} E(f), the per-cycle energy at its intensity
// floored at the model's critical speed. By YDS optimality (the
// per-cycle energy is convex and idling is free) this is a lower bound
// on the energy of every schedule — any speed profile, including
// discrete-frequency ones — that executes the instance's work inside
// its windows.
func (s *Schedule) EnergyContinuous(m energy.Model) float64 {
	var total float64
	for i, j := range s.Jobs {
		if j.Cycles <= 0 {
			continue
		}
		total += j.Cycles * perCycleAtLeast(m, s.Speeds[i])
	}
	return total
}

// EnergyDiscrete prices the schedule against the platform's frequency
// table: each job pays Cycles · the cheapest per-cycle cost of any
// mixture of table frequencies whose cycle-weighted harmonic-mean speed
// still reaches the job's intensity (the lower convex envelope of the
// table points, with idling free). Every schedule restricted to table
// frequencies pays at least this, and because the envelope lies on or
// above the continuous curve, EnergyDiscrete >= EnergyContinuous —
// a second, tighter lower bound for platform-feasible instances.
//
// Intensities above the table maximum are clamped to it: no
// table-speed schedule can realize them, and instances derived from
// real executions (ExecutedInstance) never produce them.
func (s *Schedule) EnergyDiscrete(m energy.Model, ft cpu.FrequencyTable) float64 {
	var total float64
	fm := ft.Max()
	for i, j := range s.Jobs {
		if j.Cycles <= 0 {
			continue
		}
		total += j.Cycles * perCycleTable(m, ft, math.Min(s.Speeds[i], fm))
	}
	return total
}

// perCycleAtLeast returns inf over f >= s of m.PerCycle(f). The
// per-cycle energy E(f) = S3·f² + S2·f + S1 + S0/f is convex with at
// most one interior minimum, so the infimum is E at the larger of s and
// the critical speed.
func perCycleAtLeast(m energy.Model, s float64) float64 {
	f := math.Max(s, criticalSpeed(m))
	if math.IsInf(f, 1) {
		// S3 = S2 = 0 with S0 > 0: E decreases toward S1 as f grows.
		return m.S1
	}
	if f <= 0 {
		// Zero intensity with a non-increasing-free model: E's limit
		// for f -> 0+ is S1 when S0 == 0 (and s > 0 always holds for
		// positive-work jobs, so this is a defensive fallback).
		if m.S0 == 0 {
			return m.S1
		}
		return math.Inf(1)
	}
	return m.PerCycle(f)
}

// criticalSpeed returns the continuous frequency minimizing the
// per-cycle energy: 0 when E is non-decreasing (S0 == 0), +Inf when it
// is non-increasing (S3 == S2 == 0 with S0 > 0), and otherwise the
// unique root of E'(f) = 2·S3·f + S2 − S0/f², found by bisection on
// the strictly increasing derivative.
func criticalSpeed(m energy.Model) float64 {
	if m.S0 <= 0 {
		return 0
	}
	if m.S3 <= 0 && m.S2 <= 0 {
		return math.Inf(1)
	}
	deriv := func(f float64) float64 { return 2*m.S3*f + m.S2 - m.S0/(f*f) }
	lo, hi := 1.0, 2.0
	for deriv(lo) > 0 {
		lo /= 2
	}
	for deriv(hi) < 0 {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if deriv(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// perCycleTable returns the minimum per-cycle energy of any mixture of
// table frequencies sustaining cycle-weighted harmonic-mean speed >= s:
// minimize Σ λ_k E(f_k) subject to Σ λ_k / f_k <= 1/s, Σ λ_k = 1,
// λ >= 0. The linear program has one non-trivial constraint, so an
// optimum mixes at most two table points (or uses one, idling any
// slack); enumerating singles and pairs solves it exactly.
func perCycleTable(m energy.Model, ft cpu.FrequencyTable, s float64) float64 {
	best := math.Inf(1)
	for _, f := range ft {
		if f >= s {
			best = math.Min(best, m.PerCycle(f))
		}
	}
	for _, fa := range ft {
		if fa <= 0 || fa >= s {
			continue
		}
		ea := m.PerCycle(fa)
		for _, fb := range ft {
			if fb <= s {
				continue
			}
			// λ cycles at fa, (1−λ) at fb, time constraint tight:
			// λ/fa + (1−λ)/fb = 1/s.
			lam := (1/s - 1/fb) / (1/fa - 1/fb)
			if lam < 0 || lam > 1 {
				continue
			}
			best = math.Min(best, lam*ea+(1-lam)*m.PerCycle(fb))
		}
	}
	return best
}
