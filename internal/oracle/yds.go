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

	// swept and skipped count, over all rounds, the distinct releases of
	// rescanned components that were swept and that their carried
	// bound let the round skip.
	swept, skipped int
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
// A round forms only the candidates that can decide it, with the float
// operations of the plain peel (ydsReference in the tests), so Speeds
// and Rounds match it bit for bit:
//
//   - The jobs stay in (deadline, index) order across rounds and their
//     releases in ascending order. A peel moves few of them (the
//     snapped deadlines, up to rounding), so each job is inserted into
//     place as it is written back; nothing before the first deadline
//     after t1 or the first release at or after t1 moves at all.
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
//   - Every release carries a bound: the highest intensity its
//     candidates computed when it was last swept, or +Inf. A rescanned
//     component sweeps the releases without a bound, then the one with
//     the highest bound, then the others in order, skipping each whose
//     bound times 1 + slack is below the running best. Every candidate
//     of a skipped release computes strictly less than that best, so it
//     neither wins nor ties, and the component's best is the full
//     sweep's.
//
// The bound carries across peels because, in exact arithmetic, a peel
// never raises the best intensity of a release outside [t1, t2].
// Candidates left of t1 are untouched and candidates right of t2 only
// shift. A candidate from r < t1 to d that spans the peeled interval,
// or ends at the snapped t1, maps to the last round's candidate from r
// to max(d, t2): that one held all of its work and the peeled work
// g·(t2 − t1) besides, in t2 − t1 more time, so the new intensity can
// exceed the old only if the old exceeded g. Floats weaken each step,
// and slack covers every case:
//
//   - The computed maximum against the exact one: g above is the exact
//     intensity of the peeled jobs, which can lie below the exact
//     maximum by rounding. A release before t1 in the winner's
//     component keeps its bound only if the bound times 1 + slack is
//     below the winner's computed intensity; its exact best is then
//     below g. (The candidates of other components never reach the
//     peeled interval.)
//   - Collapsing: t − (t2 − t1) lands within e = 4·2⁻⁵³·mag0 of the
//     exact image, mag0 being the largest coordinate magnitude at the
//     start, which later rounds exceed by a factor of at most
//     1 + 4·n0·2⁻⁵³. A candidate's width therefore differs from its
//     exact image's by at most 2e, against a width of at least w, the
//     least window width of the round that reads the bound: every
//     candidate holds the whole window of the job at its end.
//   - Coordinates that round together: several releases (or deadlines)
//     can collapse onto one value. A new candidate maps to the widest
//     old candidate collapsing onto it — from the smallest release, to
//     the largest deadline — which held all of its work, and a value's
//     bound is the largest of its entries'. The collapse is not
//     monotone at t2, where t2 − (t2 − t1) can round below t1, so a
//     release in [t1, t2], or past t2 that lands at t1 or below, is
//     reset to +Inf: its new candidates can hold jobs released before
//     it.
//   - Candidates that end at the snapped t1 hold the jobs whose
//     deadlines snapped there from inside the interval; they map to the
//     last round's candidates that end at t2, as above.
//   - Component boundaries that move: a bound covers only the
//     candidates inside its component. Each release entry carries the
//     label of the component it was last scanned in, and a rescanned
//     component whose entries carry two labels joins jobs of two
//     earlier components, so its bounds are reset to +Inf. A component
//     that splits keeps them.
//   - Bounds carried over several rounds: going back from the reading
//     round, each step maps a candidate to a last-round one whose
//     collapsed width is within 2e of its own, so over at most n0
//     peels (n0 the instance's job count) every candidate of the chain
//     is at least half as wide while 4·n0·e ≤ w, and the chain grows
//     the bound by a factor of at most 1 + 8·n0·e/w, which is
//     1 + 32·n0·2⁻⁵³·mag0/w.
//
// Each computed intensity is within a relative (n0+2)·2⁻⁵³ of its exact
// value, at the round that recorded the bound and at the round that
// reads it, so the bound needs a relative slack of
// 3·(n0+2)·2⁻⁵³ + 33·n0·2⁻⁵³·mag0/w; slack is (n0+2)·2⁻⁴⁵·(1 + mag0/w),
// which covers that more than seven times over.
//
// Where the gap argument does not apply — a collapsed window of zero or
// negative width, intensities or the margin outside the normal float
// range with room to spare, more than maxSplitJobs jobs — the round
// runs as one component, which is the plain sweep. Such a round, and
// one whose slack exceeds maxSlack, prunes nothing and records no
// bounds.
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
	s.swept, s.skipped = p.swept, p.skipped
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
	// maxSlack is the largest bound slack a round prunes with; below it
	// the approximations in the slack argument of YDS hold.
	maxSlack = 0x1p-10
	// sweptLabel marks, within one sweep, the release entries already
	// swept.
	sweptLabel = -1
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
	// n0 and mag0 are the job count and the largest coordinate magnitude
	// at the start, which bound every later round's (see YDS).
	n0   int
	mag0 float64
	// slack is the round's relative margin on a carried bound, +Inf
	// when the round prunes nothing (see YDS).
	slack          float64
	swept, skipped int
}

// ydsRel is one active job's release, with the job's input index, the
// bound carried from the last sweep of the release and the label of the
// component it was last scanned in (see YDS).
type ydsRel struct {
	t, bound   float64
	idx, label int
}

func newPeeler(jobs []Job) *peeler {
	p := &peeler{items: make([]ydsItem, 0, len(jobs)), peeled: make([]bool, len(jobs))}
	for i, j := range jobs {
		if j.Cycles > 0 {
			p.items = append(p.items, ydsItem{rel: j.Release, dl: j.Deadline, w: j.Cycles, idx: i})
		}
	}
	slices.SortFunc(p.items, byDeadline)
	// Windows of similar width are released nearly in deadline order,
	// so one insertion pass over that order sorts the releases.
	p.rels = make([]ydsRel, len(p.items))
	for k, it := range p.items {
		r, j := ydsRel{t: it.rel, bound: math.Inf(1), idx: it.idx}, k
		for j > 0 && p.rels[j-1].t > r.t {
			p.rels[j] = p.rels[j-1]
			j--
		}
		p.rels[j] = r
	}
	if n := len(p.items); n > 0 {
		p.n0 = n
		p.mag0 = max(math.Abs(p.rels[0].t), math.Abs(p.items[n-1].dl))
	}
	return p
}

// components appends the window components of the deadline order to
// comps, in order, with empty bests, and sets the round's slack. A
// boundary needs a gap above gapRel of the active span. Outside the
// range the rounding arguments of YDS cover, the whole order is one
// component and the slack is +Inf.
func (p *peeler) components(comps []ydsComp) []ydsComp {
	inf := math.Inf(1)
	items := p.items
	n, base := len(items), len(comps)
	span := items[n-1].dl - p.rels[0].t
	margin := gapRel * span
	hi := n
	minRel, wSum, wMin, widthMin := inf, 0.0, inf, inf
	for k := n - 1; k >= 0; k-- {
		it := &items[k]
		wSum += it.w
		if it.w < wMin {
			wMin = it.w
		}
		if width := it.dl - it.rel; width < widthMin {
			widthMin = width
		}
		if it.rel < minRel {
			minRel = it.rel
		}
		if k > 0 && minRel-items[k-1].dl > margin {
			comps = append(comps, ydsComp{lo: k, hi: hi})
			hi = k
		}
	}
	p.slack = inf
	if n > maxSplitJobs || !(widthMin > 0) || wSum/widthMin > 0x1p1000 || wMin/span < 0x1p-1000 || margin < 0x1p-1000 {
		return append(comps[:base], ydsComp{lo: 0, hi: n})
	}
	if slack := float64(p.n0+2) * 0x1p-45 * (1 + p.mag0/widthMin); slack <= maxSlack {
		p.slack = slack
	}
	comps = append(comps, ydsComp{lo: 0, hi: hi})
	slices.Reverse(comps[base:])
	return comps
}

// sweep finds the component's best interval, sweeping each release
// from the first deadline after it to the component's end: first the
// releases without a bound, then the one with the highest bound, then
// the rest in ascending order, skipping each whose bound times
// 1 + slack is below the running best. It relabels the component's
// release entries.
func (p *peeler) sweep(c *ydsComp) {
	items := p.items[c.lo:c.hi]
	rels := p.rels[c.lo:c.hi]
	// A round that prunes nothing sweeps every release in order, and a
	// component whose entries carry two labels joins jobs of two
	// earlier components, whose bounds do not cover it.
	reset := p.slack == math.Inf(1)
	for i := 1; i < len(rels) && !reset; i++ {
		reset = rels[i].label != rels[0].label
	}
	if reset {
		for i := range rels {
			rels[i].bound = math.Inf(1)
		}
	}
	best := ydsComp{g: math.Inf(-1)}
	top, topStart, topBound := -1, 0, math.Inf(-1)
	for k, start := 0, 0; k < len(rels); {
		e, bound := release(rels, k)
		for start < len(items) && items[start].dl <= rels[k].t {
			start++
		}
		if bound == math.Inf(1) {
			p.sweepRelease(items[start:], rels[k:e], &best)
		} else if bound > topBound {
			top, topStart, topBound = k, start, bound
		}
		k = e
	}
	if top >= 0 && !(topBound*(1+p.slack) < best.g) {
		e, _ := release(rels, top)
		p.sweepRelease(items[topStart:], rels[top:e], &best)
	}
	label := rels[0].idx
	for k, start := 0, 0; k < len(rels); {
		e, bound := release(rels, k)
		switch {
		case rels[k].label == sweptLabel:
		case bound*(1+p.slack) < best.g:
			p.skipped++
		default:
			for start < len(items) && items[start].dl <= rels[k].t {
				start++
			}
			p.sweepRelease(items[start:], rels[k:e], &best)
		}
		for ; k < e; k++ {
			rels[k].label = label
		}
	}
	c.g, c.t1, c.t2 = best.g, best.t1, best.t2
}

// release returns the end of the entries of the release at rels[k],
// which are adjacent, and the largest of their bounds.
func release(rels []ydsRel, k int) (end int, bound float64) {
	bound = math.Inf(-1)
	for end = k; end < len(rels) && rels[end].t == rels[k].t; end++ {
		if rels[end].bound > bound {
			bound = rels[end].bound
		}
	}
	return end, bound
}

// sweepRelease forms the candidates of the release rels[0].t over
// items, which start at the first deadline after it, folds its best
// candidate into best and records its highest intensity as the bound of
// the release's entries (+Inf when slack is, as such a round's rounding
// argument does not hold).
func (p *peeler) sweepRelease(items []ydsItem, rels []ydsRel, best *ydsComp) {
	t1 := rels[0].t
	top, t2, w := math.Inf(-1), 0.0, 0.0
	for _, it := range items {
		if it.rel < t1 {
			continue
		}
		w += it.w
		if g := w / (it.dl - t1); g > top {
			top, t2 = g, it.dl
		}
	}
	if top > math.Inf(-1) && better(top, t1, t2, *best) {
		best.g, best.t1, best.t2 = top, t1, t2
	}
	if p.slack == math.Inf(1) {
		top = math.Inf(1)
	}
	for i := range rels {
		rels[i].bound, rels[i].label = top, sweptLabel
	}
	p.swept++
}

// peel assigns the winner's intensity to the jobs inside [t1, t2],
// collapses the interval out of the other windows and restores both
// orders; jobs with a deadline at or before t1 and releases before t1
// are untouched. It resets the bounds the peel may have outgrown (see
// YDS) and returns how many leading positions of the deadline order
// still hold the same jobs at the same coordinates.
func (p *peeler) peel(win ydsComp, speeds []float64) int {
	t1, t2 := win.t1, win.t2
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
	// A release before t1 in the winner's component keeps its bound
	// only if its exact best lies below the peeled jobs' intensity.
	q := win.lo
	for ; q < win.hi && p.rels[q].t < t1; q++ {
		if !(p.rels[q].bound*(1+p.slack) < win.g) {
			p.rels[q].bound = math.Inf(1)
		}
	}
	k := win.lo
	for k < win.hi && p.items[k].dl <= t1 {
		k++
	}
	// Deadlines inside the interval snap to t1 and tie with each other
	// (and with deadlines already at t1), so each kept job is inserted
	// into place by (deadline, index) as it is written back.
	n, stable := k, len(p.items)
	for _, it := range p.items[k:] {
		if it.rel >= t1 && it.dl <= t2 {
			speeds[it.idx] = win.g
			p.peeled[it.idx] = true
			stable = min(stable, n)
			continue
		}
		moved := ydsItem{rel: collapse(it.rel), dl: collapse(it.dl), w: it.w, idx: it.idx}
		if moved.rel != it.rel || moved.dl != it.dl {
			stable = min(stable, n)
		}
		j := n
		for ; j > 0 && byDeadline(moved, p.items[j-1]) < 0; j-- {
			p.items[j] = p.items[j-1]
		}
		p.items[j] = moved
		stable = min(stable, j)
		n++
	}
	p.items = p.items[:n]

	// Collapsing keeps the releases in order except one at exactly t2,
	// which t2 − length can round below t1; the sweep's start pointer
	// and the component ranges rely on the order, so each kept release
	// is inserted into place as it is written back. Nothing reads the
	// order among equal releases: the sweep takes the largest bound of
	// a release's entries, and components reads only the first. A
	// release in [t1, t2], or one past t2 that lands at t1 or below,
	// loses its bound (see YDS).
	m := q
	for _, r := range p.rels[q:] {
		if p.peeled[r.idx] {
			continue
		}
		t := collapse(r.t)
		if r.t <= t2 || t <= t1 {
			r.bound = math.Inf(1)
		}
		r.t = t
		j := m
		for ; j > 0 && p.rels[j-1].t > t; j-- {
			p.rels[j] = p.rels[j-1]
		}
		p.rels[j] = r
		m++
	}
	p.rels = p.rels[:m]
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
//
// The jobs peeled in one round share its intensity, so each distinct
// speed is priced once; the sum still runs in input order.
func (s *Schedule) EnergyDiscrete(m energy.Model, ft cpu.FrequencyTable) float64 {
	var prices priceMemo
	var total float64
	fm := ft.Max()
	for i, j := range s.Jobs {
		if j.Cycles <= 0 {
			continue
		}
		total += j.Cycles * prices.get(m, ft, math.Min(s.Speeds[i], fm))
	}
	return total
}

// priceMemo remembers perCycleTable by speed in a fixed open-addressed
// table, so it lives on the caller's stack. Once the table is three
// quarters full, new speeds are priced without being remembered.
type priceMemo struct {
	n     int
	used  [priceSlots]bool
	speed [priceSlots]uint64
	price [priceSlots]float64
}

const priceSlots = 128

func (pm *priceMemo) get(m energy.Model, ft cpu.FrequencyTable, s float64) float64 {
	key := math.Float64bits(s)
	i := (key * 0x9e3779b97f4a7c15) >> 57 // the top 7 bits of a Fibonacci hash
	for ; pm.used[i]; i = (i + 1) % priceSlots {
		if pm.speed[i] == key {
			return pm.price[i]
		}
	}
	price := perCycleTable(m, ft, s)
	if pm.n < priceSlots*3/4 {
		pm.used[i], pm.speed[i], pm.price[i] = true, key, price
		pm.n++
	}
	return price
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
