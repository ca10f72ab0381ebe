// Package uam implements the Unimodal Arbitrary Arrival Model of the paper
// (Section 2.1, after Hermant & Le Lann).
//
// A UAM specification ⟨a, P⟩ bounds a task's arrival process: during any
// sliding time window of length P at most a job instances arrive.
// Simultaneous arrivals are allowed, and the periodic model is the special
// case ⟨1, P⟩ with P both the upper and lower bound on the inter-arrival
// gap.
//
// Window convention: windows are half-open, [t, t+P). Equivalently, a
// sorted arrival sequence t_0 <= t_1 <= ... complies with ⟨a, P⟩ iff
// t_{i+a} − t_i >= P for every i. All generators in this package produce
// compliant traces by construction, and Compliant verifies arbitrary
// traces against that inequality.
package uam

import (
	"fmt"
	"math"
	"sort"

	"github.com/euastar/euastar/internal/rng"
)

// relTol absorbs floating-point rounding at exact window boundaries: a gap
// within relTol·P of P counts as a full window. Generators place arrivals
// at multiples of P/A, whose sums can round a few ULPs below P.
const relTol = 1e-9

// Spec is a UAM arrival specification ⟨a, P⟩: at most A arrivals during any
// sliding window of length P seconds.
type Spec struct {
	A int     // maximum arrivals per window, >= 1
	P float64 // window length in seconds, > 0
}

// Validate reports whether the specification is well formed.
func (s Spec) Validate() error {
	if s.A < 1 {
		return fmt.Errorf("uam: a must be >= 1, got %d", s.A)
	}
	if s.P <= 0 || math.IsInf(s.P, 0) || math.IsNaN(s.P) {
		return fmt.Errorf("uam: P must be positive and finite, got %g", s.P)
	}
	return nil
}

// MaxRate returns the long-run maximum arrival rate A/P in jobs per second.
func (s Spec) MaxRate() float64 { return float64(s.A) / s.P }

// IsPeriodic reports whether the specification degenerates to the periodic
// model ⟨1, P⟩.
func (s Spec) IsPeriodic() bool { return s.A == 1 }

func (s Spec) String() string { return fmt.Sprintf("<%d, %g>", s.A, s.P) }

// Compliant checks a sorted arrival trace against spec. It returns an
// error identifying the first violating window, or nil. It also rejects
// unsorted or negative-time traces.
func Compliant(arrivals []float64, spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			return fmt.Errorf("uam: trace not sorted at index %d", i)
		}
	}
	if len(arrivals) > 0 && arrivals[0] < 0 {
		return fmt.Errorf("uam: negative arrival time %g", arrivals[0])
	}
	tol := relTol * spec.P
	for i := 0; i+spec.A < len(arrivals); i++ {
		if gap := arrivals[i+spec.A] - arrivals[i]; gap < spec.P-tol {
			return fmt.Errorf("uam: %d+1 arrivals within window [%g, %g) of length %g < P=%g",
				spec.A, arrivals[i], arrivals[i+spec.A], gap, spec.P)
		}
	}
	return nil
}

// Generator produces UAM-compliant arrival traces on [0, horizon).
type Generator interface {
	// Spec returns the UAM specification the generator honours.
	Spec() Spec
	// Generate returns a sorted, compliant arrival trace covering
	// [0, horizon). Implementations must be deterministic given src.
	Generate(horizon float64, src *rng.Source) []float64
	// Name identifies the arrival pattern in experiment output.
	Name() string
}

// Burst releases all A instances simultaneously at the start of every
// window: arrivals at k·P, each with multiplicity A. This is the strongest
// adversary the model admits and the pattern used for the paper's Figure 3
// (instances "may arrive simultaneously").
type Burst struct {
	S Spec
	// Offset shifts the first burst; it must lie in [0, P).
	Offset float64
}

// Spec implements Generator.
func (b Burst) Spec() Spec { return b.S }

// Name implements Generator.
func (b Burst) Name() string { return "burst" }

// Generate implements Generator.
func (b Burst) Generate(horizon float64, _ *rng.Source) []float64 {
	mustValid(b.S)
	if b.Offset < 0 || b.Offset >= b.S.P {
		panic(fmt.Sprintf("uam: burst offset %g outside [0, P)", b.Offset))
	}
	out := make([]float64, 0, sizeHint(horizon-b.Offset, b.S.P, b.S.A))
	// Compute burst times by multiplication (not accumulation) so that the
	// k-th burst lands exactly at offset + k·P without rounding drift.
	for k := 0; ; k++ {
		t := b.Offset + float64(k)*b.S.P
		if t >= horizon {
			break
		}
		for i := 0; i < b.S.A; i++ {
			out = append(out, t)
		}
	}
	return out
}

// Even spreads the A instances evenly across each window: one arrival
// every P/A. For A = 1 this is the classical periodic arrival pattern.
type Even struct {
	S Spec
	// Offset shifts the whole train; it must lie in [0, P/A).
	Offset float64
}

// Spec implements Generator.
func (e Even) Spec() Spec { return e.S }

// Name implements Generator.
func (e Even) Name() string { return "even" }

// Generate implements Generator.
func (e Even) Generate(horizon float64, _ *rng.Source) []float64 {
	mustValid(e.S)
	step := e.S.P / float64(e.S.A)
	if e.Offset < 0 || e.Offset >= step {
		panic(fmt.Sprintf("uam: even offset %g outside [0, P/A)", e.Offset))
	}
	out := make([]float64, 0, sizeHint(horizon-e.Offset, step, 1))
	for k := 0; ; k++ {
		t := e.Offset + float64(k)*step
		if t >= horizon {
			break
		}
		out = append(out, t)
	}
	return out
}

// RandomBurst releases all A instances simultaneously at a uniformly
// random point of each window, clamped to UAM compliance. Unlike Burst
// (fixed phase), the burst instant is unpredictable, which is what defeats
// slack estimation in DVS schedulers — the regime of the paper's Figure 3.
type RandomBurst struct {
	S Spec
}

// Spec implements Generator.
func (r RandomBurst) Spec() Spec { return r.S }

// Name implements Generator.
func (r RandomBurst) Name() string { return "randburst" }

// Generate implements Generator.
func (r RandomBurst) Generate(horizon float64, src *rng.Source) []float64 {
	mustValid(r.S)
	// At most one burst starts in each window [k·P, (k+1)·P).
	out := make([]float64, 0, sizeHint(horizon, r.S.P, r.S.A))
	for k := 0; ; k++ {
		t := float64(k)*r.S.P + src.Uniform(0, r.S.P)
		if len(out) >= r.S.A {
			if floor := out[len(out)-r.S.A] + r.S.P; t < floor {
				t = floor
			}
		}
		if t >= horizon {
			break
		}
		for i := 0; i < r.S.A; i++ {
			out = append(out, t)
		}
	}
	return out
}

// Jittered perturbs the even train with bounded uniform jitter and then
// repairs any sliding-window violation by pushing arrivals later, so the
// output remains compliant by construction. JitterFrac is the jitter
// amplitude as a fraction of P/A, in [0, 1].
type Jittered struct {
	S          Spec
	JitterFrac float64
}

// Spec implements Generator.
func (j Jittered) Spec() Spec { return j.S }

// Name implements Generator.
func (j Jittered) Name() string { return "jittered" }

// Generate implements Generator.
func (j Jittered) Generate(horizon float64, src *rng.Source) []float64 {
	mustValid(j.S)
	if j.JitterFrac < 0 || j.JitterFrac > 1 {
		panic(fmt.Sprintf("uam: jitter fraction %g outside [0,1]", j.JitterFrac))
	}
	step := j.S.P / float64(j.S.A)
	var out []float64
	for k := 0; ; k++ {
		t := float64(k)*step + src.Uniform(0, j.JitterFrac*step)
		t = repair(out, t, j.S)
		if t >= horizon {
			break
		}
		out = append(out, t)
	}
	return out
}

// Poisson draws exponential inter-arrival gaps with the given mean rate
// (jobs/second) and clamps each arrival to the UAM constraint, yielding a
// bursty but compliant trace. Rates above Spec.MaxRate() saturate at the
// model's maximum density.
type Poisson struct {
	S    Spec
	Rate float64
}

// Spec implements Generator.
func (p Poisson) Spec() Spec { return p.S }

// Name implements Generator.
func (p Poisson) Name() string { return "poisson" }

// Generate implements Generator.
func (p Poisson) Generate(horizon float64, src *rng.Source) []float64 {
	mustValid(p.S)
	if p.Rate <= 0 {
		panic(fmt.Sprintf("uam: poisson rate %g must be positive", p.Rate))
	}
	var out []float64
	t := 0.0
	for {
		t += src.Exponential(p.Rate)
		at := repair(out, t, p.S)
		if at >= horizon {
			break
		}
		out = append(out, at)
		t = at
	}
	return out
}

// repair returns the earliest time >= t at which one more arrival can be
// appended to the sorted compliant trace without violating spec.
func repair(trace []float64, t float64, spec Spec) float64 {
	if len(trace) >= spec.A {
		if floor := trace[len(trace)-spec.A] + spec.P; t < floor {
			return floor
		}
	}
	if len(trace) > 0 && t < trace[len(trace)-1] {
		return trace[len(trace)-1]
	}
	return t
}

// Merge combines several sorted traces into one sorted trace, returning
// the merged times and, in parallel, the index of the source trace each
// arrival came from. It is used to interleave per-task arrival streams
// into a single event feed.
func Merge(traces ...[]float64) (times []float64, source []int) {
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	type tagged struct {
		t   float64
		src int
	}
	all := make([]tagged, 0, total)
	for s, tr := range traces {
		for _, t := range tr {
			all = append(all, tagged{t, s})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })
	times = make([]float64, total)
	source = make([]int, total)
	for i, a := range all {
		times[i], source[i] = a.t, a.src
	}
	return times, source
}

// Density returns the maximum number of arrivals observed in any sliding
// window of length p across the sorted trace — a diagnostic for how close
// a trace comes to its UAM bound.
func Density(arrivals []float64, p float64) int {
	best := 0
	j := 0
	tol := relTol * p
	for i := range arrivals {
		for arrivals[i]-arrivals[j] >= p-tol {
			j++
		}
		if n := i - j + 1; n > best {
			best = n
		}
	}
	return best
}

// Window is one task's release history under ⟨a, P⟩: the last a release
// times, overwritten oldest first so that recording a release never
// allocates. The engine's watchdog checks each release against the
// oldest recorded one, and EUA* bounds when an idle task can next
// release from it.
type Window struct {
	times []float64 // len a
	head  int       // slot of the oldest recorded release
	n     int       // recorded releases, at most a
}

// NewWindow returns an empty window that records into buf and so keeps
// the last len(buf) releases; len(buf) is the task's bound a.
func NewWindow(buf []float64) Window { return Window{times: buf} }

// Push records a release at t, dropping the oldest once the window holds a.
func (w *Window) Push(t float64) {
	if w.n < len(w.times) {
		w.times[w.n] = t // head stays 0 until the window first fills
		w.n++
		return
	}
	w.times[w.head] = t
	w.head = (w.head + 1) % len(w.times)
}

// Len returns the number of recorded releases, at most a.
func (w *Window) Len() int { return w.n }

// Oldest returns the oldest recorded release; once the window is full it
// is the a-th most recent one.
func (w *Window) Oldest() float64 { return w.times[w.head] }

// CountAfter returns how many recorded releases lie strictly after t.
func (w *Window) CountAfter(t float64) int {
	c := 0
	for _, rel := range w.times[:w.n] {
		if rel > t {
			c++
		}
	}
	return c
}

// sizeHint is the capacity for a trace of mult arrivals at each step of
// [0, span): the count the fixed-phase generators produce, and an upper
// bound for RandomBurst. It is only a capacity, so rounding at the
// horizon cannot change a trace; a span that is not a sane count of
// steps (NaN, infinite, negative) gives 0.
func sizeHint(span, step float64, mult int) int {
	n := math.Ceil(span/step) * float64(mult)
	if !(n > 0 && n < math.MaxInt32) {
		return 0
	}
	return int(n)
}

func mustValid(s Spec) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
}
