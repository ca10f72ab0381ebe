// Package bench measures the scheduler hot path: wall-clock nanoseconds
// and heap allocations per simulation event, across a matrix of task
// count × arrival intensity × core count, for EUA* on one core and
// partitioned over several, and for laEDF on one core. Results serialize
// to BENCH_sched.json; Compare gates regressions against a committed
// baseline (see `make bench-check`).
//
// Methodology: each cell runs the full discrete-event engine on a
// synthesized workload (per-cell seed, so every scheme sees the same
// realization) and repeats Reps times. Every repetition's ns/event is
// scaled by a calibration kernel timed beside it (see calib.go), so a
// host that changes speed between repetitions moves the kernel and the
// cell alike, and Sweep interleaves the repetitions across cells, so a
// speed change hits every cell. A cell keeps the median of its
// calibrated repetitions. Over six sweeps of unchanged code on a 2-vCPU
// VM whose speed moved by a third, a cell's median of 15 repetitions
// spread by 7.5% in the median cell and 21% at most; the same
// repetitions left unscaled spread by 28% and 57%. The minima spread by
// up to 40% in an earlier set, since one repetition timed beside a slow
// kernel run reads fast. Allocations are counted via
// runtime.MemStats.Mallocs deltas, which include everything the run
// allocated regardless of collection; a cell keeps their minimum.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/workload"
)

// Scheme names for the configurations under measurement.
const (
	SchemeEUA   = "eua"      // EUA* on one core
	SchemePart  = "eua-part" // partitioned EUA* on Cell.Cores DVS cores
	SchemeLAEDF = "laedf"    // look-ahead EDF with abortion on one core
)

// Cell is one point of the benchmark matrix.
type Cell struct {
	Tasks   int     `json:"tasks"`
	Load    float64 `json:"load"`
	Scheme  string  `json:"scheme"`
	Seed    uint64  `json:"seed"`
	Horizon float64 `json:"horizon"`
	// Cores is the DVS core count for SchemePart cells; zero (the
	// uniprocessor scheme) keeps the pre-multicore JSON shape.
	Cores int `json:"cores,omitempty"`
	// Partition is the SchemePart placement policy ("ff" when empty).
	Partition string `json:"partition,omitempty"`
}

// Key identifies the cell independent of its measurements, for matching
// against a baseline. Uniprocessor keys are unchanged from the
// pre-multicore format so committed baselines keep matching.
func (c Cell) Key() string {
	k := fmt.Sprintf("%d/%g/%s/%d/%g", c.Tasks, c.Load, c.Scheme, c.Seed, c.Horizon)
	if c.Cores > 1 {
		k += fmt.Sprintf("/c%d", c.Cores)
	}
	return k
}

// Measurement is one benchmarked cell. NsPerEvent and EventsPerSec are
// calibrated: scaled to a host on which the calibration kernel takes
// calibNominalNs.
type Measurement struct {
	Cell
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Events         int     `json:"events"`
	Reps           int     `json:"reps"`
}

// reportVersion is the BENCH_sched.json schema. Version 2 holds
// calibrated times; version 1 held raw ones, which cannot be compared
// with them.
const reportVersion = 2

// Report is the BENCH_sched.json document.
type Report struct {
	// Version guards the schema; bump when fields change meaning.
	Version int `json:"version"`
	// Go records the toolchain the numbers were taken with.
	Go    string        `json:"go"`
	Cells []Measurement `json:"cells"`
}

// Options tunes a benchmark sweep.
type Options struct {
	// Reps per cell; the median calibrated ns/event across reps is kept
	// (default 15).
	Reps int
	// Horizon in seconds per run (default 0.4).
	Horizon float64
	// Seed for workload synthesis and arrival realization (default 1).
	Seed uint64
	// Tasks and Loads override the default matrix axes.
	Tasks []int
	Loads []float64
	// Cores sets the partitioned-EUA* core counts benchmarked as the
	// SchemePart rows of the matrix (default 1, 2, 4).
	Cores []int
	// Partition selects the placement policy for the SchemePart rows:
	// "ff" (default) or "wf".
	Partition string
	// Progress, when non-nil, receives one line per cell once all its
	// repetitions are done.
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 15
	}
	if o.Horizon <= 0 {
		o.Horizon = 0.4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Tasks) == 0 {
		o.Tasks = []int{8, 24, 64}
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.5, 1.0, 1.6}
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{1, 2, 4}
	}
	return o
}

// benchApp synthesizes an n-task workload with A2's per-task structure
// (⟨2,P⟩ windows, U_max in [30,40]) so arrival intensity scales with the
// task count rather than being capped at Table 1's sizes.
func benchApp(n int) workload.App {
	a := workload.A2()
	a.Name = fmt.Sprintf("bench-%d", n)
	a.Tasks = n
	return a
}

// cellConfig builds the engine configuration for a cell. Cells that
// differ only in scheme and core count share the workload realization
// exactly (same seed).
func cellConfig(c Cell) (engine.Config, error) {
	ft := cpu.PowerNowK6()
	model, err := energy.NewPreset(energy.E1, ft.Max())
	if err != nil {
		return engine.Config{}, err
	}
	ts, err := benchApp(c.Tasks).Synthesize(rng.New(c.Seed*0x9e3779b9), workload.Options{})
	if err != nil {
		return engine.Config{}, err
	}
	ts = ts.ScaleToLoad(c.Load, ft.Max())
	var s sched.Scheduler
	switch c.Scheme {
	case SchemeLAEDF:
		s = baseline.NewLAEDF(true)
	case SchemePart:
		m := c.Cores
		if m < 1 {
			m = 1
		}
		policy := partition.FirstFit
		if c.Partition != "" {
			policy, err = partition.ParsePolicy(c.Partition)
			if err != nil {
				return engine.Config{}, err
			}
		}
		s = partition.New(m, policy, func() sched.Scheduler { return eua.New() })
	default:
		s = eua.New()
	}
	return engine.Config{
		Tasks:              ts,
		Scheduler:          s,
		Freqs:              ft,
		Cores:              c.Cores,
		Energy:             model,
		Horizon:            c.Horizon,
		Seed:               c.Seed,
		AbortAtTermination: true,
	}, nil
}

// Run benchmarks one cell: one warm-up run, then reps timed runs keeping
// the median calibrated ns/event and the minimum allocs/event.
func Run(c Cell, reps int) (Measurement, error) { return measure(c, reps, nil) }

// measure is Run with an optional telemetry registry attached to every
// engine run — the instrumented side of the overhead comparison.
func measure(c Cell, reps int, reg *telemetry.Registry) (Measurement, error) {
	if reps <= 0 {
		reps = 1
	}
	cal := newCalibrator()
	if _, err := sample(c, reg, cal); err != nil { // warm-up
		return Measurement{}, err
	}
	samples := make([]Measurement, reps)
	for r := range samples {
		s, err := sample(c, reg, cal)
		if err != nil {
			return Measurement{}, err
		}
		samples[r] = s
	}
	return summarize(samples), nil
}

// sample runs a cell once and returns its measurement, the ns/event
// scaled by the calibration kernel timed just before and just after.
func sample(c Cell, reg *telemetry.Registry, cal *calibrator) (Measurement, error) {
	if c.Scheme != SchemeEUA && c.Scheme != SchemePart && c.Scheme != SchemeLAEDF {
		return Measurement{}, fmt.Errorf("bench: unknown scheme %q", c.Scheme)
	}
	cfg, err := cellConfig(c)
	if err != nil {
		return Measurement{}, err
	}
	cfg.Telemetry = reg
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	k0 := cal.time()
	start := time.Now()
	res, err := engine.Run(cfg)
	elapsed := time.Since(start)
	k1 := cal.time()
	runtime.ReadMemStats(&after)
	if err != nil {
		return Measurement{}, err
	}
	if res.Events == 0 {
		return Measurement{}, fmt.Errorf("bench: cell %s processed zero events", c.Key())
	}
	ns := float64(elapsed.Nanoseconds()) * calibNominalNs / min(k0, k1)
	return Measurement{
		Cell:           c,
		NsPerEvent:     ns / float64(res.Events),
		AllocsPerEvent: float64(after.Mallocs-before.Mallocs) / float64(res.Events),
		EventsPerSec:   float64(res.Events) / (ns * 1e-9),
		Events:         res.Events,
	}, nil
}

// summarize folds one cell's repetitions into its measurement: the
// repetition of median ns/event (the upper one of an even count) and
// the minimum allocs/event. It reorders samples.
func summarize(samples []Measurement) Measurement {
	sort.Slice(samples, func(i, j int) bool { return samples[i].NsPerEvent < samples[j].NsPerEvent })
	m := samples[len(samples)/2]
	for _, s := range samples {
		m.AllocsPerEvent = min(m.AllocsPerEvent, s.AllocsPerEvent)
	}
	m.Reps = len(samples)
	return m
}

// Overhead is one cell's enabled-vs-no-op telemetry cost. The no-op side
// runs with Config.Telemetry nil (the default every sweep and test uses);
// the enabled side attaches a live registry, so Percent is exactly the
// price a euad deployment pays for /metrics.
type Overhead struct {
	Cell
	BaseNs    float64 `json:"base_ns_per_event"`    // no-op sink
	EnabledNs float64 `json:"enabled_ns_per_event"` // live registry
	Percent   float64 `json:"percent"`              // 100*(enabled/base - 1)
}

func (o Overhead) String() string {
	return fmt.Sprintf("%s: %.0f -> %.0f ns/event (%+.1f%% with telemetry)",
		o.Key(), o.BaseNs, o.EnabledNs, o.Percent)
}

// MeasureOverhead benchmarks one cell twice — no-op sink, then a live
// registry — under the same median-of-reps methodology as Run.
func MeasureOverhead(c Cell, reps int) (Overhead, error) {
	base, err := measure(c, reps, nil)
	if err != nil {
		return Overhead{}, err
	}
	enabled, err := measure(c, reps, telemetry.NewRegistry())
	if err != nil {
		return Overhead{}, err
	}
	o := Overhead{Cell: c, BaseNs: base.NsPerEvent, EnabledNs: enabled.NsPerEvent}
	if o.BaseNs > 0 {
		o.Percent = 100 * (o.EnabledNs/o.BaseNs - 1)
	}
	return o, nil
}

// Sweep runs the full matrix and returns the report, cells ordered by
// (tasks, load, scheme, cores) for stable diffs. The partitioned rows
// (SchemePart, one per Options.Cores entry) measure the multiprocessor
// engine's per-event cost next to the uniprocessor schemes. Every cell is
// warmed up once; then each repetition runs every cell once, so that the
// repetitions of one cell are spread over the whole sweep.
func Sweep(opts Options) (Report, error) {
	o := opts.withDefaults()
	rep := Report{Version: reportVersion, Go: runtime.Version()}
	var cells []Cell
	for _, n := range o.Tasks {
		for _, load := range o.Loads {
			cells = append(cells,
				Cell{Tasks: n, Load: load, Scheme: SchemeEUA, Seed: o.Seed, Horizon: o.Horizon},
				Cell{Tasks: n, Load: load, Scheme: SchemeLAEDF, Seed: o.Seed, Horizon: o.Horizon})
			for _, cores := range o.Cores {
				cells = append(cells, Cell{Tasks: n, Load: load, Scheme: SchemePart,
					Seed: o.Seed, Horizon: o.Horizon, Cores: cores, Partition: o.Partition})
			}
		}
	}
	cal := newCalibrator()
	samples := make([][]Measurement, len(cells))
	for r := -1; r < o.Reps; r++ {
		for i, c := range cells {
			s, err := sample(c, nil, cal)
			if err != nil {
				return Report{}, fmt.Errorf("bench: cell %s: %w", c.Key(), err)
			}
			if r >= 0 { // r = -1 is the warm-up
				samples[i] = append(samples[i], s)
			}
		}
	}
	for _, ss := range samples {
		rep.Cells = append(rep.Cells, summarize(ss))
	}
	if o.Progress != nil {
		for _, m := range rep.Cells {
			fmt.Fprintf(o.Progress, "bench: %-24s %9.0f ns/event  %6.3f allocs/event  %9.0f events/s\n",
				m.Key(), m.NsPerEvent, m.AllocsPerEvent, m.EventsPerSec)
		}
	}
	return rep, nil
}

// WriteJSON serializes the report with stable formatting.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadJSON parses a report written by WriteJSON.
func ReadJSON(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("bench: bad report: %w", err)
	}
	if rep.Version != reportVersion {
		return Report{}, fmt.Errorf("bench: unsupported report version %d (want %d; refresh it with `make bench-sched`)", rep.Version, reportVersion)
	}
	return rep, nil
}

// The two per-cell quantities Compare gates.
const (
	MetricNs     = "ns/event"
	MetricAllocs = "allocs/event"
)

// AllocSlack is how far a cell's allocs/event may exceed its baseline.
// A cell's allocation count is deterministic, so the slack only absorbs
// the runtime's own stray allocations: about one per run, or 0.001 per
// event on the smallest cells.
const AllocSlack = 0.01

// Regression is one cell whose calibrated ns/event exceeds the
// baseline's by more than the tolerance, or whose allocs/event exceeds
// the baseline's by more than AllocSlack.
type Regression struct {
	Key      string
	Metric   string  // MetricNs or MetricAllocs
	Baseline float64 // baseline value, as committed
	Current  float64 // current value
}

func (r Regression) String() string {
	if r.Metric == MetricAllocs {
		return fmt.Sprintf("%s: %.3f -> %.3f allocs/event (%+.3f)", r.Key, r.Baseline, r.Current, r.Current-r.Baseline)
	}
	return fmt.Sprintf("%s: %.0f -> %.0f ns/event (%+.1f%%)", r.Key, r.Baseline, r.Current, 100*(r.Current/r.Baseline-1))
}

// Compare matches current cells against the baseline by key and returns
// every cell slower than baseline*(1+tolerance) and every cell whose
// allocs/event exceeds the baseline's by more than AllocSlack.
//
// Both reports hold calibrated ns/event, so a host that runs faster or
// slower than the one that produced the baseline needs no further
// normalization. Allocations need none either: a cell allocates the same
// count on any host, so a fixed slack holds a win such as an
// allocation-free event loop exactly where the baseline put it.
//
// Cells present in only one report are ignored: the gate protects
// against slowdowns, not matrix drift (changing the matrix shows up in
// review as a baseline refresh).
func Compare(current, baseline Report, tolerance float64) []Regression {
	base := make(map[string]Measurement, len(baseline.Cells))
	for _, m := range baseline.Cells {
		base[m.Key()] = m
	}
	var regs []Regression
	for _, m := range current.Cells {
		b, ok := base[m.Key()]
		if !ok {
			continue
		}
		if b.NsPerEvent > 0 && m.NsPerEvent > b.NsPerEvent*(1+tolerance) {
			regs = append(regs, Regression{Key: m.Key(), Metric: MetricNs, Baseline: b.NsPerEvent, Current: m.NsPerEvent})
		}
		if m.AllocsPerEvent > b.AllocsPerEvent+AllocSlack {
			regs = append(regs, Regression{Key: m.Key(), Metric: MetricAllocs, Baseline: b.AllocsPerEvent, Current: m.AllocsPerEvent})
		}
	}
	sort.SliceStable(regs, func(i, j int) bool { return regs[i].Key < regs[j].Key })
	return regs
}
