package engine

import (
	"errors"
	"slices"
	"strconv"
	"time"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sim"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
)

// Metric names the engine registers. Result's integer fields read the
// run's own counts; the registered series exist only when
// Config.Telemetry is set, and receive a run's counts once, when the run
// ends (see DESIGN.md §10).
const (
	MetricEvents       = "euastar_engine_events_total"
	MetricDecisions    = "euastar_engine_decisions_total"
	MetricPreemptions  = "euastar_engine_preemptions_total"
	MetricAborts       = "euastar_engine_aborts_total"
	MetricInvariants   = "euastar_engine_invariant_violations_total"
	MetricFaultEvents  = "euastar_engine_fault_events_total"
	MetricSafeEntries  = "euastar_engine_safe_mode_entries_total"
	MetricJobsShed     = "euastar_engine_jobs_shed_total"
	MetricFreqSwitches = "euastar_engine_freq_switches_total"
	MetricInherit      = "euastar_engine_inheritances_total"
	MetricPendingJobs  = "euastar_engine_pending_jobs"
	MetricQueueDepth   = "euastar_engine_queue_depth"

	// Multi-core-only families, registered only when the run has more than
	// one core so uniprocessor runs export exactly the pre-multicore set.
	MetricMigrations   = "euastar_engine_migrations_total"
	MetricCoreSwitches = "euastar_engine_core_freq_switches_total"
	MetricCoreDispatch = "euastar_engine_core_dispatches_total"
	MetricCoreEnergy   = "euastar_engine_core_energy_joules"
	MetricCoreBusy     = "euastar_engine_core_busy_seconds"
)

// eventKinds is the fixed set of simulation event kinds the engine
// counts, indexed by sim.Kind (Completion, Termination, Arrival, Custom).
var eventKinds = [...]string{"completion", "termination", "arrival", "boundary"}

// abortReasons maps the engine's abort-reason strings onto stable label
// values; anything else (scheduler-set reasons like "infeasible at f_m")
// falls into the last entry, "other".
var abortReasons = [...]struct{ reason, label string }{
	{"termination time reached", "termination"},
	{"scheduler abort", "scheduler"},
	{"energy budget depleted", "budget"},
	{shedReason, "shed"},
	{"resource deadlock resolved", "deadlock"},
	{"", "other"},
}

// invariantNames labels MetricInvariants; an unknown invariant counts as
// the last, InvInternal.
var invariantNames = [...]string{
	InvEventMonotonic, InvQueueMonotonic, InvEnergyAccount,
	InvUtilityBounds, InvUAMCompliance, InvInternal,
}

// The bucket ladders of the decision histograms, shared by every run.
var (
	latencyBounds = telemetry.LatencyBuckets()
	depthBounds   = telemetry.DepthBuckets()
)

// tally is one histogram's share of a run: plain counts per bucket of
// bounds, the last being the overflow bucket, and the values' sum.
type tally struct {
	bounds []float64
	counts []uint64
	sum    float64
}

func newTally(bounds []float64) tally {
	return tally{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// observe counts v in the first bucket whose bound is at least v, the
// bucket telemetry.Histogram.Observe puts it in.
func (t *tally) observe(v float64) {
	i, _ := slices.BinarySearch(t.bounds, v)
	t.counts[i]++
	t.sum += v
}

// instruments holds every count of one engine run in plain fields.
// Result's integer fields read them, and flush adds them to the
// registry, when one is attached, once when the run ends.
type instruments struct {
	events      [len(eventKinds)]int
	decisions   int
	preemptions int
	inherits    int
	faults      int
	safeEntries int
	shed        int
	migrations  int
	iters       int // feasibility trials the decisions reported

	// With a registry only: the epoch of the decision clock, each
	// decision's latency and pending depth, the last depth, and the
	// decisions that changed a core's frequency.
	reg             *telemetry.Registry
	epoch           time.Time
	latency         tally
	depth           tally
	lastDepth       int
	decidedSwitches int
}

// init attaches the run's registry, if any, and starts its decision
// clock.
func (ins *instruments) init(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	ins.reg, ins.epoch = reg, time.Now()
	ins.latency, ins.depth = newTally(latencyBounds), newTally(depthBounds)
}

// clock reads the run's monotonic decision clock: zero, without a read,
// when no registry takes the latencies.
func (ins *instruments) clock() time.Duration {
	if ins.reg == nil {
		return 0
	}
	return time.Since(ins.epoch)
}

// noteEvent counts one processed simulation event.
func (ins *instruments) noteEvent(kind sim.Kind) {
	k := int(kind)
	if k < 0 || k >= len(eventKinds) {
		k = int(sim.Custom)
	}
	ins.events[k]++
}

// eventTotal sums the per-kind counts — Result.Events is this view,
// never a separately incremented field.
func (ins *instruments) eventTotal() int {
	n := 0
	for _, c := range ins.events {
		n += c
	}
	return n
}

// noteDecision counts one scheduler invocation, which started at clock
// reading start and returned d over the pending queue.
func (st *state) noteDecision(start time.Duration, d sched.MultiDecision) {
	ins := &st.ins
	ins.decisions++
	ins.iters += d.Iters
	if ins.reg == nil {
		return
	}
	ins.latency.observe((ins.clock() - start).Seconds())
	ins.lastDepth = len(st.pending)
	ins.depth.observe(float64(ins.lastDepth))
	// Idle cores decide no frequency and are not DVS switches.
	for k := range d.Cores {
		c := &st.cores[k]
		if f := d.Cores[k].Freq; f > 0 {
			if c.decided > 0 && f != c.decided {
				ins.decidedSwitches++
			}
			c.decided = f
		}
	}
}

// flush adds the run's counts to the registry, once, as Run returns:
// res is the finished run's result, nil after an interruption or a
// failure, and err the error Run returns, whose invariant it counts.
func (st *state) flush(res *Result, err error) {
	ins, reg := &st.ins, st.ins.reg
	if reg == nil {
		return
	}
	add := func(c *telemetry.Counter, n int) { c.Add(uint64(n)) }
	if len(st.cores) > 1 {
		add(reg.Counter(MetricMigrations,
			"Dispatches that moved a job to a different core than its previous dispatch."), ins.migrations)
		for k := range st.cores {
			c, l := &st.cores[k], telemetry.L("core", strconv.Itoa(k))
			add(reg.Counter(MetricCoreSwitches, "Commanded DVS frequency switches by core.", l), c.switchSeq)
			add(reg.Counter(MetricCoreDispatch, "Job dispatches by core.", l), c.dispatches)
			energy := reg.Gauge(MetricCoreEnergy, "Per-core metered energy of the last finished run.", l)
			busy := reg.Gauge(MetricCoreBusy, "Per-core busy seconds of the last finished run.", l)
			if res != nil {
				energy.Set(res.PerCore[k].Energy)
				busy.Set(res.PerCore[k].BusyTime)
			}
		}
	}
	for i, kind := range eventKinds {
		add(reg.Counter(MetricEvents, "Processed simulation events by kind.", telemetry.L("kind", kind)), ins.events[i])
	}
	add(reg.Counter(MetricDecisions, "Scheduler invocations."), ins.decisions)
	add(reg.Counter(MetricPreemptions,
		"Dispatches that stopped a still-pending running job in favor of another."), ins.preemptions)
	add(reg.Counter(MetricInherit,
		"Dispatches resolved to the head of the selected job's blocking chain."), ins.inherits)
	add(reg.Counter(MetricFaultEvents,
		"Injected fault manifestations (overruns, sticky/stalled switches, abort spikes)."), ins.faults)
	add(reg.Counter(MetricSafeEntries, "Overload safe-mode activations."), ins.safeEntries)
	add(reg.Counter(MetricJobsShed, "Pending jobs aborted by safe-mode shedding."), ins.shed)
	switches := 0 // a core's switch sequence counts its commanded switches
	for k := range st.cores {
		switches += st.cores[k].switchSeq
	}
	add(reg.Counter(MetricFreqSwitches, "Commanded DVS frequency switches."), switches)

	// Every aborted job of the run holds its final reason.
	var aborted [len(abortReasons)]int
	for _, j := range st.all {
		if j.State == task.Aborted {
			i := 0
			for i < len(abortReasons)-1 && abortReasons[i].reason != j.AbortReason {
				i++
			}
			aborted[i]++
		}
	}
	for i, r := range abortReasons {
		add(reg.Counter(MetricAborts, "Aborted jobs by reason.", telemetry.L("reason", r.label)), aborted[i])
	}
	broke := -1
	if err != nil { // errors.As's target escapes: declare it only when needed
		var ierr *InvariantError
		if errors.As(err, &ierr) {
			if broke = slices.Index(invariantNames[:], ierr.Invariant); broke < 0 {
				broke = len(invariantNames) - 1
			}
		}
	}
	for i, inv := range invariantNames {
		c := reg.Counter(MetricInvariants, "Watchdog invariant violations by invariant.", telemetry.L("invariant", inv))
		if i == broke {
			c.Inc()
		}
	}
	pending := reg.Gauge(MetricPendingJobs, "Released, unresolved jobs.")
	if ins.decisions > 0 {
		pending.Set(float64(ins.lastDepth))
	}
	reg.Histogram(MetricQueueDepth, "Pending-job count observed at each scheduler invocation.",
		depthBounds).AddCounts(ins.depth.counts, ins.depth.sum)

	// The scheduler's families, labeled with its name; one depth tally
	// fills both depth histograms.
	var name string
	if res != nil {
		name = res.SchedulerName
	} else {
		name = st.cfg.Scheduler.Name()
	}
	l := telemetry.L("scheme", name)
	reg.Histogram(sched.MetricDecideSeconds, "Wall-clock seconds per scheduler decision.",
		latencyBounds, l).AddCounts(ins.latency.counts, ins.latency.sum)
	reg.Histogram(sched.MetricReadyJobs, "Ready-queue length observed per scheduler decision.",
		depthBounds, l).AddCounts(ins.depth.counts, ins.depth.sum)
	add(reg.Counter(sched.MetricFeasIters,
		"Feasibility-loop iterations across schedule constructions.", l), ins.iters)
	add(reg.Counter(sched.MetricFreqSwitches,
		"Decisions whose chosen frequency differs from the same core's previous decision's.", l), ins.decidedSwitches)
}
