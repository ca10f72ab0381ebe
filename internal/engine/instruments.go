package engine

import (
	"fmt"

	"github.com/euastar/euastar/internal/sim"
	"github.com/euastar/euastar/internal/telemetry"
)

// Metric names the engine registers. The per-run counters behind
// Result's integer fields are always on; the registered series exist
// only when Config.Telemetry is set (see DESIGN.md §10).
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
// falls into "other".
func abortReasonLabel(reason string) string {
	switch reason {
	case "termination time reached":
		return "termination"
	case "scheduler abort":
		return "scheduler"
	case "energy budget depleted":
		return "budget"
	case shedReason:
		return "shed"
	case "resource deadlock resolved":
		return "deadlock"
	}
	return "other"
}

// pairCounter is the engine's counting primitive: an always-on per-run
// counter (the source of Result's integer fields) plus an optional mirror
// registered in a shared registry. Both are incremented by the same call,
// so the Result view and the exported series cannot diverge — the shared
// mirror only ever differs by what *other* runs added to it.
type pairCounter struct {
	run telemetry.Counter  // per-run, always on
	reg *telemetry.Counter // registered mirror, nil without a registry
}

func (p *pairCounter) Inc() {
	p.run.Inc()
	p.reg.Inc()
}

func (p *pairCounter) Add(n uint64) {
	p.run.Add(n)
	p.reg.Add(n)
}

// Value returns the per-run count.
func (p *pairCounter) Value() int { return int(p.run.Value()) }

// instruments gathers every counting site of one engine run.
type instruments struct {
	events      [len(eventKinds)]pairCounter
	decisions   pairCounter
	preemptions pairCounter
	inherits    pairCounter
	faults      pairCounter
	safeEntries pairCounter
	shed        pairCounter
	switches    pairCounter
	migrations  pairCounter

	// Registered-only series: no Result field reads them back.
	aborts     map[string]*telemetry.Counter // by normalized reason
	invariants map[string]*telemetry.Counter // by invariant name
	pending    *telemetry.Gauge
	queueDepth *telemetry.Histogram

	// Core-labeled registered-only series, non-nil only on multi-core
	// runs with a registry (indexed by core id).
	coreSwitches []*telemetry.Counter
	coreDispatch []*telemetry.Counter
	coreEnergy   []*telemetry.Gauge
	coreBusy     []*telemetry.Gauge
}

func (ins *instruments) init(reg *telemetry.Registry, cores int) {
	if reg == nil {
		return // per-run counters stay standalone; every reg pointer stays nil
	}
	if cores > 1 {
		// Core-labeled families exist only on multi-core runs so that
		// uniprocessor runs keep exporting exactly the pre-multicore set.
		ins.migrations.reg = reg.Counter(MetricMigrations,
			"Dispatches that moved a job to a different core than its previous dispatch.")
		ins.coreSwitches = make([]*telemetry.Counter, cores)
		ins.coreDispatch = make([]*telemetry.Counter, cores)
		ins.coreEnergy = make([]*telemetry.Gauge, cores)
		ins.coreBusy = make([]*telemetry.Gauge, cores)
		for k := 0; k < cores; k++ {
			l := telemetry.L("core", fmt.Sprint(k))
			ins.coreSwitches[k] = reg.Counter(MetricCoreSwitches,
				"Commanded DVS frequency switches by core.", l)
			ins.coreDispatch[k] = reg.Counter(MetricCoreDispatch,
				"Job dispatches by core.", l)
			ins.coreEnergy[k] = reg.Gauge(MetricCoreEnergy,
				"Per-core metered energy of the last finished run.", l)
			ins.coreBusy[k] = reg.Gauge(MetricCoreBusy,
				"Per-core busy seconds of the last finished run.", l)
		}
	}
	for i, kind := range eventKinds {
		ins.events[i].reg = reg.Counter(MetricEvents,
			"Processed simulation events by kind.", telemetry.L("kind", kind))
	}
	ins.decisions.reg = reg.Counter(MetricDecisions, "Scheduler invocations.")
	ins.preemptions.reg = reg.Counter(MetricPreemptions,
		"Dispatches that stopped a still-pending running job in favor of another.")
	ins.inherits.reg = reg.Counter(MetricInherit,
		"Dispatches resolved to the head of the selected job's blocking chain.")
	ins.faults.reg = reg.Counter(MetricFaultEvents,
		"Injected fault manifestations (overruns, sticky/stalled switches, abort spikes).")
	ins.safeEntries.reg = reg.Counter(MetricSafeEntries, "Overload safe-mode activations.")
	ins.shed.reg = reg.Counter(MetricJobsShed, "Pending jobs aborted by safe-mode shedding.")
	ins.switches.reg = reg.Counter(MetricFreqSwitches, "Commanded DVS frequency switches.")
	ins.aborts = make(map[string]*telemetry.Counter)
	for _, reason := range []string{"termination", "scheduler", "budget", "shed", "deadlock", "other"} {
		ins.aborts[reason] = reg.Counter(MetricAborts,
			"Aborted jobs by reason.", telemetry.L("reason", reason))
	}
	ins.invariants = make(map[string]*telemetry.Counter)
	for _, inv := range []string{
		InvEventMonotonic, InvQueueMonotonic, InvEnergyAccount,
		InvUtilityBounds, InvUAMCompliance, InvInternal,
	} {
		ins.invariants[inv] = reg.Counter(MetricInvariants,
			"Watchdog invariant violations by invariant.", telemetry.L("invariant", inv))
	}
	ins.pending = reg.Gauge(MetricPendingJobs, "Released, unresolved jobs.")
	ins.queueDepth = reg.Histogram(MetricQueueDepth,
		"Pending-job count observed at each scheduler invocation.", telemetry.DepthBuckets())
}

// noteEvent counts one processed simulation event.
func (ins *instruments) noteEvent(ev *sim.Event) {
	k := int(ev.Kind)
	if k < 0 || k >= len(eventKinds) {
		k = int(sim.Custom)
	}
	ins.events[k].Inc()
}

// eventTotal sums the per-kind per-run counters — Result.Events is this
// view, never a separately incremented field.
func (ins *instruments) eventTotal() int {
	var n uint64
	for i := range ins.events {
		n += ins.events[i].run.Value()
	}
	return int(n)
}

// noteAbort counts one aborted job under its normalized reason.
func (ins *instruments) noteAbort(reason string) {
	if ins.aborts != nil {
		ins.aborts[abortReasonLabel(reason)].Inc()
	}
}

// noteInvariant counts a watchdog detection and passes the error through,
// so call sites stay one-liners.
func (ins *instruments) noteInvariant(ierr *InvariantError) *InvariantError {
	if ierr == nil {
		return nil
	}
	if ins.invariants != nil {
		if c, ok := ins.invariants[ierr.Invariant]; ok {
			c.Inc()
		} else {
			ins.invariants[InvInternal].Inc()
		}
	}
	return ierr
}

// noteCoreSwitch mirrors one commanded frequency switch into core k's
// labeled series (multi-core runs with a registry only).
func (ins *instruments) noteCoreSwitch(k int) {
	if ins.coreSwitches != nil {
		ins.coreSwitches[k].Inc()
	}
}

// noteCoreDispatch counts one dispatch onto core k.
func (ins *instruments) noteCoreDispatch(k int) {
	if ins.coreDispatch != nil {
		ins.coreDispatch[k].Inc()
	}
}

// noteCoreResults exports the finished run's per-core energy and busy
// time (multi-core runs with a registry only).
func (ins *instruments) noteCoreResults(per []CoreResult) {
	if ins.coreEnergy == nil {
		return
	}
	for k := range per {
		ins.coreEnergy[k].Set(per[k].Energy)
		ins.coreBusy[k].Set(per[k].BusyTime)
	}
}

// noteDecision records one scheduler invocation and the pending-queue
// depth it saw.
func (ins *instruments) noteDecision(depth int) {
	ins.decisions.Inc()
	ins.pending.Set(float64(depth))
	ins.queueDepth.Observe(float64(depth))
}
