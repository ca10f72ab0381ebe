// Package engine is the DVS simulator: it releases jobs according to
// each task's UAM arrival generator, invokes the scheduler at every
// scheduling event (arrival, completion, termination expiry), executes
// the selected jobs at the selected frequencies with exact cycle
// accounting, meters energy with Martin's model, and resolves every job
// as completed or aborted.
//
// The engine models m DVS cores (Config.Cores; the paper's uniprocessor
// is m = 1, the default). Each core carries its own run state, frequency
// ladder, switch-latency tracking and energy meter; Result sums the
// per-core meters and also reports the per-core breakdown. The core
// count is a parameter of one decision path, not a second one: every
// scheduling event yields one decision per core, a plain
// sched.Scheduler answering as a one-core sched.MultiScheduler, and
// m = 1 results are bit-identical to the pre-multicore engine.
//
// The engine enforces the information split of the paper: schedulers see
// allocations and executed cycles, never the realized demand; the engine
// alone knows each job's actual cycle requirement.
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sim"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/uam"
)

// EventObserver is an optional scheduler extension: schedulers that keep
// cross-event state (e.g. ccEDF's utilization ledger) implement it to be
// notified of job lifecycle transitions.
type EventObserver interface {
	OnRelease(now float64, j *task.Job)
	OnComplete(now float64, j *task.Job)
}

// BudgetObserver is an optional scheduler extension: when an energy budget
// is configured, the engine reports the spent energy and the budget before
// every decision, so budget-aware schedulers (the paper's "scheduling
// under finite energy budgets" future work) can ration the remainder.
type BudgetObserver interface {
	OnEnergy(spent, budget float64)
}

// Span is one contiguous stretch of execution recorded in a trace.
type Span struct {
	Job        *task.Job
	Start, End float64
	Frequency  float64
	Cycles     float64
	// Core is the executing core (always 0 on uniprocessor runs).
	Core int
}

// Config parameterizes one simulation run.
type Config struct {
	Tasks     task.Set
	Scheduler sched.Scheduler
	Freqs     cpu.FrequencyTable
	Energy    energy.Model

	// Cores is the number of DVS cores; 0 and 1 both select the paper's
	// uniprocessor, whose results are bit-identical to the pre-multicore
	// engine. With Cores > 1 the Scheduler must implement
	// sched.MultiScheduler, and tasks with resource sections are rejected
	// (the single-unit resource model is uniprocessor-only). A
	// sched.MultiScheduler must report this core count on every core
	// count, m = 1 included.
	Cores int

	// CoreFreqs optionally gives each core its own frequency table
	// (heterogeneous ladders); it needs Cores > 1 and one entry per core.
	// Nil entries and a nil slice fall back to Freqs, which also remains
	// the reference ladder for workload scaling.
	CoreFreqs []cpu.FrequencyTable

	// Horizon bounds job arrivals to [0, Horizon) seconds; the run itself
	// continues until every released job is resolved.
	Horizon float64
	// Seed drives all stochastic inputs (arrival jitter, demands). Runs
	// with equal seeds see identical arrival times and job demands
	// regardless of the scheduler, so schemes are compared on the same
	// realized workload.
	Seed uint64

	// Arrivals selects the arrival generator per task. Nil selects the
	// default: Even (periodic) for ⟨1,P⟩ tasks, Burst for a > 1.
	Arrivals func(*task.Task) uam.Generator

	// AbortAtTermination raises the paper's termination-time exception:
	// a job still executing at its termination time is aborted. Disable
	// it for the "-NA" schemes.
	AbortAtTermination bool

	// SwitchLatency is the time cost of a frequency change (seconds,
	// default 0 as in the paper). Each core switches independently.
	SwitchLatency float64

	// EnergyBudget, when positive, models a finite battery — the paper's
	// "scheduling under finite energy budgets" future-work scenario. Once
	// the metered energy (summed over all cores) reaches the budget the
	// system halts: partially executed spans are cut at the depletion
	// instant, all pending jobs are aborted, and later arrivals abort on
	// release. The budget is a hard cap on every core count: within the
	// final inter-event interval cores execute in index order, the core
	// that drains the battery stops at the depletion instant, and the
	// cores after it do not execute that stretch.
	EnergyBudget float64

	// IdleStaticPower, when positive, charges this constant power (model
	// energy units per second) per core whenever that core is not
	// executing — the system-level cost of components that stay on
	// regardless of CPU activity. The paper's per-cycle model charges
	// only busy execution; this extension makes race-to-idle trade-offs
	// visible. Idle draw counts toward the total (and Result.IdleEnergy)
	// but a configured EnergyBudget is only checked against busy
	// execution.
	IdleStaticPower float64

	// ProgressUtility enables the paper's second future-work model:
	// "activity models where activities accrue utility as a function of
	// their progress". An aborted job then accrues
	// U_J(abort time) · (executed/actual cycles) instead of zero — the
	// anytime-algorithm semantics where partial work has partial value.
	// Completed jobs are unaffected.
	ProgressUtility bool

	// RecordTrace retains the execution spans for validation and
	// visualization.
	RecordTrace bool

	// Faults, when non-nil, injects the deterministic fault plan into the
	// run: execution-time overruns past the c_i allocation, sticky or
	// stalling frequency switches, abort-cost spikes, and adversarial
	// UAM-bound arrival bursts. Every fault decision is a pure function of
	// the plan seed and the affected entity's coordinates, so equal
	// configs still produce identical results from any goroutine. Switch
	// faults are keyed by each core's own switch sequence.
	Faults *faults.Plan

	// AbortCost is the cycle cost of tearing down an aborted job
	// (raising and handling its termination-time exception): the cycles
	// are charged to the energy meter at the processor's current
	// frequency. The teardown is modelled as energy-only — it does not
	// delay the schedule. Zero (the paper's model) makes aborts free.
	AbortCost float64

	// SafeModeMisses, when positive, arms the overload safe mode: after
	// this many consecutive termination-time misses the engine sheds the
	// SafeModeShed fraction of pending jobs (lowest UER first) so the
	// remaining capacity concentrates on work that can still accrue
	// utility. Zero disables shedding (the watchdog still detects).
	SafeModeMisses int
	// SafeModeShed is the fraction of pending jobs shed on safe-mode
	// entry, in (0, 1]; zero selects the default 0.5.
	SafeModeShed float64

	// Interrupt, when non-nil, is polled between events: once the channel
	// is closed the run stops and returns an error wrapping
	// ErrInterrupted. Callers pass a context's Done channel: the sweep
	// runner's per-cell timeout and SIGINT/SIGTERM, euad's job deadline
	// and drain, a cluster worker's lease revocation.
	Interrupt <-chan struct{}

	// Telemetry, when non-nil, receives this run's counters, gauges and
	// histograms, the scheduler's per-decision series among them
	// (labeled with its Name()), once, when Run returns, whether the run
	// finished, was interrupted or failed. A registry may be shared
	// across runs — the euad service does — in which case counters
	// accumulate; Result's integer fields remain strictly per-run either
	// way. Nil (the default) costs nothing on the hot path: no clock is
	// read. Multi-core runs additionally register core-labeled series
	// (euastar_engine_core_*_total{core="k"}).
	Telemetry *telemetry.Registry
}

// coreCount resolves Cores to the effective core count (>= 1).
func (c *Config) coreCount() int {
	if c.Cores > 1 {
		return c.Cores
	}
	return 1
}

// coreTable returns core k's frequency ladder.
func (c *Config) coreTable(k int) cpu.FrequencyTable {
	if k < len(c.CoreFreqs) && c.CoreFreqs[k] != nil {
		return c.CoreFreqs[k]
	}
	return c.Freqs
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Tasks.Validate(); err != nil {
		return err
	}
	if c.Scheduler == nil {
		return fmt.Errorf("engine: nil scheduler")
	}
	if err := c.Freqs.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if c.Cores < 0 {
		return fmt.Errorf("engine: core count %d must be non-negative", c.Cores)
	}
	m := c.coreCount()
	if n := len(c.CoreFreqs); n > 0 && (m == 1 || n != m) {
		return fmt.Errorf("engine: %d per-core frequency tables for %d cores (they need Cores > 1, one per core)", n, m)
	}
	for k, ft := range c.CoreFreqs {
		if ft == nil {
			continue
		}
		if err := ft.Validate(); err != nil {
			return fmt.Errorf("engine: core %d table: %w", k, err)
		}
	}
	if ms, ok := c.Scheduler.(sched.MultiScheduler); ok && ms.Cores() != m {
		return fmt.Errorf("engine: scheduler built for %d cores, config asks for %d", ms.Cores(), m)
	} else if !ok && m > 1 {
		return fmt.Errorf("engine: %d cores need a sched.MultiScheduler, got %T", m, c.Scheduler)
	}
	if m > 1 {
		for _, t := range c.Tasks {
			if len(t.Sections) > 0 {
				return fmt.Errorf("engine: task %v has resource sections; the single-unit resource model is uniprocessor-only", t)
			}
		}
	}
	if c.Horizon <= 0 || math.IsInf(c.Horizon, 0) || math.IsNaN(c.Horizon) {
		return fmt.Errorf("engine: horizon %g must be positive and finite", c.Horizon)
	}
	// Every remaining scalar must be non-negative and finite: a NaN or
	// +Inf here would not fail fast but silently corrupt the cycle and
	// energy accounting many events later.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"switch latency", c.SwitchLatency},
		{"energy budget", c.EnergyBudget},
		{"idle power", c.IdleStaticPower},
		{"abort cost", c.AbortCost},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("engine: %s %g must be non-negative and finite", f.name, f.v)
		}
	}
	if c.SafeModeMisses < 0 {
		return fmt.Errorf("engine: safe-mode miss threshold %d must be non-negative", c.SafeModeMisses)
	}
	if s := c.SafeModeShed; s < 0 || s > 1 || math.IsNaN(s) {
		return fmt.Errorf("engine: safe-mode shed fraction %g outside [0, 1]", s)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// CoreResult is one core's share of the run's accounting. The per-core
// energies, cycles and busy times sum exactly (same additions, same
// order) to the corresponding Result totals.
type CoreResult struct {
	Energy     float64
	IdleEnergy float64
	Cycles     float64
	BusyTime   float64
	Switches   int
}

// Result summarizes one run.
type Result struct {
	SchedulerName string
	Jobs          []*task.Job // every released job, resolved
	TotalEnergy   float64
	Cycles        float64
	BusyTime      float64
	EndTime       float64 // time of the last processed event
	Switches      int
	Decisions     int
	// Events counts processed simulation events (arrivals, completions,
	// terminations, boundaries); benchmark harnesses divide wall time by
	// it to report ns/event. It is the sum of the run's per-kind event
	// counts, not a separately incremented field, so it cannot diverge
	// from what a configured Telemetry registry receives.
	Events int
	// Preemptions counts dispatches that stopped a still-pending running
	// job in favor of another.
	Preemptions int
	Trace       []Span // non-nil only when Config.RecordTrace

	// Cores is the core count the run simulated, and PerCore each core's
	// energy/cycle/switch breakdown (len == Cores). The breakdowns sum
	// exactly to TotalEnergy, IdleEnergy, Cycles, BusyTime and Switches.
	Cores   int
	PerCore []CoreResult
	// Migrations counts dispatches that moved a job to a different core
	// than its previous dispatch (always 0 on uniprocessor runs).
	Migrations int

	// Depleted reports whether a configured energy budget ran out, and
	// DepletedAt when.
	Depleted   bool
	DepletedAt float64

	// Inheritances counts dispatches where the selected job was blocked on
	// a resource and its blocking chain's head executed instead.
	Inheritances int

	// IdleEnergy is the portion of TotalEnergy drawn while idle (non-zero
	// only with Config.IdleStaticPower).
	IdleEnergy float64

	// FaultEvents counts injected fault manifestations (overruns, sticky
	// switches, stalls, abort spikes) — zero without a fault plan.
	FaultEvents int
	// SafeModeEntries counts overload safe-mode activations, and JobsShed
	// the pending jobs those activations aborted.
	SafeModeEntries int
	JobsShed        int
	// AbortCycles is the total abort-cost cycles metered into the energy
	// account (non-zero only with Config.AbortCost).
	AbortCycles float64
}

// defaultTrace generates t's arrivals with the default generator
// described in Config.Arrivals, called directly rather than through a
// uam.Generator interface value, which would be allocated per task.
func defaultTrace(t *task.Task, horizon float64, src *rng.Source) []float64 {
	if t.Arrival.IsPeriodic() {
		return uam.Even{S: t.Arrival}.Generate(horizon, src)
	}
	return uam.Burst{S: t.Arrival}.Generate(horizon, src)
}

// coreState is one core's run state: the job it is executing, when that
// job (re)starts making progress after switch latency, the queued
// completion event, and the core-local processor and energy meter.
type coreState struct {
	running    *task.Job
	runStart   float64    // when the running job (re)starts making progress
	completion sim.Handle // queued completion or boundary event of the running job
	proc       *cpu.Processor
	meter      *energy.Meter
	switchSeq  int       // commanded frequency switches, fault-plan label
	dispatches int       // jobs dispatched onto the core
	target     *task.Job // the current decision's dispatch for this core
	decided    float64   // the last non-idle decision's frequency (with a registry)
}

// oneCore presents a plain sched.Scheduler as a one-core
// sched.MultiScheduler, so every core count takes the same decision
// path. Its decision slot is reused across calls.
type oneCore struct {
	sched.Scheduler
	slot [1]sched.CoreDecision
}

func (o *oneCore) Cores() int { return 1 }

func (o *oneCore) DecideMulti(now float64, ready []*task.Job) sched.MultiDecision {
	d := o.Decide(now, ready)
	o.slot[0] = sched.CoreDecision{Run: d.Run, Freq: d.Freq}
	return sched.MultiDecision{Cores: o.slot[:], Abort: d.Abort, Iters: d.Iters}
}

// state is the mutable simulation state.
//
// The queue's events refer to the run's tables through sim.Event.Ref,
// by kind: an arrival holds its task's position in cfg.Tasks and tasks,
// a termination its job's slot in slab and all, and a completion or
// boundary the core whose running job it concerns.
type state struct {
	cfg     Config
	queue   sim.Queue
	pending []*task.Job
	// slab holds every job of the run, allocated once from the arrival
	// traces generated up front; all points into it in release order and
	// becomes Result.Jobs.
	slab       []task.Job
	all        []*task.Job
	tasks      []taskRun
	cores      []coreState
	multi      sched.MultiScheduler // the scheduler, or one wrapped in single
	single     oneCore
	lastTime   float64
	observer   EventObserver
	trace      []Span
	depleted   bool
	depletedAt float64

	// lastCore remembers each unresolved job's previous dispatch core for
	// migration accounting; nil on uniprocessor runs.
	lastCore map[*task.Job]int

	// ins holds the run's counts, which Result's integer fields read and
	// flush adds to Config.Telemetry.
	ins instruments

	// Resource state: holders maps resource id → holding job.
	holders map[int]*task.Job

	// Degradation state: the always-on invariant watchdog.
	wd          watchdog
	abortCycles float64
}

// taskRun is one task's per-run state, indexed by the task's position in
// the ID-sorted cfg.Tasks.
type taskRun struct {
	demand   rng.Source // draws each job's actual cycles, in release order
	released int        // jobs released so far: the next job's Index
}

// energyTotal sums the per-core meters. With one core the sum is the
// single meter's total bit-for-bit (0 + x == x for the meters'
// non-negative totals), so uniprocessor accounting is unchanged.
func (st *state) energyTotal() float64 {
	var e float64
	for k := range st.cores {
		e += st.cores[k].meter.Total()
	}
	return e
}

// coreOf returns the core executing j, or -1.
func (st *state) coreOf(j *task.Job) int {
	for k := range st.cores {
		if st.cores[k].running == j {
			return k
		}
	}
	return -1
}

// Run executes one simulation and returns its result.
//
// Run is safe for concurrent use: all simulation state is local to the
// call and every stochastic input is derived deterministically from
// cfg.Seed, so concurrent runs with equal configs produce identical
// results. Two caveats, both enforced by the experiment runner:
//
//   - Each call needs its own Scheduler instance (schedulers carry
//     per-run state).
//   - Concurrent runs may share a task.Set only if no task has a non-nil
//     Profiler: the engine feeds completed jobs' cycles back into the
//     profiler, which mutates the shared Task. Everything else on Task
//     is treated as read-only.
func Run(cfg Config) (res *Result, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The scheduler and the arrival streams see the tasks in ID order,
	// so a run does not depend on the order of the caller's slice.
	cfg.Tasks = slices.Clone(cfg.Tasks)
	slices.SortFunc(cfg.Tasks, func(a, b *task.Task) int { return cmp.Compare(a.ID, b.ID) })
	m := cfg.coreCount()
	ctx := &sched.Context{Tasks: cfg.Tasks, Freqs: cfg.Freqs, Energy: cfg.Energy}
	if m > 1 {
		ctx.CoreFreqs = make([]cpu.FrequencyTable, m)
		for k := range ctx.CoreFreqs {
			ctx.CoreFreqs[k] = cfg.coreTable(k)
		}
	}
	if err := cfg.Scheduler.Init(ctx); err != nil {
		return nil, err
	}
	// No more than a_i jobs of a task are released within one window P_i,
	// so with termination-time abortion at most window jobs are pending
	// and window terminations are queued at once: it sizes those buffers.
	window := 0
	for _, t := range cfg.Tasks {
		window += t.Arrival.A
	}
	st := &state{
		cfg:     cfg,
		cores:   make([]coreState, m),
		wd:      newWatchdog(cfg.Tasks, window),
		pending: make([]*task.Job, 0, window),
	}
	st.queue.Reserve(window + m)
	for k := range st.cores {
		st.cores[k].proc = cpu.NewProcessor(cfg.coreTable(k), cfg.SwitchLatency)
		st.cores[k].meter = energy.NewMeter(cfg.Energy)
	}
	if ms, ok := cfg.Scheduler.(sched.MultiScheduler); ok {
		st.multi = ms
	} else {
		st.single.Scheduler = cfg.Scheduler
		st.multi = &st.single
	}
	if m > 1 {
		st.lastCore = make(map[*task.Job]int)
	}
	st.ins.init(cfg.Telemetry)
	if obs, ok := cfg.Scheduler.(EventObserver); ok {
		st.observer = obs
	}
	// Deferred first, so it runs last: after the recover below has
	// turned a panic into the run's error.
	defer func() { st.flush(res, err) }()
	// Graceful degradation: internal assertion panics (including the
	// event queue's typed non-monotonicity panic) become structured,
	// attributable errors instead of taking the whole process — a
	// poisoned sweep cell must not kill its siblings.
	defer func() {
		if r := recover(); r != nil {
			res = nil
			switch v := r.(type) {
			case *sim.NonMonotonicError:
				err = &InvariantError{Invariant: InvQueueMonotonic, Time: st.lastTime, Detail: v.Error()}
			case *InvariantError:
				err = v
			default:
				err = &InvariantError{Invariant: InvInternal, Time: st.lastTime, Detail: fmt.Sprint(v)}
			}
		}
	}()
	st.seedArrivals()
	if err := st.loop(); err != nil {
		return nil, err
	}

	res = &Result{
		SchedulerName:   cfg.Scheduler.Name(),
		Jobs:            st.all,
		EndTime:         st.lastTime,
		Decisions:       st.ins.decisions,
		Events:          st.ins.eventTotal(),
		Preemptions:     st.ins.preemptions,
		Trace:           st.trace,
		Cores:           m,
		PerCore:         make([]CoreResult, m),
		Migrations:      st.ins.migrations,
		Depleted:        st.depleted,
		DepletedAt:      st.depletedAt,
		Inheritances:    st.ins.inherits,
		FaultEvents:     st.ins.faults,
		SafeModeEntries: st.ins.safeEntries,
		JobsShed:        st.ins.shed,
		AbortCycles:     st.abortCycles,
	}
	// Sum the per-core meters into the uniprocessor-era totals. The
	// additions start from zero and run in core order, so m = 1 totals
	// are the single meter's values bit-for-bit and multi-core totals
	// equal the PerCore sums exactly.
	for k := range st.cores {
		c := &st.cores[k]
		res.PerCore[k] = CoreResult{
			Energy:     c.meter.Total(),
			IdleEnergy: c.meter.IdleEnergy(),
			Cycles:     c.meter.Cycles(),
			BusyTime:   c.meter.BusyTime(),
			Switches:   c.proc.Switches(),
		}
		res.TotalEnergy += res.PerCore[k].Energy
		res.IdleEnergy += res.PerCore[k].IdleEnergy
		res.Cycles += res.PerCore[k].Cycles
		res.BusyTime += res.PerCore[k].BusyTime
		res.Switches += res.PerCore[k].Switches
	}
	return res, nil
}

// seedArrivals pre-generates every task's arrival trace and preloads the
// queue with all of them as one stream sorted by time, ties in task
// order: the order that pushing them one by one, before any other event,
// gave them. The stream's length sizes the job slab. Each task
// gets independent RNG streams (in task ID order, the order Run sorted
// the tasks into) so that demands and arrivals are identical across
// schedulers.
func (st *state) seedArrivals() {
	root := rng.New(st.cfg.Seed)
	gen := st.cfg.Arrivals
	if gen == nil {
		// The fault plan's adversarial bursts replace the default
		// generators only; an explicit Arrivals selector wins.
		gen = st.cfg.Faults.Arrivals()
	}
	st.tasks = make([]taskRun, len(st.cfg.Tasks))
	traces := make([][]float64, len(st.cfg.Tasks))
	n := 0
	var genSrc rng.Source // each generator uses it only during its call
	for i, t := range st.cfg.Tasks {
		genSrc = *root.Split()
		st.tasks[i].demand = *root.Split()
		if gen != nil {
			traces[i] = gen(t).Generate(st.cfg.Horizon, &genSrc)
		} else {
			traces[i] = defaultTrace(t, st.cfg.Horizon, &genSrc)
		}
		n += len(traces[i])
	}
	stream := make([]sim.Event, 0, n)
	for i, trace := range traces {
		for _, at := range trace {
			stream = append(stream, sim.Event{Time: at, Kind: sim.Arrival, Ref: i})
		}
	}
	// Arrivals of one task at one instant are identical events, so
	// ordering by (time, task position) reproduces the push order.
	slices.SortFunc(stream, func(a, b sim.Event) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Ref, b.Ref)
	})
	st.queue.Preload(stream)
	st.slab = make([]task.Job, n)
	st.all = make([]*task.Job, 0, n)
}

func (st *state) loop() error {
	for {
		if st.cfg.Interrupt != nil {
			select {
			case <-st.cfg.Interrupt:
				return fmt.Errorf("%w at t=%g (%d events pending)", ErrInterrupted, st.lastTime, st.queue.Len())
			default:
			}
		}
		ev, ok := st.queue.Pop()
		if !ok {
			break
		}
		now := ev.Time
		st.ins.noteEvent(ev.Kind)
		if ierr := st.wd.checkEvent(st.lastTime, ev); ierr != nil {
			return ierr
		}
		st.advance(now)
		if ierr := st.wd.checkEnergy(now, st.energyTotal()); ierr != nil {
			return ierr
		}
		if err := st.handle(now, ev); err != nil {
			return err
		}
		// Process all remaining events at the same instant before invoking
		// the scheduler once.
		for {
			e, ok := st.queue.PopAt(now)
			if !ok {
				break
			}
			st.ins.noteEvent(e.Kind)
			if err := st.handle(now, e); err != nil {
				return err
			}
		}
		// Overload safe mode: a sustained streak of termination-time
		// misses sheds the lowest-UER pending work before the scheduler
		// runs again.
		st.maybeShed(now)
		st.decide(now)
	}
	if len(st.pending) != 0 {
		// Cannot happen: with abortion every job resolves by its
		// termination event; without abortion the dispatcher keeps a
		// completion event queued whenever work is pending.
		panic(fmt.Sprintf("engine: %d unresolved jobs after event queue drained", len(st.pending)))
	}
	return nil
}

// advance executes every core's running job from lastTime to now, cutting
// spans at the energy budget's depletion instant if one is configured.
// Cores advance in index order: the core whose stretch drains the budget
// is cut at the depletion instant, and the cores after it do not execute
// that final stretch, so the metered energy never exceeds the budget.
func (st *state) advance(now float64) {
	wasDepleted := st.depleted
	for k := range st.cores {
		st.advanceCore(k, now)
	}
	if st.depleted && !wasDepleted {
		for k := range st.cores {
			st.stopCore(k)
		}
		// The battery is dead: every pending job is lost.
		for len(st.pending) > 0 {
			st.abort(st.depletedAt, st.pending[0], "energy budget depleted")
		}
	}
	st.lastTime = now
	for k := range st.cores {
		st.cores[k].meter.Observe(now)
	}
}

// advanceCore executes core k's running job over [lastTime, now].
func (st *state) advanceCore(k int, now float64) {
	c := &st.cores[k]
	if st.cfg.IdleStaticPower > 0 {
		// Charge the always-on subsystems for any non-executing portion
		// of [lastTime, now): either the whole interval (idle) or the
		// stretch before the running job makes progress (switch latency).
		idleEnd := now
		if c.running != nil && !st.depleted {
			idleEnd = math.Min(now, math.Max(st.lastTime, c.runStart))
		}
		if dt := idleEnd - st.lastTime; dt > 0 {
			c.meter.ChargeIdle(dt * st.cfg.IdleStaticPower)
		}
	}
	if c.running != nil && !st.depleted {
		start := math.Max(st.lastTime, c.runStart)
		if now > start {
			dt := now - start
			f := c.proc.Frequency()
			end := now
			if st.cfg.EnergyBudget > 0 {
				power := c.meter.Model().Power(f)
				if left := st.cfg.EnergyBudget - st.energyTotal(); dt*power > left {
					dt = left / power
					end = start + dt
					st.depleted = true
					st.depletedAt = end
				}
			}
			cyc := dt * f
			if rem := c.running.Remaining(); cyc > rem {
				cyc = rem
			}
			c.running.Executed += cyc
			c.meter.Charge(cyc, f, dt)
			if st.cfg.RecordTrace && cyc > 0 {
				st.trace = append(st.trace, Span{
					Job: c.running, Start: start, End: end, Frequency: f, Cycles: cyc, Core: k,
				})
			}
		}
	}
}

func (st *state) handle(now float64, ev sim.Event) error {
	switch ev.Kind {
	case sim.Arrival:
		t, tr := st.cfg.Tasks[ev.Ref], &st.tasks[ev.Ref]
		if ierr := st.wd.checkArrival(now, ev.Ref, t); ierr != nil {
			return ierr
		}
		slot := len(st.all)
		j := &st.slab[slot]
		j.Init(t, tr.released, now, &tr.demand)
		tr.released++
		// Fault injection: an execution-time overrun inflates the realized
		// demand past whatever the sampler drew — and, with the default
		// factor, past the c_i allocation. The decision depends only on
		// (plan seed, task, index), so every scheme sees the same overruns
		// on the same jobs.
		if fac, ok := st.cfg.Faults.Overrun(t.ID, j.Index); ok {
			j.ActualCycles *= fac
			st.ins.faults++
		}
		st.all = append(st.all, j)
		if st.depleted {
			// Released into a dead system: account it as an immediate loss.
			j.State = task.Aborted
			j.FinishedAt = now
			j.AbortReason = "energy budget depleted"
			return nil
		}
		st.pending = append(st.pending, j)
		st.queue.Push(j.Termination, sim.Termination, slot)
		if st.observer != nil {
			st.observer.OnRelease(now, j)
		}
	case sim.Completion:
		k := ev.Ref
		j := st.cores[k].running
		if j == nil {
			if st.depleted {
				return nil // stale event of a job the depletion aborted
			}
			panic(fmt.Sprintf("engine: completion event for idle core %d", k))
		}
		// advance() has executed the job to (numerically) zero remaining.
		j.Executed = j.ActualCycles
		j.State = task.Completed
		j.FinishedAt = now
		j.Utility = j.UtilityAt(now)
		if ierr := st.wd.checkResolved(j); ierr != nil {
			return ierr
		}
		st.wd.noteCompletion()
		st.releaseAll(j)
		st.removePending(j)
		st.cores[k].running = nil
		st.cores[k].completion = 0
		if st.lastCore != nil {
			delete(st.lastCore, j)
		}
		if j.Task.Profiler != nil {
			// Online profiling (Section 2.3): the measured cycle
			// consumption of a finished job refines the task's demand
			// moments and thereby its future allocations c_i.
			j.Task.Profiler.Observe(j.ActualCycles)
		}
		if st.observer != nil {
			st.observer.OnComplete(now, j)
		}
	case sim.Termination:
		j := st.all[ev.Ref]
		if j.State != task.Pending {
			return nil // already resolved
		}
		// A still-pending job at its termination time is a miss whether or
		// not the exception aborts it; the watchdog's streak drives the
		// overload safe mode.
		st.wd.noteMiss()
		if st.cfg.AbortAtTermination {
			st.abort(now, j, "termination time reached")
		}
		// Without abortion the expiry is still a scheduling event; the
		// decide() after this batch re-evaluates the system.
	case sim.Custom:
		// A resource-section boundary of the running job: advance() has
		// executed exactly up to it; sync acquires/releases and the
		// decide() after this batch re-dispatches. Resource sections are
		// uniprocessor-only, so the boundary always belongs to core 0.
		k := ev.Ref
		j := st.cores[k].running
		if j == nil {
			if st.depleted {
				return nil
			}
			panic(fmt.Sprintf("engine: boundary event for idle core %d", k))
		}
		st.stopCore(k)
		st.syncResources(j)
	default:
		panic(fmt.Sprintf("engine: unexpected event kind %v", ev.Kind))
	}
	return nil
}

func (st *state) abort(now float64, j *task.Job, reason string) {
	if j.State != task.Pending {
		panic(fmt.Sprintf("engine: aborting resolved job %v", j))
	}
	j.State = task.Aborted
	j.FinishedAt = now
	j.Utility = 0
	if st.cfg.ProgressUtility && j.ActualCycles > 0 {
		j.Utility = j.UtilityAt(now) * (j.Executed / j.ActualCycles)
	}
	if j.AbortReason == "" {
		j.AbortReason = reason
	}
	if j.Task.Profiler != nil && j.Executed > 0 {
		// The aborted job consumed at least this many cycles: a censored
		// demand observation.
		j.Task.Profiler.ObserveCensored(j.Executed)
	}
	if ierr := st.wd.checkResolved(j); ierr != nil {
		panic(ierr) // recovered by Run into the structured error
	}
	// The teardown runs on (and is charged to) the core that was
	// executing the job, or core 0 for a job aborted off-core.
	k := st.coreOf(j)
	chargeCore := k
	if chargeCore < 0 {
		chargeCore = 0
	}
	// Abort cost: tearing down the job (the termination-time exception
	// handler) consumes cycles that are metered into the energy account
	// at the current frequency. A dead battery has nothing left to spend.
	if cost := st.cfg.AbortCost; cost > 0 && !st.depleted {
		if fac, ok := st.cfg.Faults.AbortSpike(j.Task.ID, j.Index); ok {
			cost *= fac
			st.ins.faults++
		}
		c := &st.cores[chargeCore]
		f := c.proc.Frequency()
		c.meter.Charge(cost, f, cost/f)
		st.abortCycles += cost
	}
	st.releaseAll(j)
	st.removePending(j)
	if k >= 0 {
		st.stopCore(k)
	}
	if st.lastCore != nil {
		delete(st.lastCore, j)
	}
}

func (st *state) removePending(j *task.Job) {
	for i, p := range st.pending {
		if p == j {
			st.pending = append(st.pending[:i], st.pending[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("engine: job %v not pending", j))
}

// decide invokes the scheduler once and applies its decision core by
// core, for every core count: aborts first, then each core's selection
// is checked and resolved to the head of its blocking chain, then every
// core whose assignment changed is stopped (counting preemptions) before
// any core is dispatched, so a job that moved cores is free when its new
// core takes it. A plain Scheduler answers through the one-core adapter.
func (st *state) decide(now float64) {
	if st.depleted || len(st.pending) == 0 {
		for k := range st.cores {
			st.stopCore(k)
		}
		return
	}
	if st.cfg.EnergyBudget > 0 {
		if bo, ok := st.cfg.Scheduler.(BudgetObserver); ok {
			bo.OnEnergy(st.energyTotal(), st.cfg.EnergyBudget)
		}
	}
	// DecideMulti must not modify ready or return a slice that aliases
	// it, so the scheduler reads pending itself, and the aborts below
	// can remove jobs from pending while d.Abort is walked.
	start := st.ins.clock()
	d := st.multi.DecideMulti(now, st.pending)
	st.noteDecision(start, d)
	for _, j := range d.Abort {
		st.abort(now, j, "scheduler abort")
	}
	if len(d.Cores) != len(st.cores) {
		panic(fmt.Sprintf("engine: scheduler decided %d cores, engine has %d", len(d.Cores), len(st.cores)))
	}
	for k := range d.Cores {
		c := &st.cores[k]
		j := d.Cores[k].Run
		c.target = nil
		if j == nil {
			continue
		}
		if j.State != task.Pending {
			panic(fmt.Sprintf("engine: scheduler selected resolved job %v on core %d", j, k))
		}
		for l := k + 1; l < len(d.Cores); l++ {
			if d.Cores[l].Run == j {
				panic(fmt.Sprintf("engine: scheduler selected job %v on cores %d and %d", j, k, l))
			}
		}
		if !c.proc.Table.Contains(d.Cores[k].Freq) {
			panic(fmt.Sprintf("engine: scheduler chose frequency %g Hz outside core %d's table", d.Cores[k].Freq, k))
		}
		// Resolve resource blocking: the core executes the head of the
		// selected job's blocking chain (j itself for independent tasks).
		eff, err := st.effective(j)
		if err != nil {
			// Deadlock: abort the selected job (releasing its resources
			// breaks the cycle) and re-evaluate.
			st.abort(now, j, "resource deadlock resolved")
			st.decide(now)
			return
		}
		if eff != j {
			st.ins.inherits++
		}
		c.target = eff
	}
	// Pass 1: stop every core whose assignment changed, counting the
	// preemptions (a still-pending running job displaced by another).
	for k := range st.cores {
		c := &st.cores[k]
		if c.running == nil || c.running == c.target {
			continue
		}
		if c.running.State == task.Pending && c.target != nil {
			st.ins.preemptions++
		}
		st.stopCore(k)
	}
	// Pass 2: dispatch. A job that moved cores was stopped on its old
	// core in pass 1, so dispatching it here is a migration.
	for k := range st.cores {
		c := &st.cores[k]
		if c.target == nil {
			continue // pass 1 idled the core
		}
		freq := d.Cores[k].Freq
		if c.target == c.running {
			if freq == c.proc.Frequency() {
				continue // nothing changes; the queued progress event stands
			}
			st.stopCore(k) // same job, new frequency: requeue its progress event
		}
		st.dispatch(k, now, c.target, freq)
	}
}

// dispatch installs run on core k at the requested frequency, applying
// switch faults keyed by the core's own switch sequence, and queues the
// job's next progress event (completion or resource boundary).
func (st *state) dispatch(k int, now float64, run *task.Job, freq float64) {
	c := &st.cores[k]
	target := freq
	var cost float64
	if target != c.proc.Frequency() {
		// A real switch is commanded: the fault plan may make it stick
		// (the CPU lands on an adjacent discrete step) or stall (an extra
		// settling delay before the job makes progress).
		if delta, ok := st.cfg.Faults.Sticky(c.switchSeq); ok {
			table := c.proc.Table
			idx := table.Index(target) + delta
			if idx < 0 {
				idx = 0
			} else if idx >= len(table) {
				idx = len(table) - 1
			}
			if f := table[idx]; f != target {
				target = f
				st.ins.faults++
			}
		}
		stall, stalled := st.cfg.Faults.StallFor(c.switchSeq)
		c.switchSeq++
		cost = c.proc.SetFrequency(target)
		if stalled {
			cost += stall
			st.ins.faults++
		}
	}
	if st.lastCore != nil {
		if prev, ok := st.lastCore[run]; ok && prev != k {
			st.ins.migrations++
		}
		st.lastCore[run] = k
	}
	c.dispatches++
	// From here on the effective frequency is the processor's, which a
	// sticky switch may have left one step away from the scheduler's
	// choice.
	f := c.proc.Frequency()
	c.running = run
	c.runStart = now + cost
	remCyc := run.Remaining()
	if boundCyc := nextBoundaryCycles(run); boundCyc < remCyc {
		c.completion = st.queue.Push(c.runStart+boundCyc/f, sim.Custom, k)
	} else {
		c.completion = st.queue.Push(c.runStart+remCyc/f, sim.Completion, k)
	}
}

// stopCore cancels core k's pending completion event and idles it (the
// job itself stays pending unless separately resolved).
func (st *state) stopCore(k int) {
	c := &st.cores[k]
	st.queue.Cancel(c.completion)
	c.completion = 0
	c.running = nil
}
