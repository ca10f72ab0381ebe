// Package partition generalizes the repository's uniprocessor schemes to
// m DVS cores. Partitioned wraps any of the seven schemes: it assigns
// tasks to cores once at Init — bin packing on the Cantelli-allocated
// demand rate C_i/D_i, with internal/admission's per-scheme utilization
// bound as the bin-capacity test — and then runs one independent
// instance of the wrapped scheme per core, so every per-core schedule is
// exactly what the uniprocessor scheme would build for that core's task
// subset. Global (global.go) is the contrasting design point: one shared
// ready queue dispatched top-m by UER, with job migration allowed.
//
// Both run through the engine's one decision path on every core count.
// With m = 1 Partitioned keeps only two special cases: Init has nothing
// to pack, so the single wrapped instance runs on the unmodified
// context, and Name is the bare scheme's — so uniprocessor results and
// fingerprints through the wrapper are bit-identical to the bare scheme.
package partition

import (
	"fmt"
	"sort"

	"github.com/euastar/euastar/internal/admission"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// Policy selects the bin-packing heuristic for task→core assignment.
type Policy string

const (
	// FirstFit places each task on the lowest-indexed core whose
	// admission test still accepts the core's task set with it added.
	FirstFit Policy = "ff"
	// WorstFit places each task on the admissible core with the most
	// remaining capacity (lowest utilization), balancing load so each
	// core keeps DVS headroom to slow down.
	WorstFit Policy = "wf"
)

// ParsePolicy maps the -partition flag values onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case FirstFit, WorstFit:
		return Policy(s), nil
	}
	return "", fmt.Errorf("partition: unknown policy %q (want %q or %q)", s, FirstFit, WorstFit)
}

// globalPlacement names the shared-queue dispatcher (NewGlobal) among
// the placements Place accepts beside the bin-packing policies.
const globalPlacement = "global"

// CheckPlacement reports an error unless name is a placement Place
// accepts on more than one core: a bin-packing Policy ("ff", "wf") or
// "global".
func CheckPlacement(name string) error {
	if _, err := ParsePolicy(name); err != nil && name != globalPlacement {
		return fmt.Errorf("partition: unknown placement %q (want ff, wf or global)", name)
	}
	return nil
}

// Place builds the scheduler for m cores from a scheme factory: the bare
// scheme when m <= 1 (the placement is not read), otherwise Global for
// "global" and the partitioned wrapper for a bin-packing policy.
func Place(m int, placement string, factory func() sched.Scheduler) (sched.Scheduler, error) {
	if m <= 1 {
		return factory(), nil
	}
	if err := CheckPlacement(placement); err != nil {
		return nil, err
	}
	if placement == globalPlacement {
		return NewGlobal(m), nil
	}
	return New(m, Policy(placement), factory), nil
}

// eventObserver and budgetObserver mirror the engine's optional
// scheduler extensions structurally, so the wrapper can forward
// lifecycle and budget notifications to its sub-schedulers without
// importing the engine package.
type eventObserver interface {
	OnRelease(now float64, j *task.Job)
	OnComplete(now float64, j *task.Job)
}

type budgetObserver interface {
	OnEnergy(spent, budget float64)
}

// Partitioned is the partitioned meta-scheduler. Build one with New;
// the zero value is unusable.
type Partitioned struct {
	m       int
	policy  Policy
	factory func() sched.Scheduler

	// probe is one factory instance made at construction time: it names
	// the wrapped scheme before Init and doubles as the single
	// sub-scheduler when m = 1.
	probe sched.Scheduler

	subs      []sched.Scheduler // per-core instances; nil for task-less cores
	coreTasks []task.Set        // per-core task sets (nil with m = 1)
	assign    map[int]int       // task ID → core
	bufs      [][]*task.Job     // reusable per-core ready buffers
	cores     []sched.CoreDecision
	aborts    []*task.Job // reusable DecideMulti abort list
}

// New builds a partitioned wrapper running m instances of the scheme the
// factory produces. The factory is invoked once per non-empty core (plus
// once at construction for the scheme name); it must return a fresh
// scheduler each call — schedulers carry per-run state — and is the
// place to apply per-instance options such as EUA*'s ablation flags.
func New(m int, policy Policy, factory func() sched.Scheduler) *Partitioned {
	if m < 1 {
		panic(fmt.Sprintf("partition: core count %d must be at least 1", m))
	}
	if policy != FirstFit && policy != WorstFit {
		panic(fmt.Sprintf("partition: unknown policy %q", policy))
	}
	if factory == nil {
		panic("partition: nil scheduler factory")
	}
	return &Partitioned{m: m, policy: policy, factory: factory, probe: factory()}
}

// Name identifies the configuration: the bare scheme name with m = 1,
// otherwise e.g. "EUA*/P4ff".
func (p *Partitioned) Name() string {
	if p.m == 1 {
		return p.probe.Name()
	}
	return fmt.Sprintf("%s/P%d%s", p.probe.Name(), p.m, p.policy)
}

// Cores returns the core count the wrapper was built for.
func (p *Partitioned) Cores() int { return p.m }

// Init partitions the task set and initializes one wrapped instance per
// non-empty core. With m = 1 there is nothing to pack: the single
// instance runs on the unmodified context, and the nil assignment
// routes every job to core 0.
func (p *Partitioned) Init(ctx *sched.Context) error {
	p.subs = make([]sched.Scheduler, p.m)
	p.bufs = make([][]*task.Job, p.m)
	p.cores = make([]sched.CoreDecision, p.m)
	if p.m == 1 {
		p.subs[0], p.coreTasks, p.assign = p.probe, nil, nil
		return p.probe.Init(ctx)
	}
	if err := ctx.Validate(); err != nil {
		return err
	}
	tables := ctx.CoreTables(p.m)
	p.coreTasks = p.partition(ctx.Tasks, tables)
	for k, ts := range p.coreTasks {
		if len(ts) == 0 {
			continue // task-less core: stays idle, needs no scheduler
		}
		sub := p.factory()
		sctx := &sched.Context{Tasks: ts, Freqs: tables[k], Energy: ctx.Energy}
		if err := sub.Init(sctx); err != nil {
			return fmt.Errorf("partition: core %d init: %w", k, err)
		}
		p.subs[k] = sub
	}
	return nil
}

// partition assigns tasks to cores and records the assignment. Tasks are
// packed in decreasing order of allocated demand rate C_i/D_i (the
// MinFrequency each task needs alone), the classic decreasing-size
// ordering that tightens both heuristics; ties break on task ID so the
// assignment is deterministic. The capacity test for "task t fits core
// k" is the admission analyzer's per-scheme sufficient bound on the
// core's table — a task set the analyzer accepts is schedulable by the
// deadline-ordered schemes at f_max. A task no core admits falls back to
// the least-utilized core: overload then degrades that one core's
// accrued utility instead of failing the run.
func (p *Partitioned) partition(ts task.Set, tables []cpu.FrequencyTable) []task.Set {
	order := append(task.Set(nil), ts...)
	sort.Slice(order, func(i, j int) bool {
		fi, fj := order[i].MinFrequency(), order[j].MinFrequency()
		if fi != fj {
			return fi > fj
		}
		return order[i].ID < order[j].ID
	})
	// Every probe asks for admission.Analyze's verdict on a set of
	// validated tasks, so it takes the verdict-only path and one reused
	// candidate buffer; a core whose table Analyze would refuse admits
	// nothing.
	policy := admission.PolicyFor(p.probe.Name())
	valid := make([]bool, p.m)
	for k, ft := range tables {
		valid[k] = ft.Validate() == nil
	}
	coreTasks := make([]task.Set, p.m)
	util := make([]float64, p.m) // Σ C_i/D_i / f_max per core
	p.assign = make(map[int]int, len(order))
	cand := make(task.Set, 0, len(order))
	for _, t := range order {
		fits := func(k int) bool {
			cand = append(append(cand[:0], coreTasks[k]...), t)
			return valid[k] && admission.Admits(cand, tables[k].Max(), policy)
		}
		best := -1
		switch p.policy {
		case FirstFit:
			for k := 0; k < p.m; k++ {
				if fits(k) {
					best = k
					break
				}
			}
		case WorstFit:
			for k := 0; k < p.m; k++ {
				if fits(k) && (best < 0 || util[k] < util[best]) {
					best = k
				}
			}
		}
		if best < 0 {
			// Overload fallback: least-utilized core, lowest index on ties.
			best = 0
			for k := 1; k < p.m; k++ {
				if util[k] < util[best] {
					best = k
				}
			}
		}
		coreTasks[best] = append(coreTasks[best], t)
		util[best] += t.MinFrequency() / tables[best].Max()
		p.assign[t.ID] = best
	}
	return coreTasks
}

// Assignment returns the task→core map built by Init (nil before Init or
// with m = 1, where everything runs on core 0). The returned map is the
// wrapper's own; callers must not mutate it.
func (p *Partitioned) Assignment() map[int]int { return p.assign }

// Decide exists to satisfy sched.Scheduler. The engine asks a
// MultiScheduler DecideMulti on every core count, so calling Decide is a
// programming error.
func (p *Partitioned) Decide(now float64, ready []*task.Job) sched.Decision {
	panic(fmt.Sprintf("partition: Decide called on %d-core scheduler; use DecideMulti", p.m))
}

// DecideMulti routes the shared ready queue through the Init-time
// assignment and lets each core's wrapped instance decide over its own
// jobs only — tasks never migrate under partitioning. The decision's
// Iters sums the instances' own.
func (p *Partitioned) DecideMulti(now float64, ready []*task.Job) sched.MultiDecision {
	for k := range p.bufs {
		p.bufs[k] = p.bufs[k][:0]
	}
	for _, j := range ready {
		k := p.coreOf(j)
		p.bufs[k] = append(p.bufs[k], j)
	}
	// Both returned slices are reused by the next call, which the
	// MultiScheduler contract permits: callers must not retain them.
	p.aborts = p.aborts[:0]
	iters := 0
	for k := range p.cores {
		p.cores[k] = sched.CoreDecision{}
		if p.subs[k] == nil || len(p.bufs[k]) == 0 {
			continue
		}
		d := p.subs[k].Decide(now, p.bufs[k])
		p.cores[k] = sched.CoreDecision{Run: d.Run, Freq: d.Freq}
		p.aborts = append(p.aborts, d.Abort...)
		iters += d.Iters
	}
	return sched.MultiDecision{Cores: p.cores, Abort: p.aborts, Iters: iters}
}

// OnRelease forwards a job release to the wrapped instance of the job's
// core, if that instance tracks lifecycle events.
func (p *Partitioned) OnRelease(now float64, j *task.Job) {
	if sub, ok := p.subOf(j).(eventObserver); ok {
		sub.OnRelease(now, j)
	}
}

// OnComplete forwards a job completion like OnRelease.
func (p *Partitioned) OnComplete(now float64, j *task.Job) {
	if sub, ok := p.subOf(j).(eventObserver); ok {
		sub.OnComplete(now, j)
	}
}

// OnEnergy forwards the system-wide budget report to every wrapped
// instance that rations energy. Cores share the one battery, so each
// instance sees the global spend, not a per-core share.
func (p *Partitioned) OnEnergy(spent, budget float64) {
	for _, sub := range p.subs {
		if bo, ok := sub.(budgetObserver); ok {
			bo.OnEnergy(spent, budget)
		}
	}
}

// subOf returns the wrapped instance owning j's task.
func (p *Partitioned) subOf(j *task.Job) sched.Scheduler {
	return p.subs[p.coreOf(j)]
}

// coreOf returns the core of j's task (core 0 with m = 1, whose
// assignment is nil). The core's instance keeps the task's position in
// its own task set in the job's SchedCache.TaskPos, and each task belongs
// to exactly one core, so a core whose set holds j's task at that
// position is the one; a job no instance has placed yet falls back to the
// assignment map.
func (p *Partitioned) coreOf(j *task.Job) int {
	pos := uint(j.SchedCache.TaskPos)
	for k, ts := range p.coreTasks {
		if pos < uint(len(ts)) && ts[pos] == j.Task {
			return k
		}
	}
	return p.assign[j.Task.ID]
}
