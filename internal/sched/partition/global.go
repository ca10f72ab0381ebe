package partition

import (
	"fmt"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// Global is the contrasting multiprocessor design point to Partitioned:
// one shared ready queue, dispatched greedily by Utility and Energy
// Ratio. At every scheduling event it aborts the jobs that can no longer
// finish by their termination time even alone at full speed, ranks the
// rest by UER at the reference f_max (EUA*'s Algorithm 1 line 11
// currency), and runs the top m — so jobs migrate freely between cores,
// and the engine's migration counter measures what that freedom costs.
// Each core's DVS frequency is chosen core-locally: the slowest table
// step that still finishes the dispatched job's remaining allocation by
// its critical time.
//
// With m = 1 the greedy top-1 dispatch is a plain highest-UER-first
// uniprocessor scheme — a baseline, not EUA* (which packs a feasible
// schedule, not just the single best job).
type Global struct {
	m      int
	tables []cpu.FrequencyTable
	model  energy.Model
	fmax   float64 // reference top frequency (shared ladder's maximum)

	last   map[*task.Job]int // job → core of its previous dispatch
	ranked []*task.Job       // reusable ranking buffer
	cores  []sched.CoreDecision
	taken  []bool
}

// NewGlobal builds the global scheduler for m cores.
func NewGlobal(m int) *Global {
	if m < 1 {
		panic(fmt.Sprintf("partition: core count %d must be at least 1", m))
	}
	return &Global{m: m}
}

// Name identifies the scheme: "G-UER" with m = 1, "G-UER/4" on 4 cores.
func (g *Global) Name() string {
	if g.m == 1 {
		return "G-UER"
	}
	return fmt.Sprintf("G-UER/%d", g.m)
}

// Cores returns the core count the scheduler was built for.
func (g *Global) Cores() int { return g.m }

// Init captures the platform parameters.
func (g *Global) Init(ctx *sched.Context) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	g.tables = ctx.CoreTables(g.m)
	g.model = ctx.Energy
	g.fmax = ctx.Freqs.Max()
	g.last = make(map[*task.Job]int)
	g.ranked = nil
	g.cores = make([]sched.CoreDecision, g.m)
	g.taken = make([]bool, g.m)
	return nil
}

// Decide satisfies sched.Scheduler with the top-1 unwrapping of
// DecideMulti; the engine itself asks DecideMulti on every core count.
func (g *Global) Decide(now float64, ready []*task.Job) sched.Decision {
	d := g.DecideMulti(now, ready)
	return sched.Decision{Run: d.Cores[0].Run, Freq: d.Cores[0].Freq, Abort: d.Abort}
}

// DecideMulti aborts the infeasible, ranks the rest by UER at the
// reference f_max, and dispatches the top m with core stickiness: a job
// keeps its previous core whenever that core is still free, so
// migrations happen only when the ranking forces them.
func (g *Global) DecideMulti(now float64, ready []*task.Job) sched.MultiDecision {
	var aborts []*task.Job
	g.ranked = g.ranked[:0]
	for _, j := range ready {
		if !sched.JobFeasible(j, now, g.fmax) {
			j.AbortReason = sched.AbortInfeasible
			aborts = append(aborts, j)
			continue
		}
		g.ranked = append(g.ranked, j)
	}
	// Highest UER first; sched.Less breaks ties so the order is total
	// and deterministic.
	sortByUER(now, g.ranked, g.fmax, g.model)
	n := len(g.ranked)
	if n > g.m {
		n = g.m
	}
	chosen := g.ranked[:n]
	for k := range g.cores {
		g.cores[k] = sched.CoreDecision{}
		g.taken[k] = false
	}
	// Pass 1 — stickiness: a chosen job whose previous core is free
	// stays there.
	pending := chosen[:0:0]
	for _, j := range chosen {
		if k, ok := g.last[j]; ok && !g.taken[k] {
			g.place(now, k, j)
			continue
		}
		pending = append(pending, j)
	}
	// Pass 2 — the rest fill free cores in index order (rank order, so
	// the highest-UER homeless job gets the lowest free core).
	k := 0
	for _, j := range pending {
		for g.taken[k] {
			k++
		}
		g.place(now, k, j)
	}
	// Prune stickiness entries of jobs no longer pending: ready holds
	// every unresolved job, so anything absent from it has resolved.
	if len(g.last) > len(ready) {
		alive := make(map[*task.Job]bool, len(ready))
		for _, j := range ready {
			alive[j] = true
		}
		for j := range g.last {
			if !alive[j] {
				delete(g.last, j)
			}
		}
	}
	return sched.MultiDecision{Cores: g.cores, Abort: aborts}
}

// place dispatches j on core k at the slowest table step that still
// finishes its remaining allocation by its critical time.
func (g *Global) place(now float64, k int, j *task.Job) {
	g.taken[k] = true
	g.last[j] = k
	f := g.tables[k].Max()
	if slack := j.AbsCritical - now; slack > 0 {
		f = g.tables[k].ClampSelect(j.EstimatedRemaining() / slack)
	}
	g.cores[k] = sched.CoreDecision{Run: j, Freq: f}
}

// sortByUER orders jobs by decreasing UER at frequency f, tie-broken by
// the deterministic critical-time total order.
func sortByUER(now float64, jobs []*task.Job, f float64, m energy.Model) {
	uer := make(map[*task.Job]float64, len(jobs))
	for _, j := range jobs {
		uer[j] = sched.UER(now, j, f, m)
	}
	sortJobs(jobs, func(a, b *task.Job) bool {
		ua, ub := uer[a], uer[b]
		if ua != ub {
			return ua > ub
		}
		return sched.Less(a, b)
	})
}

// sortJobs is an insertion sort: decision-time job counts are small and
// the jobs arrive mostly ordered from the previous decision, so this
// beats the allocation and indirection of sort.Slice on the hot path.
func sortJobs(jobs []*task.Job, less func(a, b *task.Job) bool) {
	for i := 1; i < len(jobs); i++ {
		j := jobs[i]
		k := i - 1
		for k >= 0 && less(j, jobs[k]) {
			jobs[k+1] = jobs[k]
			k--
		}
		jobs[k+1] = j
	}
}
