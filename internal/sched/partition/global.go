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

	last    map[*task.Job]int // job → core of its previous dispatch
	ranked  []*task.Job       // reusable ranking buffer
	uers    []float64         // the UER of each ranked job
	pending []*task.Job       // the second dispatch pass's buffer
	cores   []sched.CoreDecision
	taken   []bool
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
	g.ranked, g.uers, g.pending = nil, nil, nil
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
	g.ranked, g.uers = g.ranked[:0], g.uers[:0]
	for _, j := range ready {
		if !sched.JobFeasible(j, now, g.fmax) {
			j.AbortReason = sched.AbortInfeasible
			aborts = append(aborts, j)
			continue
		}
		g.ranked = append(g.ranked, j)
		g.uers = append(g.uers, sched.UER(now, j, g.fmax, g.model))
	}
	g.sortByUER()
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
	pending := g.pending[:0]
	for _, j := range chosen {
		if k, ok := g.last[j]; ok && !g.taken[k] {
			g.place(now, k, j)
			continue
		}
		pending = append(pending, j)
	}
	g.pending = pending
	// Pass 2 — the rest fill free cores in index order (rank order, so
	// the highest-UER homeless job gets the lowest free core).
	k := 0
	for _, j := range pending {
		for g.taken[k] {
			k++
		}
		g.place(now, k, j)
	}
	// Prune stickiness entries of resolved jobs: ready holds every
	// unresolved job, so a map larger than ready holds some.
	if len(g.last) > len(ready) {
		for j := range g.last {
			if j.State != task.Pending {
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

// sortByUER orders the ranked jobs by decreasing UER, tie-broken by the
// deterministic critical-time total order, moving each job's UER with
// it. It is an insertion sort: decision-time job counts are small and
// the jobs arrive mostly ordered from the previous decision.
func (g *Global) sortByUER() {
	jobs, uers := g.ranked, g.uers
	for i := 1; i < len(jobs); i++ {
		j, u := jobs[i], uers[i]
		k := i - 1
		for k >= 0 && (u > uers[k] || u == uers[k] && sched.Less(j, jobs[k])) {
			jobs[k+1], uers[k+1] = jobs[k], uers[k]
			k--
		}
		jobs[k+1], uers[k+1] = j, u
	}
}
