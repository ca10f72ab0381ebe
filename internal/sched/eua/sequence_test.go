package eua

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
)

// Decide-sequence tests of the orders the core keeps across decisions:
// one scheduler decides a ready set that changes between calls, and
// every decision and the running feasibility-iteration count must equal
// the reference's, which sorts from scratch at every call.

// seqTasks is the test's task set on the power-of-two table of
// shortcutCtx: step TUFs, whose UERs the core memoizes, and linear TUFs,
// whose UERs move with now. Windows and critical times are dyadic, and
// so are the release instants below, so critical times tie often and
// exactly: by arrival, by task ID and, within a burst, by index. scale
// sizes the demands: at 1 the script overloads the processor about
// tenfold, at 1/16 it mostly underloads it.
func seqTasks(scale float64) task.Set {
	fm := scale * shortcutFm
	return task.Set{
		shortcutTask(1, 2, 0.25, tuf.NewStep(10, 0.25), 1, 0.03125*fm),
		shortcutTask(2, 1, 0.25, tuf.NewStep(40, 0.25), 1, 0.0625*fm),
		shortcutTask(3, 1, 0.375, tuf.NewStep(20, 0.375), 1, 0.046875*fm),
		shortcutTask(4, 1, 0.5, tuf.NewLinear(30, 0, 0.5), 0.5, 0.0625*fm),
		shortcutTask(5, 3, 0.5, tuf.NewStep(5, 0.5), 1, 0.015625*fm),
		shortcutTask(6, 2, 0.125, tuf.NewLinear(8, 2, 0.125), 0.5, 0.0078125*fm),
	}
}

// seqRun drives the core instances and the reference through one
// seed's script of 400 decisions: arrivals, completions, aborts and jobs
// that leave, the running job's progress, foreign jobs, and a budget
// that starts to bind. The instances in cores make the decisions in
// turn; every release reaches each of them.
func seqRun(t *testing.T, seed uint64, cores []*Scheduler, ref *refScheduler) (st seqStats) {
	t.Helper()
	ts := seqTasks([]float64{1.0 / 16, 1.0 / 4, 1}[seed%3])
	// The foreign task's job cannot finish by its critical time below
	// f_m, so its f^o is f_m: every decision that runs it checks the f^o
	// clamp, and budget rationing prices it at E(f_m).
	foreign := shortcutTask(9, 1, 0.25, tuf.NewStep(25, 0.046875), 1, 0.03125*shortcutFm)
	coreCtx, refCtx := shortcutCtx(ts), shortcutCtx(ts)
	for _, c := range cores {
		if err := c.Init(coreCtx); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Init(refCtx); err != nil {
		t.Fatal(err)
	}
	budget := ref.budgetAware
	src := rng.New(seed)
	// core and oracle hold the same ready set, built twice so that
	// neither side sees the other's writes: oracle[i] mirrors core[i].
	var core, oracle []*task.Job
	released := make(map[*task.Task]int)
	now := 0.0
	release := func(tk *task.Task, ctxTask bool) {
		idx := released[tk]
		released[tk]++
		cj := releasedJob(tk, idx, now, 0)
		rj := releasedJob(tk, idx, now, 0)
		core = append(core, cj)
		oracle = append(oracle, rj)
		if ctxTask {
			for _, c := range cores {
				c.OnRelease(now, cj)
			}
			ref.OnRelease(now, rj)
		}
	}
	remove := func(i int) {
		core = slices.Delete(core, i, i+1)
		oracle = slices.Delete(oracle, i, i+1)
	}
	spent := 0.0
	running := -1
	for k := 0; k < 400; k++ {
		// Time moves on a dyadic grid, sometimes not at all.
		dt := float64(src.Intn(4)) / 1024
		now += dt
		// The job that ran since the last decision progressed.
		if running >= 0 {
			cyc := dt * shortcutFm * src.Uniform(0.25, 1)
			core[running].Executed += cyc
			oracle[running].Executed += cyc
			spent += cyc * 1e-9
			if src.Bernoulli(0.3) {
				// Completion.
				remove(running)
			}
		}
		running = -1
		// Arrivals: single releases, bursts of one task (ties by
		// index), and several tasks at one instant (ties by ID and, on
		// the dyadic grid, by arrival).
		switch r := src.Intn(10); {
		case r < 3:
			release(ts[src.Intn(len(ts))], true)
		case r == 3:
			tk := ts[0]
			if src.Bernoulli(0.5) {
				tk = ts[4]
			}
			release(tk, true)
			release(tk, true)
		case r == 4:
			release(ts[0], true)
			release(ts[1], true)
		case r == 5 && src.Bernoulli(0.3):
			release(foreign, false)
		}
		// Occasionally a job leaves without the scheduler's doing.
		if len(core) > 0 && src.Bernoulli(0.05) {
			remove(src.Intn(len(core)))
		}
		// The engine hands over the ready set in any order.
		for i := len(core) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			core[i], core[j] = core[j], core[i]
			oracle[i], oracle[j] = oracle[j], oracle[i]
		}
		if budget {
			b := 1e30
			if k > 100 {
				b = spent + src.Uniform(0, 0.5)
			}
			for _, c := range cores {
				c.OnEnergy(spent, b)
			}
			ref.OnEnergy(spent, b)
		}
		c := cores[k%len(cores)]
		got := c.Decide(now, append([]*task.Job(nil), core...))
		want := ref.Decide(now, append([]*task.Job(nil), oracle...))
		where := fmt.Sprintf("decision %d at %v (%d ready)", k, now, len(core))
		gi, wi := -1, -1
		if got.Run != nil {
			gi = slices.Index(core, got.Run)
		}
		if want.Run != nil {
			wi = slices.Index(oracle, want.Run)
		}
		if gi != wi {
			t.Fatalf("%s: core runs job %d, reference %d", where, gi, wi)
		}
		if math.Float64bits(got.Freq) != math.Float64bits(want.Freq) {
			t.Fatalf("%s: freq: core %v, reference %v", where, got.Freq, want.Freq)
		}
		if len(got.Abort) != len(want.Abort) {
			t.Fatalf("%s: core aborts %d jobs, reference %d", where, len(got.Abort), len(want.Abort))
		}
		for i := range got.Abort {
			if slices.Index(core, got.Abort[i]) != slices.Index(oracle, want.Abort[i]) {
				t.Fatalf("%s: abort %d differs", where, i)
			}
		}
		if g, w := feasIters(coreCtx, cores[0].Name()), feasIters(refCtx, ref.Name()); g != w {
			t.Fatalf("%s: feasibility iterations: core %d, reference %d", where, g, w)
		}
		for _, a := range got.Abort {
			remove(slices.Index(core, a))
		}
		if got.Run != nil {
			running = slices.Index(core, got.Run)
		}
		if _, _, ok := c.edfHead(now); !ok && !c.noUER {
			st.greedy++
		}
		for i, a := range core {
			for _, b := range core[i+1:] {
				if a.AbsCritical != b.AbsCritical {
					continue
				}
				switch {
				case a.Arrival != b.Arrival:
					st.tieArrival++
				case a.Task != b.Task:
					st.tieID++
				default:
					st.tieIndex++
				}
			}
		}
	}
	return st
}

// seqStats counts what a sequence met: decisions the greedy made, and
// pairs of ready jobs whose critical times tie, by the key that breaks
// the tie.
type seqStats struct {
	greedy, tieArrival, tieID, tieIndex int
}

func TestDecideSequenceMatchesReference(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"strictBreak", []Option{WithStrictBreak()}},
		{"budget", []Option{WithBudgetAwareness(0)}},
		{"noUER", []Option{WithoutUERInsertion()}},
	}
	var total seqStats
	for _, v := range variants {
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/one-instance/seed%d", v.name, seed), func(t *testing.T) {
				st := seqRun(t, seed, []*Scheduler{New(v.opts...)}, NewReference(v.opts...).(*refScheduler))
				if v.name == "default" {
					total.greedy += st.greedy
					total.tieArrival += st.tieArrival
					total.tieID += st.tieID
					total.tieIndex += st.tieIndex
				}
			})
			// Two instances decide the one job set in turn, so each
			// overwrites the other's hints and finds its kept orders a
			// decision out of date.
			t.Run(fmt.Sprintf("%s/two-instances/seed%d", v.name, seed), func(t *testing.T) {
				seqRun(t, seed, []*Scheduler{New(v.opts...), New(v.opts...)}, NewReference(v.opts...).(*refScheduler))
			})
		}
	}
	// The script must reach the greedy and every kind of tie.
	if total.greedy < 100 || total.tieArrival == 0 || total.tieID == 0 || total.tieIndex == 0 {
		t.Fatalf("the script met too little: %+v", total)
	}
	t.Logf("default variant over 12 seeds: %+v", total)
}
