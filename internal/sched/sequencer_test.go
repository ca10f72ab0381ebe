package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

// The Sequencer against the literal loop it replaces: over sequences of
// decisions, its aborts, critical-time order, head and feasibility
// iteration count must equal those of Algorithm 1 lines 9–18 built from
// JobFeasible, ByCriticalTime, a stable sort by key, InsertByCritical
// and Feasible.

// seqFm is f_m of these tests: a power of two, so that every rem/f_m is
// exact and finish times can be placed on a chosen float.
const seqFm = 1 << 30

// seqTask is a task with a zero-variance demand, so that c_i is exactly
// mean cycles, and a step TUF over its window.
func seqTask(id, a int, p, mean float64) *task.Task {
	return &task.Task{
		ID: id, Arrival: uam.Spec{A: a, P: p}, TUF: tuf.NewStep(1, p),
		Demand: task.Demand{Mean: mean},
		Req:    task.Requirement{Nu: 1, Rho: 0.9},
	}
}

// literalHead is Algorithm 1 lines 9–18 as written, with the key and,
// under a Ration, the cost of each job given by the maps. A NaN key
// ranks after every other and is never inserted.
func literalHead(now float64, ready []*task.Job, key, cost map[*task.Job]float64, strict bool, r *Ration) (head *task.Job, iters int, live, aborts []*task.Job) {
	for _, j := range ready {
		if !JobFeasible(j, now, seqFm) {
			aborts = append(aborts, j)
			continue
		}
		live = append(live, j)
	}
	ByCriticalTime(live)
	critical := slices.Clone(live)
	rank := func(j *task.Job) float64 {
		if k := key[j]; !math.IsNaN(k) {
			return k
		}
		return math.Inf(-1)
	}
	sort.SliceStable(live, func(a, b int) bool { return rank(live[a]) > rank(live[b]) })
	var order []*task.Job
	committed := 0.0
	for _, j := range live {
		if rank(j) <= 0 {
			break
		}
		if r != nil && (committed+cost[j] > r.Left || r.Binding && key[j] < r.Floor) {
			continue
		}
		iters++
		tent := InsertByCritical(append([]*task.Job(nil), order...), j)
		if Feasible(tent, now, seqFm) {
			order = tent
			committed += cost[j]
		} else if strict {
			break
		}
	}
	if len(order) > 0 {
		head = order[0]
	}
	return head, iters, critical, aborts
}

// decide runs one decision through q with the keys and costs of the
// maps, and reports whether EDFHead settled it.
func decide(q *Sequencer, tab *TaskTable, now float64, ready []*task.Job, key, cost map[*task.Job]float64, strict bool, r *Ration) (head *task.Job, iters int, aborts []*task.Job, replayed bool) {
	aborts = q.Gather(now, ready, tab)
	live := q.Live()
	for i := range live {
		live[i].Key, live[i].Cost = key[live[i].Job], cost[live[i].Job]
	}
	_, _, replayed = q.EDFHead(now)
	head, iters = q.Head(now, strict, r)
	return head, iters, aborts, replayed && r == nil
}

func TestSequencerMatchesLiteralLoop(t *testing.T) {
	keyChoices := []float64{1, 1.5, 2, 2, 3, 0.5, 0, -1, math.NaN(), math.Inf(1)}
	var replays, greedies, rationed, strictBreaks, exits int
	var ties [3]int // critical-time ties broken by arrival, task ID, index
	for seed := uint64(1); seed <= 48; seed++ {
		src := rng.New(seed)
		scale := []float64{1.0 / 16, 1.0 / 4, 1}[seed%3]
		strict := seed%4 == 1
		ration := seed%4 == 2
		// Dyadic windows, demands and release instants: critical times
		// tie often and exactly, by arrival, by task ID and by index.
		ts := task.Set{
			seqTask(1, 2, 0.25, scale*seqFm/32),
			seqTask(2, 1, 0.25, scale*seqFm/16),
			seqTask(3, 1, 0.375, scale*3*seqFm/64),
			seqTask(4, 3, 0.5, scale*seqFm/64),
			seqTask(5, 2, 0.125, scale*seqFm/128),
		}
		// A task outside the table: its jobs take c_i from their task.
		all := append(slices.Clone(ts), seqTask(9, 1, 0.25, scale*seqFm/32))
		tab := NewTaskTable(ts)
		q := NewSequencer(seqFm, ts)
		// other gathers half of every ready list after q has decided,
		// overwriting the LivePos hints q reads at its next decision.
		other := NewSequencer(seqFm, ts)

		var ready []*task.Job
		key := map[*task.Job]float64{}
		cost := map[*task.Job]float64{}
		newKey := func() float64 {
			if src.Bernoulli(0.5) {
				return keyChoices[src.Intn(len(keyChoices))]
			}
			return src.Uniform(0.1, 4)
		}
		released := map[*task.Task]int{}
		now := 0.0
		for step := 0; step < 150; step++ {
			for k := src.Intn(3); k > 0; k-- {
				tk := all[src.Intn(len(all))]
				j := task.NewJob(tk, released[tk], now, rng.New(uint64(step)))
				released[tk]++
				ready = append(ready, j)
				key[j], cost[j] = newKey(), float64(1+src.Intn(3))
			}
			if len(ready) > 0 && src.Bernoulli(0.3) {
				i := src.Intn(len(ready))
				ready = slices.Delete(ready, i, i+1)
			}
			for _, j := range ready {
				if src.Bernoulli(0.2) {
					key[j] = newKey()
				}
			}
			for i := len(ready) - 1; i > 0; i-- {
				k := src.Intn(i + 1)
				ready[i], ready[k] = ready[k], ready[i]
			}
			var r *Ration
			if ration {
				// Whole-joule budgets let a cost fill the budget exactly.
				left := float64(src.Intn(7))
				if src.Bernoulli(0.5) {
					left = src.Uniform(0, 6)
				}
				r = &Ration{Left: left, Binding: src.Bernoulli(0.5), Floor: 1.5}
				rationed++
			}

			wantHead, wantIters, wantCrit, wantAborts := literalHead(now, ready, key, cost, strict, r)
			exited := q.exits
			gotHead, gotIters, gotAborts, replayed := decide(&q, &tab, now, ready, key, cost, strict, r)
			exited = q.exits - exited
			where := func() string { return fmt.Sprintf("seed %d step %d", seed, step) }
			if exited != 0 && (strict || r != nil) {
				t.Fatalf("%s: a greedy that is strict (%v) or rationed (%v) stopped early", where(), strict, r != nil)
			}
			exits += exited
			if gotHead != wantHead {
				t.Fatalf("%s: head %v, literal loop %v", where(), gotHead, wantHead)
			}
			if gotIters != wantIters {
				t.Fatalf("%s: %d feasibility iterations, literal loop %d", where(), gotIters, wantIters)
			}
			if !slices.Equal(gotAborts, wantAborts) {
				t.Fatalf("%s: aborts %v, literal loop %v", where(), gotAborts, wantAborts)
			}
			for _, j := range gotAborts {
				if j.AbortReason != AbortInfeasible {
					t.Fatalf("%s: abort reason %q", where(), j.AbortReason)
				}
			}
			live := q.Live()
			for k, i := range q.Critical() {
				if live[i].Job != wantCrit[k] {
					t.Fatalf("%s: critical-time order differs at %d", where(), k)
				}
				if k > 0 {
					if a, b := wantCrit[k-1], wantCrit[k]; a.AbsCritical == b.AbsCritical {
						switch {
						case a.Arrival != b.Arrival:
							ties[0]++
						case a.Task != b.Task:
							ties[1]++
						default:
							ties[2]++
						}
					}
				}
			}
			if replayed {
				replays++
			} else if r == nil {
				greedies++
				if strict && wantIters < countPositive(live) {
					strictBreaks++
				}
			}

			ready = slices.DeleteFunc(ready, func(j *task.Job) bool { return slices.Contains(gotAborts, j) })
			other.Gather(now, ready[:len(ready)/2], &tab)
			dt := float64(1+src.Intn(4)) / 64
			if gotHead != nil {
				gotHead.Executed += dt * seqFm / 2
			}
			now += dt
		}
	}
	t.Logf("%d decisions settled by the replay, %d by the greedy (%d broken off, %d stopped once the head was fixed), %d under a ration; critical-time ties broken by arrival, task ID and index: %v",
		replays, greedies, strictBreaks, exits, rationed, ties)
	if replays == 0 || greedies == 0 || strictBreaks == 0 || exits == 0 || rationed == 0 || slices.Contains(ties[:], 0) {
		t.Fatal("a path went untested")
	}
}

// countPositive counts the live jobs of positive key.
func countPositive(live []Live) int {
	n := 0
	for _, c := range live {
		if c.Key > 0 {
			n++
		}
	}
	return n
}

// TestSequencerThresholdBoundary places finish times exactly on a
// threshold X + 1e-12·X, where they pass, and one ulp of work past it,
// where they fail. A short job heads the critical-time order; a long one
// with the later termination time X ends the EDF schedule exactly on its
// threshold, or one ulp past it. Either job may have the higher key, so
// that the boundary falls on the greedy's candidate or on its suffix,
// and a Ration with nothing to ration makes the greedy decide what the
// replay would. Alone, a job whose remaining work ends exactly on its
// threshold at f_m stays live and runs, and one ulp more aborts it.
func TestSequencerThresholdBoundary(t *testing.T) {
	const short = 1.0 / 1024
	x := 0.2
	thr := x + 1e-12*x
	b := thr - short
	if b+short != thr {
		t.Fatal("boundary construction is not exact")
	}
	past := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	for _, c := range []struct {
		name      string
		rem       float64
		longFirst bool // the long job has the higher key
		head      int
	}{
		{"ends-on-threshold/long-first", b * seqFm, true, 1},
		{"ends-on-threshold/short-first", b * seqFm, false, 1},
		{"one-ulp-past/long-first", past(b * seqFm), true, 2},
		{"one-ulp-past/short-first", past(b * seqFm), false, 1},
	} {
		for _, r := range []*Ration{nil, {Left: math.Inf(1)}} {
			t.Run(fmt.Sprintf("%s/ration=%v", c.name, r != nil), func(t *testing.T) {
				head := seqTask(1, 1, 0.125, short*seqFm)
				long := seqTask(2, 1, x, c.rem)
				ts := task.Set{head, long}
				jobs := []*task.Job{task.NewJob(long, 0, 0, rng.New(1)), task.NewJob(head, 0, 0, rng.New(2))}
				key := map[*task.Job]float64{jobs[0]: 1, jobs[1]: 1000}
				if c.longFirst {
					key[jobs[0]], key[jobs[1]] = 1000, 1
				}
				tab := NewTaskTable(ts)
				q := NewSequencer(seqFm, ts)
				wantHead, wantIters, _, _ := literalHead(0, jobs, key, nil, false, r)
				gotHead, gotIters, _, replayed := decide(&q, &tab, 0, jobs, key, nil, false, r)
				if gotHead.Task.ID != c.head || wantHead != gotHead || gotIters != wantIters || gotIters != 2 {
					t.Fatalf("head %v after %d iterations, literal loop %v after %d; want task %d after 2",
						gotHead, gotIters, wantHead, wantIters, c.head)
				}
				if want := r == nil && c.rem == b*seqFm; replayed != want {
					t.Fatalf("replay settled the decision: %v, want %v", replayed, want)
				}
			})
		}
	}
	for _, c := range []struct {
		name  string
		rem   float64
		abort bool
	}{
		{"alone-on-threshold", thr * seqFm, false},
		{"alone-one-ulp-past", past(thr * seqFm), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tk := seqTask(2, 1, x, c.rem)
			j := task.NewJob(tk, 0, 0, rng.New(1))
			tab := NewTaskTable(task.Set{tk})
			q := NewSequencer(seqFm, task.Set{tk})
			aborts := q.Gather(0, []*task.Job{j}, &tab)
			if got := len(aborts) == 1; got != c.abort || JobFeasible(j, 0, seqFm) == c.abort {
				t.Fatalf("aborted: %v, JobFeasible: %v; want aborted %v", got, JobFeasible(j, 0, seqFm), c.abort)
			}
			if c.abort {
				return
			}
			// Live, it runs, by the replay or by the greedy.
			q.Live()[0].Key = 1
			for _, r := range []*Ration{nil, {Left: math.Inf(1)}} {
				if head, iters := q.Head(0, false, r); head != j || iters != 1 {
					t.Fatalf("ration %v: head %v after %d iterations, want the job after 1", r != nil, head, iters)
				}
			}
		})
	}
}
