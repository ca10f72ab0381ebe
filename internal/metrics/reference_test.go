package metrics_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/stats"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/workload"
)

// refTaskStats and analyzeReference are metrics.Analyze as it was
// before its per-task stats moved into one slice: a map of individually
// allocated stats, sojourns appended per task, tasks sorted by ID at the
// end. They are the oracle for TestAnalyzeMatchesReference.
type refTaskStats struct {
	metrics.TaskStats
	sojourns []float64
}

func analyzeReference(res *engine.Result) (*metrics.Report, []*refTaskStats) {
	r := &metrics.Report{
		Scheduler:   res.SchedulerName,
		TotalEnergy: res.TotalEnergy,
		Cycles:      res.Cycles,
		BusyTime:    res.BusyTime,
		EndTime:     res.EndTime,
		Switches:    res.Switches,
		MaxLateness: math.Inf(-1),
	}
	perTask := make(map[int]*refTaskStats)
	for _, j := range res.Jobs {
		ts := perTask[j.Task.ID]
		if ts == nil {
			ts = &refTaskStats{TaskStats: metrics.TaskStats{Task: j.Task, MaxLateness: math.Inf(-1)}}
			perTask[j.Task.ID] = ts
		}
		ts.Released++
		r.Released++
		umax := j.Task.TUF.MaxUtility()
		ts.MaxPossibleUtility += umax
		r.MaxPossibleUtility += umax
		switch j.State {
		case task.Completed:
			ts.Completed++
			r.Completed++
			ts.AccruedUtility += j.Utility
			r.AccruedUtility += j.Utility
			ts.sojourns = append(ts.sojourns, j.FinishedAt-j.Arrival)
			if l := j.Lateness(); l > ts.MaxLateness {
				ts.MaxLateness = l
			}
			if j.Lateness() > r.MaxLateness {
				r.MaxLateness = j.Lateness()
			}
			if j.Lateness() > 1e-9 {
				r.CriticalMisses++
			}
		case task.Aborted:
			ts.Aborted++
			r.Aborted++
			r.CriticalMisses++
			ts.AccruedUtility += j.Utility
			r.AccruedUtility += j.Utility
		default:
			panic(fmt.Sprintf("metrics: unresolved job %v in result", j))
		}
		if j.MetRequirement() {
			ts.Met++
		}
	}
	ids := make([]int, 0, len(perTask))
	for id := range perTask {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var per []*refTaskStats
	for _, id := range ids {
		per = append(per, perTask[id])
	}
	return r, per
}

// fig2Cell runs the Figure 2 cell's five schemes (the EDF-fm baseline and
// the four Figure 2 schemes) on the Table 1 workload at load 0.6.
func fig2Cell(t testing.TB, seed uint64, horizon float64) []*engine.Result {
	ft := cpu.PowerNowK6()
	model := energy.MustPreset(energy.E1, ft.Max())
	src := rng.New(seed * 0x9e3779b9)
	var ts task.Set
	for _, app := range workload.Table1() {
		set, err := app.Synthesize(src, workload.Options{FirstID: len(ts) + 1})
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, set...)
	}
	ts = ts.ScaleToLoad(0.6, ft.Max())
	var out []*engine.Result
	for _, sc := range append([]experiment.Scheme{experiment.BaselineScheme()}, experiment.Figure2Schemes()...) {
		res, err := engine.Run(engine.Config{
			Tasks: ts, Scheduler: sc.New(), Freqs: ft, Energy: model,
			Horizon: horizon, Seed: seed, AbortAtTermination: sc.Abort,
		})
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, sc.Name, err)
		}
		out = append(out, res)
	}
	return out
}

// TestAnalyzeMatchesReference holds Analyze to analyzeReference on fig2
// cells: every Report field, the PerTask order and each task's stats
// and Sojourn() summary must be identical.
func TestAnalyzeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, res := range fig2Cell(t, seed, 0.25) {
			got := metrics.Analyze(res)
			want, wantPer := analyzeReference(res)
			cell := fmt.Sprintf("seed %d %s", seed, res.SchedulerName)
			gotPer := got.PerTask
			got.PerTask, want.PerTask = nil, nil
			if fmt.Sprintf("%#v", *got) != fmt.Sprintf("%#v", *want) {
				t.Fatalf("%s: report\n%#v\nreference\n%#v", cell, *got, *want)
			}
			if len(gotPer) != len(wantPer) {
				t.Fatalf("%s: %d tasks, reference %d", cell, len(gotPer), len(wantPer))
			}
			for i, ts := range gotPer {
				ref := wantPer[i]
				if ts.Task != ref.Task || ts.Released != ref.Released || ts.Completed != ref.Completed ||
					ts.Aborted != ref.Aborted || ts.Met != ref.Met ||
					math.Float64bits(ts.AccruedUtility) != math.Float64bits(ref.AccruedUtility) ||
					math.Float64bits(ts.MaxPossibleUtility) != math.Float64bits(ref.MaxPossibleUtility) ||
					math.Float64bits(ts.MaxLateness) != math.Float64bits(ref.MaxLateness) {
					t.Fatalf("%s: task %d stats %+v, reference %+v", cell, i, *ts, ref.TaskStats)
				}
				if g, w := ts.Sojourn(), stats.Summarize(ref.sojourns); g != w {
					t.Fatalf("%s: task %v sojourns %+v, reference %+v", cell, ts.Task, g, w)
				}
			}
		}
	}
}

// TestAnalyzeAllocationsFlat: Analyze's allocations do not grow with the
// number of jobs, so a run four times as long costs the same count.
func TestAnalyzeAllocationsFlat(t *testing.T) {
	short, long := fig2Cell(t, 1, 0.25)[1], fig2Cell(t, 1, 1)[1]
	if len(long.Jobs) < 3*len(short.Jobs) {
		t.Fatalf("horizon 1 released %d jobs, horizon 0.25 %d", len(long.Jobs), len(short.Jobs))
	}
	a := testing.AllocsPerRun(20, func() { metrics.Analyze(short) })
	b := testing.AllocsPerRun(20, func() { metrics.Analyze(long) })
	if b > a {
		t.Fatalf("Analyze made %v allocations on %d jobs and %v on %d", a, len(short.Jobs), b, len(long.Jobs))
	}
}
