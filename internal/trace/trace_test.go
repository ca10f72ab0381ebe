package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/tuf"
	"github.com/euastar/euastar/internal/uam"
)

func runRecorded(t *testing.T, overload bool) *engine.Result {
	t.Helper()
	src := rng.New(5)
	ts := make(task.Set, 3)
	for i := range ts {
		p := src.Uniform(0.03, 0.15)
		ts[i] = &task.Task{
			ID: i + 1, Arrival: uam.Spec{A: 1, P: p},
			TUF:    tuf.NewStep(10, p),
			Demand: task.Demand{Mean: 1e6, Variance: 1e6},
			Req:    task.Requirement{Nu: 1, Rho: 0.96},
		}
	}
	ft := cpu.PowerNowK6()
	load := 0.5
	if overload {
		load = 1.6
	}
	ts = ts.ScaleToLoad(load, ft.Max())
	res, err := engine.Run(engine.Config{
		Tasks: ts, Scheduler: eua.New(), Freqs: ft,
		Energy:  energy.MustPreset(energy.E1, ft.Max()),
		Horizon: 1.0, Seed: 7, AbortAtTermination: true,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidatePassesRealRuns(t *testing.T) {
	for _, overload := range []bool{false, true} {
		res := runRecorded(t, overload)
		if err := Validate(res, cpu.PowerNowK6()); err != nil {
			t.Fatalf("overload=%v: %v", overload, err)
		}
	}
}

func TestValidatePassesEDF(t *testing.T) {
	tk := &task.Task{
		ID: 1, Arrival: uam.Spec{A: 1, P: 0.1},
		TUF:    tuf.NewStep(10, 0.1),
		Demand: task.Demand{Mean: 5e6, Variance: 0},
		Req:    task.Requirement{Nu: 1, Rho: 0.9},
	}
	ft := cpu.PowerNowK6()
	res, err := engine.Run(engine.Config{
		Tasks: task.Set{tk}, Scheduler: baseline.NewEDF(true), Freqs: ft,
		Energy: energy.MustPreset(energy.E1, ft.Max()), Horizon: 0.5,
		Seed: 1, AbortAtTermination: true, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res, ft); err != nil {
		t.Fatal(err)
	}
}

func TestValidateNil(t *testing.T) {
	if err := Validate(nil, cpu.PowerNowK6()); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ft := cpu.PowerNowK6()
	corruptions := []func(*engine.Result){
		func(r *engine.Result) { r.Trace[0].Frequency = 123 },
		func(r *engine.Result) { r.Trace[0].Cycles *= 2 },
		func(r *engine.Result) { r.Trace[0].Start = r.Trace[0].End + 1 },
		func(r *engine.Result) { r.Trace[1].Start = r.Trace[0].Start }, // overlap
		func(r *engine.Result) { r.Trace[0].Job = nil },
		func(r *engine.Result) { r.Jobs[0].Executed *= 3 },
		func(r *engine.Result) { r.Jobs[0].State = task.Pending },
		func(r *engine.Result) { r.Trace[0].Start = r.Trace[0].Job.Arrival - 1 },
	}
	for i, corrupt := range corruptions {
		res := runRecorded(t, false)
		corrupt(res)
		if err := Validate(res, ft); err == nil {
			t.Errorf("corruption %d not detected", i)
		}
	}
}

func TestValidateCatchesLateAbort(t *testing.T) {
	res := runRecorded(t, true)
	var ab *task.Job
	for _, j := range res.Jobs {
		if j.State == task.Aborted {
			ab = j
			break
		}
	}
	if ab == nil {
		t.Skip("no aborted job in this run")
	}
	ab.FinishedAt = ab.Termination + 1
	if err := Validate(res, cpu.PowerNowK6()); err == nil {
		t.Fatal("late abort not detected")
	}
}

func TestWriteCSV(t *testing.T) {
	res := runRecorded(t, false)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Trace)+1 {
		t.Fatalf("%d lines for %d spans", len(lines), len(res.Trace))
	}
	if lines[0] != "task,job,start,end,frequency_hz,cycles" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ",") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestFrequencyResidency(t *testing.T) {
	res := runRecorded(t, false)
	resid := FrequencyResidency(res.Trace)
	total := 0.0
	for _, v := range resid {
		total += v
	}
	if math.Abs(total-res.BusyTime) > 1e-9 {
		t.Fatalf("residency sums to %v, busy %v", total, res.BusyTime)
	}
	fs := Frequencies(resid)
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatal("frequencies not ascending")
		}
	}
}
