// Command euatrace runs a single simulation scenario with trace recording
// and prints the schedule's anatomy: the metrics report, the frequency
// residency (how long the CPU spent at each DVS step), and optionally the
// full execution trace as CSV.
//
// Usage:
//
//	euatrace -sched eua -load 0.6 -horizon 1
//	euatrace -sched laedf-na -load 1.5 -csv trace.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/euastar/euastar/internal/config"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/ccedf"
	"github.com/euastar/euastar/internal/sched/dasa"
	"github.com/euastar/euastar/internal/sched/edf"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/gus"
	"github.com/euastar/euastar/internal/sched/laedf"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/trace"
	"github.com/euastar/euastar/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "euatrace:", err)
		os.Exit(1)
	}
}

func newScheduler(name string) (sched.Scheduler, bool, error) {
	switch name {
	case "eua":
		return eua.New(), true, nil
	case "eua-nodvs":
		return eua.New(eua.WithoutDVS()), true, nil
	case "edf":
		return edf.New(true), true, nil
	case "edf-na":
		return edf.New(false), false, nil
	case "ccedf":
		return ccedf.New(true), true, nil
	case "laedf":
		return laedf.New(true), true, nil
	case "laedf-na":
		return laedf.New(false), false, nil
	case "dasa":
		return dasa.New(), true, nil
	case "gus":
		return gus.New(), true, nil
	default:
		return nil, false, fmt.Errorf("unknown scheduler %q (eua|eua-nodvs|edf|edf-na|ccedf|laedf|laedf-na|dasa|gus)", name)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("euatrace", flag.ContinueOnError)
	var (
		schedName = fs.String("sched", "eua", "scheduler: eua|eua-nodvs|edf|edf-na|ccedf|laedf|laedf-na|dasa|gus")
		preset    = fs.String("energy", "E1", "energy setting: E1|E2|E3")
		load      = fs.Float64("load", 0.6, "target system load")
		app       = fs.String("app", "A2", "Table 1 application: A1|A2|A3")
		shape     = fs.String("tuf", "step", "TUF family: step|linear")
		horizon   = fs.Float64("horizon", 1.0, "arrival horizon in seconds")
		tasksPath = fs.String("tasks", "", "load the task set from this JSON file instead of synthesizing -app")
		seed      = fs.Uint64("seed", 1, "random seed")
		csvPath   = fs.String("csv", "", "write the execution trace to this CSV file")
		gantt     = fs.Bool("gantt", false, "render an ASCII Gantt chart of the schedule")
		width     = fs.Int("width", 100, "Gantt chart width in columns")
		faultSpec = fs.String("faults", "", "deterministic fault plan, e.g. seed=7,overrun=0.1,sticky=0.05 (see README)")
		cores     = fs.Int("cores", 0, "number of DVS cores (0 or 1 = uniprocessor)")
		partFlag  = fs.String("partition", "ff", "multicore placement when -cores > 1: ff|wf|global")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cores < 0 {
		return fmt.Errorf("-cores must be non-negative, got %d", *cores)
	}
	plan, err := faults.Parse(*faultSpec)
	if err != nil {
		return err
	}

	scheduler, abort, err := newScheduler(*schedName)
	if err != nil {
		return err
	}
	if *cores > 1 {
		switch *partFlag {
		case "global":
			scheduler = partition.NewGlobal(*cores)
		case "ff", "wf":
			name := *schedName
			policy, err := partition.ParsePolicy(*partFlag)
			if err != nil {
				return err
			}
			scheduler = partition.New(*cores, policy, func() sched.Scheduler {
				s, _, _ := newScheduler(name)
				return s
			})
		default:
			return fmt.Errorf("unknown partition policy %q (ff|wf|global)", *partFlag)
		}
	}
	var application workload.App
	switch *app {
	case "A1":
		application = workload.A1()
	case "A2":
		application = workload.A2()
	case "A3":
		application = workload.A3()
	default:
		return fmt.Errorf("unknown application %q", *app)
	}
	var tufShape workload.Shape
	switch *shape {
	case "step":
		tufShape = workload.Step
	case "linear":
		tufShape = workload.LinearDecay
	default:
		return fmt.Errorf("unknown TUF family %q", *shape)
	}

	ft := cpu.PowerNowK6()
	model, err := energy.NewPreset(energy.Preset(*preset), ft.Max())
	if err != nil {
		return err
	}
	var ts task.Set
	if *tasksPath != "" {
		f, err := os.Open(*tasksPath)
		if err != nil {
			return err
		}
		ts, err = config.Load(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		ts, err = application.Synthesize(rng.New(*seed*0x9e3779b9), workload.Options{Shape: tufShape})
		if err != nil {
			return err
		}
	}
	if *load > 0 {
		ts = ts.ScaleToLoad(*load, ft.Max())
	}

	res, err := engine.Run(engine.Config{
		Tasks:              ts,
		Scheduler:          scheduler,
		Freqs:              ft,
		Cores:              *cores,
		Energy:             model,
		Horizon:            *horizon,
		Seed:               *seed,
		AbortAtTermination: abort,
		RecordTrace:        true,
		Faults:             plan,
	})
	if err != nil {
		return err
	}
	if err := trace.Validate(res, ft); err != nil {
		return fmt.Errorf("schedule invariant violated: %w", err)
	}

	source := application.Name
	if *tasksPath != "" {
		source = *tasksPath
	}
	rep := metrics.Analyze(res)
	fmt.Fprintf(out, "scheduler     %s\n", rep.Scheduler)
	fmt.Fprintf(out, "workload      %s at load %.2f (%s)\n", source, ts.Load(ft.Max()), *preset)
	fmt.Fprintf(out, "jobs          %d released, %d completed, %d aborted\n", rep.Released, rep.Completed, rep.Aborted)
	fmt.Fprintf(out, "utility       %.1f of %.1f attainable (ratio %.3f)\n", rep.AccruedUtility, rep.MaxPossibleUtility, rep.UtilityRatio())
	fmt.Fprintf(out, "energy        %.4g (%.4g per executed cycle)\n", rep.TotalEnergy, rep.TotalEnergy/rep.Cycles)
	fmt.Fprintf(out, "busy          %.1f ms over %.1f ms, %d frequency switches, %d decisions\n",
		rep.BusyTime*1e3, rep.EndTime*1e3, rep.Switches, res.Decisions)
	if res.Cores > 1 {
		fmt.Fprintf(out, "cores         %d (%s), %d migrations\n", res.Cores, *partFlag, res.Migrations)
		for k, cr := range res.PerCore {
			fmt.Fprintf(out, "  core %d      energy %.4g  busy %.1f ms  %d switches\n",
				k, cr.Energy, cr.BusyTime*1e3, cr.Switches)
		}
	}
	fmt.Fprintf(out, "assurance     all {nu, rho} met: %v\n", rep.AssuranceSatisfied())
	if plan.Enabled() {
		fmt.Fprintf(out, "degraded      %d faults injected (%s), %d jobs shed, %.4g abort cycles\n",
			res.FaultEvents, plan, res.JobsShed, res.AbortCycles)
	}
	for _, pt := range rep.PerTask {
		so := pt.Sojourn()
		fmt.Fprintf(out, "  %-10s met %3d/%3d (rho=%.2f)  aborted %d  sojourn p50/p95 %.1f/%.1f ms\n",
			pt.Task.String(), pt.Met, pt.Released, pt.Task.Req.Rho, pt.Aborted,
			so.Median*1e3, so.P95*1e3)
	}

	fmt.Fprintln(out, "frequency residency:")
	resid := trace.FrequencyResidency(res.Trace)
	for _, f := range trace.Frequencies(resid) {
		fmt.Fprintf(out, "  %4.0f MHz  %7.2f ms  (%.1f%% of busy)\n",
			f/1e6, resid[f]*1e3, 100*resid[f]/res.BusyTime)
	}

	if *gantt {
		fmt.Fprintln(out, "schedule:")
		if err := trace.WriteGantt(out, res, ft, *width); err != nil {
			return err
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, res.Trace); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d spans written to %s\n", len(res.Trace), *csvPath)
	}
	return nil
}
