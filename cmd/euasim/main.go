// Command euasim regenerates the paper's evaluation artifacts: Table 1
// (task settings), Table 2 (energy settings), Figure 2 (normalized utility
// and energy vs load, per energy setting), Figure 3 (energy vs load per
// UAM bound), the Section 4 assurance verification, and the EUA* ablation
// study.
//
// Usage:
//
//	euasim -exp all
//	euasim -exp fig2 -energy E3 -seeds 5 -horizon 2
//	euasim -exp fig3 -loads 0.2,0.5,0.9,1.4
//	euasim -exp fig2 -workers 8
//	euasim -exp threshold -admission-bench BENCH_admission.json
//	euasim -exp gaps -gaps-bench BENCH_gaps.json
//	euasim -exp fig2 -oracles
//	euasim -admit tasks.json -scheme EUA* -load 1.2
//
// -exp threshold bisects each scheduler's empirical sharp load threshold
// and compares it against the analytical admission bounds (see
// internal/admission); -admit runs the same O(n) analytical triage on a
// task-set document offline and prints the accept / must-simulate /
// reject verdict. -exp gaps measures each scheduler's distance from
// provable optimality against the offline oracles of internal/oracle
// (YDS energy lower bound, branch-and-bound utility upper bound);
// -oracles adds the same gap columns to the fig2/ablation sweeps.
//
// Simulations fan out across -workers goroutines (default: all cores).
// Stdout is bit-identical for every worker count; wall-clock and progress
// reporting go to stderr.
//
// Robustness: -timeout bounds each sweep cell, -retries re-runs failing
// cells, -checkpoint/-resume persist completed cells across kills, and
// -faults injects a deterministic fault plan. A failing cell is reported
// with its (load, seed, scheme) coordinates; the remaining cells still
// run, partial results are flushed, and only then does euasim exit
// non-zero. SIGINT/SIGTERM stop the sweep cooperatively the same way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/server"
	"github.com/euastar/euastar/internal/telemetry"
)

func main() {
	// Exit codes: 0 on success (including -h/-help), 1 on any error.
	// Progress/timing goes to stderr so stdout stays a clean, seed- and
	// worker-count-deterministic artifact suitable for diffing.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	if err := runWithSignals(os.Args[1:], os.Stdout, os.Stderr, sigc); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		report(os.Stderr, err)
		os.Exit(1)
	}
}

// report prints a failed run's error to diag: one "euasim:" line for
// each failed sweep it joins, or for the error itself.
func report(diag io.Writer, err error) {
	errs := []error{err}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		errs = joined.Unwrap()
	}
	for _, e := range errs {
		fmt.Fprintln(diag, "euasim:", e)
	}
}

// run executes euasim without OS signal wiring (the test entry point).
func run(args []string, out, diag io.Writer) error {
	return runWithSignals(args, out, diag, nil)
}

// runWithSignals executes euasim; a value on sigs stops the sweep
// cooperatively: completed cells are kept (and checkpointed), partial
// results are flushed, and a non-nil error is returned.
func runWithSignals(args []string, out, diag io.Writer, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("euasim", flag.ContinueOnError)
	fs.SetOutput(diag)
	var (
		exp        = fs.String("exp", "all", "experiment: "+experimentNames(false, "|")+"|all")
		chart      = fs.Bool("chart", false, "additionally render fig2/fig3 as ASCII charts")
		preset     = fs.String("energy", "E1", "energy setting for fig2/ablation: E1|E2|E3")
		loads      = fs.String("loads", "", "comma-separated load sweep (default 0.2..1.8)")
		seeds      = fs.Int("seeds", 3, "number of replications (seeds 1..n)")
		horizon    = fs.Float64("horizon", 1.0, "arrival horizon per run in seconds")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "simulations run concurrently (results are identical for any value; counts above the number of jobs are clamped)")
		jsonPath   = fs.String("json", "", "additionally write results as JSON to this file")
		timeout    = fs.Duration("timeout", 0, "wall-clock limit per sweep cell (0 = none); a timed-out cell is reported and the sweep continues")
		retries    = fs.Int("retries", 0, "extra attempts for a failing sweep cell")
		checkpoint = fs.String("checkpoint", "", "persist completed sweep cells to this JSON file (atomic writes)")
		resume     = fs.Bool("resume", false, "reuse completed cells from the -checkpoint file instead of recomputing")
		faultSpec  = fs.String("faults", "", "deterministic fault plan, e.g. seed=7,overrun=0.1,sticky=0.05 (see README)")
		stats      = fs.Bool("stats", false, "print an end-of-run telemetry snapshot (decision latencies, preemptions, frequency switches) to stderr")
		remote     = fs.String("remote", "", "submit sweeps to a euad daemon at this base URL instead of running locally (any -exp experiment but the two tables)")
		jobID      = fs.String("job-id", "", "idempotency-key prefix for -remote submissions (default: random per invocation)")
		admit      = fs.String("admit", "", "print the analytical admission verdict for this task-set JSON document and exit (offline triage; see -scheme and -load)")
		admScheme  = fs.String("scheme", "EUA*", "with -admit: scheme to triage for: "+experiment.SchemeNameList())
		admLoad    = fs.Float64("load", 0, "with -admit: scale the set to this system load first (0 = as given)")
		admBench   = fs.String("admission-bench", "", "with -exp threshold: additionally write the BENCH_admission.json baseline to this file")
		oracles    = fs.Bool("oracles", false, "annotate fig2/ablation rows with optimality-gap columns (YDS energy lower bound, branch-and-bound utility upper bound; see DESIGN.md §13)")
		gapsBench  = fs.String("gaps-bench", "", "with -exp gaps: additionally write the BENCH_gaps.json baseline to this file")
		cores      = fs.Int("cores", 0, "simulated DVS cores (0 or 1 = the paper's uniprocessor; >1 runs every scheme partitioned, see -partition and DESIGN.md §15)")
		partFlag   = fs.String("partition", "ff", "multiprocessor policy with -cores > 1: ff (first-fit) | wf (worst-fit) | global (shared queue, top-m UER)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers <= 0 {
		return fmt.Errorf("-workers must be >= 1, got %d", *workers)
	}
	if *seeds <= 0 {
		return fmt.Errorf("-seeds must be >= 1, got %d", *seeds)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be >= 0, got %d", *retries)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", *timeout)
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	if *cores < 0 {
		return fmt.Errorf("-cores must be >= 0, got %d", *cores)
	}
	if partition.CheckPlacement(*partFlag) != nil {
		return fmt.Errorf("-partition must be ff, wf or global, got %q", *partFlag)
	}
	if *admit != "" {
		return runAdmit(*admit, *admScheme, *admLoad, *jsonPath, out)
	}

	todo, err := experiments(*exp)
	if err != nil {
		return err
	}
	var parsed []float64
	if *loads != "" {
		if parsed, err = parseLoads(*loads); err != nil {
			return err
		}
	}
	if *remote != "" {
		// Flags that only act on a local run have no meaning when the
		// daemon runs the sweep: no wire field carries them, and the daemon
		// writes no baseline files. Rejecting them beats silently ignoring
		// them.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-chart", *chart}, {"-checkpoint", *checkpoint != ""}, {"-resume", *resume},
			{"-timeout", *timeout != 0}, {"-retries", *retries != 0}, {"-stats", *stats},
			{"-oracles", *oracles}, {"-admission-bench", *admBench != ""}, {"-gaps-bench", *gapsBench != ""},
		} {
			if f.set {
				return fmt.Errorf("%s is not supported with -remote", f.name)
			}
		}
		// Cores and Partition always travel, so the daemon's own defaults
		// never pick them (speedup reads the policy at any core count).
		// Cores 1 is the local default's uniprocessor run.
		spec := server.JobSpec{
			Kind:      server.KindSweep,
			Energy:    *preset,
			Loads:     parsed,
			Seeds:     *seeds,
			Horizon:   *horizon,
			Faults:    *faultSpec,
			Cores:     max(*cores, 1),
			Partition: *partFlag,
		}
		return runRemote(remoteOpts{base: *remote, jobID: *jobID, exps: todo, spec: spec, jsonPath: *jsonPath}, out, diag, sigs)
	}

	cfg := experiment.Config{
		Energy:    energy.Preset(*preset),
		Loads:     parsed,
		Horizon:   *horizon,
		Workers:   *workers,
		Timeout:   *timeout,
		Retries:   *retries,
		Oracles:   *oracles,
		Cores:     *cores,
		Partition: *partFlag,
	}
	for i := 1; i <= *seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, uint64(i))
	}
	if *faultSpec != "" {
		plan, err := faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
		cfg.Faults = plan
	}
	if *stats {
		// The snapshot goes to stderr with the other diagnostics: decision
		// latencies are wall-clock, and stdout must stay deterministic.
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if *checkpoint != "" {
		store, err := experiment.OpenCheckpoint(*checkpoint, *resume)
		if errors.Is(err, experiment.ErrCheckpointCorrupt) {
			// A damaged checkpoint costs recomputation, never the run: fall
			// back to a fresh store whose first save replaces the bad file.
			fmt.Fprintf(diag, "euasim: %v; ignoring %s and starting fresh\n", err, *checkpoint)
			store, err = experiment.OpenCheckpoint(*checkpoint, false)
		}
		if err != nil {
			return err
		}
		cfg.Store = store
	}

	// Signal handling: the first SIGINT/SIGTERM cancels the context every
	// sweep cell observes; cells stop at their next engine event,
	// completed work is flushed, and euasim exits non-zero.
	ctx, stop := signalContext(sigs, diag, "stopping and flushing partial results")
	defer stop()
	cfg.Context = ctx

	var chartOut io.Writer
	if *chart {
		chartOut = out
	}
	var docs []experiment.JSONDocument
	// A sweep with failed cells returns its completed rows alongside a
	// *experiment.SweepError. Those partial results are still written (and
	// included in -json) before the failure is reported, so a single
	// poisoned cell never discards its siblings' work. sweepFailures
	// accumulates across experiments, each naming its sweep once (a
	// SweepError's text starts with it); euasim reports them and exits
	// non-zero at the end.
	var sweepFailures []error
	sweepDone := func(e string, err error) (stop bool) {
		if err == nil {
			return false
		}
		if !strings.HasPrefix(err.Error(), e+":") {
			err = fmt.Errorf("%s: %w", e, err)
		}
		sweepFailures = append(sweepFailures, err)
		var se *experiment.SweepError
		return errors.As(err, &se) && se.Interrupted
	}
	total := time.Now()
	for _, x := range todo {
		start := time.Now()
		fmt.Fprintf(out, "== %s (%s) ==\n", x.Name, x.Describe(cfg))
		doc, sweepErr := x.Run(cfg, out, chartOut)
		if doc != nil {
			docs = append(docs, *doc)
			// The committed baselines take the rows of their sweeps.
			if doc.Threshold != nil && *admBench != "" {
				if err := writeBaseline(out, "admission", *admBench, func(w io.Writer) error {
					return experiment.WriteAdmissionBench(w, cfg, doc.Threshold)
				}); err != nil {
					return err
				}
			}
			if doc.Gaps != nil && *gapsBench != "" {
				if err := writeBaseline(out, "gaps", *gapsBench, func(w io.Writer) error {
					return experiment.WriteGapsBench(w, cfg, doc.Gaps)
				}); err != nil {
					return err
				}
			}
		}
		fmt.Fprintln(out)
		fmt.Fprintf(diag, "euasim: %s done in %v (%d workers)\n",
			x.Name, time.Since(start).Round(time.Millisecond), *workers)
		if sweepDone(x.Name, sweepErr) {
			break // interrupted: flush what we have and exit
		}
	}
	fmt.Fprintf(diag, "euasim: all experiments done in %v\n", time.Since(total).Round(time.Millisecond))
	if *stats {
		fmt.Fprintln(diag, "euasim: telemetry snapshot")
		if err := telemetry.WriteStats(diag, cfg.Telemetry.Snapshot()); err != nil {
			return err
		}
	}
	if err := writeDocs(out, *jsonPath, docs); err != nil {
		return err
	}
	if len(sweepFailures) > 0 {
		return errors.Join(sweepFailures...)
	}
	return nil
}

// signalContext returns a context that the first value on sigs cancels,
// after "euasim: received <signal>, <action>" is printed to diag. A signal
// already pending is taken before it returns, so it stops the run before
// any cell starts. The returned cancel releases the watcher. With no sigs
// the context never ends.
func signalContext(sigs <-chan os.Signal, diag io.Writer, action string) (context.Context, context.CancelFunc) {
	if sigs == nil {
		return context.Background(), func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	note := func(s os.Signal) {
		fmt.Fprintf(diag, "euasim: received %v, %s\n", s, action)
		cancel()
	}
	select {
	case s := <-sigs:
		note(s)
	default:
		go func() {
			select {
			case s := <-sigs:
				note(s)
			case <-ctx.Done():
			}
		}()
	}
	return ctx, cancel
}

// experiments resolves a comma-separated -exp list against the registry;
// "all" selects every registered experiment.
func experiments(list string) ([]experiment.Experiment, error) {
	if list == "all" {
		return experiment.Experiments(), nil
	}
	var todo []experiment.Experiment
	for _, name := range strings.Split(list, ",") {
		x, ok := experiment.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		todo = append(todo, x)
	}
	return todo, nil
}

// experimentNames joins the names of the registered experiments, or of
// the sweeps only.
func experimentNames(sweepsOnly bool, sep string) string {
	var names []string
	for _, x := range experiment.Experiments() {
		if x.Sweep() || !sweepsOnly {
			names = append(names, x.Name)
		}
	}
	return strings.Join(names, sep)
}

// writeDocs writes the -json documents to path, if one was given.
func writeDocs(out io.Writer, path string, docs []experiment.JSONDocument) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, doc := range docs {
		if err := experiment.WriteJSON(f, doc); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "JSON results written to %s\n", path)
	return nil
}

// writeBaseline writes one committed baseline file (-admission-bench,
// -gaps-bench) and notes it on out.
func writeBaseline(out io.Writer, what, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(out, "%s baseline written to %s\n", what, path)
	return nil
}

func parseLoads(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", p, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("load %v must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}
