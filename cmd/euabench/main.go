// Command euabench benchmarks EUA* — on one core and partitioned over
// several — across a task count × arrival intensity matrix and reports
// nanoseconds, allocations and events-per-second per simulation event.
//
// Usage:
//
//	euabench -out BENCH_sched.json          # refresh the committed baseline
//	euabench -check BENCH_sched.json        # fail on >15% ns/event or any allocs/event regression
//	euabench -quick                         # small matrix for smoke runs
//	euabench -overhead                      # gate the telemetry sink cost
//
// The regression check only gates cells present in both reports, and
// allows allocs/event only bench.AllocSlack above the baseline; see
// `make bench-check`. The process runs on one P, as the committed
// baseline was taken, so the program and its GC share one vCPU.
// -overhead benchmarks each cell with no-op telemetry and with a live
// registry, the two sides alternating within every repetition, prints
// each cell's median paired cost with its quartiles, and fails when the
// median of the cells' costs exceeds -max-overhead percent (see `make
// telemetry-overhead`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/euastar/euastar/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "euabench:", err)
		os.Exit(1)
	}
}

func run(args []string, out, diag io.Writer) error {
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("euabench", flag.ContinueOnError)
	fs.SetOutput(diag)
	var (
		outPath   = fs.String("out", "", "write the benchmark report as JSON to this file")
		checkPath = fs.String("check", "", "compare against this baseline report and fail on regression")
		tolerance = fs.Float64("tolerance", 0.15, "allowed ns/event slowdown vs the -check baseline")
		reps      = fs.Int("reps", 15, "repetitions per cell (the median is kept)")
		horizon   = fs.Float64("horizon", 0.4, "arrival horizon per run in seconds")
		seed      = fs.Uint64("seed", 1, "workload seed")
		quick     = fs.Bool("quick", false, "small matrix and short horizon for smoke runs")
		overhead  = fs.Bool("overhead", false, "measure the enabled-telemetry cost of the eua cells instead of the matrix")
		maxOver   = fs.Float64("max-overhead", 5, "fail -overhead when the median cost exceeds this percent")
		coresFlag = fs.String("cores", "", "comma-separated core counts for the partitioned eua-part rows (default 1,2,4)")
		partFlag  = fs.String("partition", "", "placement policy for the eua-part rows: ff|wf (default ff)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tolerance < 0 {
		return fmt.Errorf("-tolerance must be >= 0, got %g", *tolerance)
	}
	coreCounts, err := parseCores(*coresFlag)
	if err != nil {
		return err
	}
	if *partFlag != "" && *partFlag != "ff" && *partFlag != "wf" {
		return fmt.Errorf("-partition must be ff or wf, got %q", *partFlag)
	}
	if *overhead {
		return runOverhead(out, *reps, *horizon, *seed, *quick, *maxOver)
	}

	opts := bench.Options{
		Reps:      *reps,
		Horizon:   *horizon,
		Seed:      *seed,
		Cores:     coreCounts,
		Partition: *partFlag,
		Progress:  diag,
	}
	if *quick {
		opts.Tasks = []int{8, 24}
		opts.Loads = []float64{1.0}
		if !flagSet(fs, "horizon") {
			opts.Horizon = 0.1
		}
		if !flagSet(fs, "reps") {
			opts.Reps = 1
		}
		if !flagSet(fs, "cores") {
			opts.Cores = []int{2}
		}
	}

	rep, err := bench.Sweep(opts)
	if err != nil {
		return err
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		err = bench.WriteJSON(f, rep)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", *outPath)
	}

	if *checkPath != "" {
		f, err := os.Open(*checkPath)
		if err != nil {
			return err
		}
		baseline, err := bench.ReadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
		regs := bench.Compare(rep, baseline, *tolerance)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(out, "REGRESSION", r)
			}
			return fmt.Errorf("%d regression(s) vs %s (ns/event beyond %.0f%%, allocs/event beyond +%g)",
				len(regs), *checkPath, *tolerance*100, bench.AllocSlack)
		}
		fmt.Fprintf(out, "no regression vs %s (ns/event within %.0f%%, allocs/event within +%g)\n",
			*checkPath, *tolerance*100, bench.AllocSlack)
	}
	return nil
}

// runOverhead gates the telemetry sink: each cell is benchmarked with the
// no-op sink and with a live registry in alternation, and the median of
// the cells' median paired costs must stay under maxOver. The median (not the worst cell) is the
// gate because single cells on shared CI runners see multi-percent noise
// that the median of repetitions cannot fully cancel.
func runOverhead(out io.Writer, reps int, horizon float64, seed uint64, quick bool, maxOver float64) error {
	tasks := []int{8, 24, 64}
	if quick {
		tasks = []int{8, 24}
		if horizon == 0.4 { // flag default; quick mode shrinks it
			horizon = 0.1
		}
	}
	var costs []float64
	for _, n := range tasks {
		c := bench.Cell{Tasks: n, Load: 1.0, Scheme: bench.SchemeEUA, Seed: seed, Horizon: horizon}
		o, err := bench.MeasureOverhead(c, reps)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "overhead", o)
		costs = append(costs, o.Percent)
	}
	sort.Float64s(costs)
	median := costs[len(costs)/2]
	fmt.Fprintf(out, "median telemetry overhead: %+.1f%% (limit %.0f%%)\n", median, maxOver)
	if median > maxOver {
		return fmt.Errorf("telemetry overhead %.1f%% exceeds %.0f%%", median, maxOver)
	}
	return nil
}

// parseCores parses a comma-separated core-count list like "1,2,4".
func parseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cores wants positive integers like 1,2,4, got %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// flagSet reports whether the user passed the flag explicitly.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
