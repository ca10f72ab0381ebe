// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one closed-loop workload for a fixed time and
// prints the end-to-end metrics (or, with -trace 1, the per-layer ones)
// as one JSON object on the last line of standard output. A readable
// report goes to standard error. README.md explains the workloads, the
// metrics and the noise this machine class shows.
//
//	bash perfbench/run.sh -workload fig2-cell -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"github.com/euastar/euastar/internal/rng"
)

const (
	// defaultSeed is the seed the committed golden digests were taken at.
	defaultSeed = 1
	// opSeeds is the length of the per-op seed list a run cycles through.
	// Op cost varies with the realised task set; 64 sets keep the
	// run-to-run spread of that mixture small across benchmark seeds.
	opSeeds = 64
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median.
	setupReps = 25
	// passOps is the number of ops the traced run repeats after its timed
	// phase, once with the allocation count as the span clock and once
	// with the schedulers' telemetry attached.
	passOps = 8
	// keepOps is the number of traced ops whose spans are written out.
	keepOps = 4
	// unattributedTolerancePct bounds the share of op time the spans do
	// not cover: the layers' self times must sum to the op time within it.
	unattributedTolerancePct = 5.0
)

//go:embed golden.json
var goldenFile []byte

// runner drives one closed-loop benchmark workload.
type runner interface {
	// setup builds the run's inputs from the per-op seeds and returns the
	// time spent synthesising task sets. traced installs the layer
	// probes that cannot be toggled per op. A later call follows close.
	setup(seeds []uint64, traced bool) (synth time.Duration, err error)
	close() error
	// passesPerWindow is the number of whole passes over the op seeds in
	// one measuring window: 1-4 s of ops, at least 64.
	passesPerWindow() int
	// op runs one op on per-op seed index k and returns its latency and a
	// comparable digest of its output. The error reports a failed call or
	// a broken output invariant. tr is nil on untraced ops.
	op(k int, tr *tracer) (time.Duration, any, error)
	// syncTime returns the time the program has spent in fsync so far, and
	// false if the workload keeps no storage.
	syncTime() (time.Duration, bool)
	// phase marks the start and the end of the timed phase.
	phase(start bool) error
	// between runs before each measuring window, with no op in flight.
	between() error
	// verify runs the output checks that need the whole run and returns
	// the per-op seed indices whose outputs are wrong.
	verify() map[int]error
	// layers adds the per-layer metrics only the workload can measure.
	layers(info runInfo, m map[string]float64) error
	// decodeGolden parses the workload's golden digests.
	decodeGolden(raw json.RawMessage) ([]any, error)
}

// runInfo summarises the timed phase for per-layer ratios.
type runInfo struct {
	ops       int     // ops completed in the timed phase
	opSeconds float64 // their summed latency
}

// workloads lists every workload, in the order -workload all runs them.
var workloads = []string{"fig2-cell", "part4-overload", "euad-simulate"}

func newRunner(name, dir string) (runner, error) {
	switch name {
	case "fig2-cell":
		return newFig2Cell()
	case "part4-overload":
		return &part4Overload{}, nil
	case "euad-simulate":
		return newEuadSimulate(dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (fig2-cell | part4-overload | euad-simulate)", name)
}

type metricDef struct {
	name, unit string
	// machine marks the metrics the JSON result line carries.
	machine bool
}

// endToEnd are the end-to-end metrics of the untraced run. fail_share is
// 0 on every correct run, so the JSON line carries it as its failed and
// attempted counts instead.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"lat_p50_ms", "ms", true},
	{"lat_p95_ms", "ms", true},
	{"ops_per_s", "1/s", true},
	{"cpu_ms_per_op", "ms", true},
	{"allocs_per_op", "count", true},
	{"rss_mb", "MB", true},
	{"fail_share", "ratio", false},
}

// perLayer are the metrics of the traced run. The JSON line carries the
// counts and ratios, and the times measured on every workload; a time
// that exists on one workload only is printed in the report and written
// to the trace file, never sent as a 0 that reads the same on every run.
var perLayer = []metricDef{
	{"engine.self_ms_per_op", "ms", false},
	{"engine.self_ns_per_event", "ns", false},
	{"engine.allocs_per_event", "count", true},
	{"engine.events_per_op", "count", true},
	{"sched.decide_us_per_call", "us", true},
	{"sched.calls_per_op", "count", true},
	{"sched.ready_per_call", "count", true},
	{"sched.feas_iters_per_call", "count", true},
	{"sched.allocs_per_call", "count", true},
	{"sched.init_us_per_op", "us", false},
	{"sched.eua_share", "ratio", true},
	{"sched.wasted_cycle_share", "ratio", true},
	{"partition.init_us_per_op", "us", false},
	{"partition.dispatch_us_per_call", "us", false},
	{"metrics.analyze_us_per_op", "us", false},
	{"oracle.yds_ms_per_call", "ms", false},
	{"oracle.jobs_per_call", "count", true},
	{"oracle.share", "ratio", true},
	{"server.submit_ms_p50", "ms", false},
	{"server.wait_ms_p50", "ms", false},
	{"server.run_ms_p50", "ms", false},
	{"server.render_ms_p50", "ms", false},
	{"server.refused_per_op", "count", true},
	{"tenancy.queue_wait_ms_p50", "ms", false},
	{"jobstore.syncs_per_op", "count", true},
	{"jobstore.sync_ms_p50", "ms", false},
	{"jobstore.bytes_per_op", "bytes", true},
	{"admission.analyze_us_per_call", "us", false},
	{"workload.synth_ms", "ms", true},
	{"trace.overhead_pct", "%", true},
	{"trace.unattributed_pct", "%", true},
}

func main() {
	// One P: the program, its GC and, on euad-simulate, the daemon's one
	// worker share one vCPU. With a P per vCPU, an op's time depended on
	// whether the host let the second vCPU run the GC's background work,
	// and the tail of the latencies widened whenever it did not.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig2-cell | part4-overload | euad-simulate | all (one after another)")
	seed := fs.Uint64("seed", defaultSeed, "benchmark seed: derives every task set and per-op seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer ones")
	dir := fs.String("dir", ".bench_build", "directory for run files: daemon data and span dumps")
	writeGolden := fs.String("write-golden", "", "write the workload's digests at -seed into this golden file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want -seconds >= 1, -trace 0 or 1 and no arguments")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := []string{*name}
	if *name == "all" {
		names = workloads
	}
	status := 0
	for _, n := range names {
		w, err := newRunner(n, *dir)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		b := &bench{
			name: n, w: w, seed: *seed, seconds: *seconds,
			traced: *trace == 1, dir: *dir, log: stderr,
			seeds: opSeedList(*seed),
		}
		if *writeGolden != "" {
			err = b.writeGolden(*writeGolden)
		} else {
			err = b.run(stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			status = 1
		}
	}
	return status
}

// opSeedList derives the fixed list of per-op seeds from the benchmark
// seed. The values stay below 2^32 so they read the same in any JSON.
func opSeedList(seed uint64) []uint64 {
	out := make([]uint64, opSeeds)
	for i := range out {
		out[i] = rng.Derive(seed, uint64(i)).Uint64()>>32 | 1
	}
	return out
}

type bench struct {
	name    string
	w       runner
	seed    uint64
	seconds int
	traced  bool
	dir     string
	log     io.Writer
	seeds   []uint64

	// expect holds, per op seed, the digest every op must reproduce: the
	// golden one at the default seed, else the warm-up op's.
	expect []any

	cal  *calibrator
	disk *diskProbe // nil when the workload keeps no storage
}

// client is the closed-loop caller's record of the timed phase: it sends
// each op once the previous one has returned.
type client struct {
	ms       []float64 // untraced op latencies
	syncMs   []float64 // the fsync time inside each untraced op
	win      []int     // the window of each untraced op
	tracedMs []float64 // traced op latencies (traced run only)
	okBySeed [opSeeds]int
	failed   int
	firstErr error
	tr       *tracer
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (b *bench) run(stdout io.Writer) error {
	if b.seed == defaultSeed {
		golden, err := b.golden()
		if err != nil {
			return err
		}
		b.expect = golden
	} else {
		b.expect = make([]any, opSeeds)
	}

	b.cal = newCalibrator()
	if _, ok := b.w.syncTime(); ok {
		probe, err := newDiskProbe(b.dir)
		if err != nil {
			return err
		}
		defer probe.close()
		b.disk = probe
	}
	b.cal.measure() // warms the kernel's data into the caches

	// Set-up, repeated from a collected heap; the last one is kept for the
	// run. The calibrations before and after scale the set-up times.
	before, err := b.calibrate()
	if err != nil {
		return err
	}
	var setups, setupSync, synths []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			if err := b.w.close(); err != nil {
				return fmt.Errorf("close set-up %d: %w", r, err)
			}
		}
		runtime.GC()
		s0, _ := b.w.syncTime()
		t0 := time.Now()
		synth, err := b.w.setup(b.seeds, b.traced)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s1, _ := b.w.syncTime()
		setups = append(setups, time.Since(t0).Seconds())
		setupSync = append(setupSync, (s1 - s0).Seconds())
		synths = append(synths, synth.Seconds()*1e3)
	}
	defer b.w.close()
	after, err := b.calibrate()
	if err != nil {
		return err
	}

	// Warm-up: one op per op seed, checked like every timed op.
	warm := &client{}
	for k := range b.seeds {
		_, dig, err := b.w.op(k, nil)
		if err == nil {
			err = b.check(k, dig)
		}
		if err != nil {
			warm.fail(fmt.Errorf("warm-up, op seed %d: %w", b.seeds[k], err))
			continue
		}
		warm.okBySeed[k]++
	}

	cl := &client{}
	if b.traced {
		cl.tr = newTracer(nanoClock(), false)
	}
	if err := b.w.phase(true); err != nil {
		return err
	}
	// The timed phase is a series of windows, each a fixed number of whole
	// passes over the op seeds, so all windows run the same inputs. Between
	// windows, with no op in flight and the heap just collected, the
	// calibrations measure the host's speed; refs[w] and refs[w+1] bracket
	// window w.
	wops := b.w.passesPerWindow() * len(b.seeds)
	var wins []window
	var refs []calibration
	start := time.Now()
	deadline := start.Add(time.Duration(b.seconds) * time.Second)
	for w := 0; time.Now().Before(deadline); w++ {
		if err := b.w.between(); err != nil {
			return err
		}
		runtime.GC()
		ref, err := b.calibrate()
		if err != nil {
			return err
		}
		refs = append(refs, ref)
		from := takeSample(start)
		complete := b.window(w, cl, wops, deadline)
		rss, err := residentMB()
		if err != nil {
			return err
		}
		wins = append(wins, window{from: from, to: takeSample(start), rss: rss, complete: complete})
	}
	runtime.GC()
	ref, err := b.calibrate()
	if err != nil {
		return err
	}
	refs = append(refs, ref)
	elapsed := wins[len(wins)-1].to.at.Seconds()
	if err := b.w.phase(false); err != nil {
		return err
	}

	// Outcome accounting over warm-up and timed ops alike.
	attempted := len(b.seeds) + cl.failed + len(cl.ms) + len(cl.tracedMs)
	failed := warm.failed + cl.failed
	firstErr := warm.firstErr
	if firstErr == nil {
		firstErr = cl.firstErr
	}
	for k, err := range b.w.verify() {
		failed += warm.okBySeed[k] + cl.okBySeed[k]
		if firstErr == nil {
			firstErr = fmt.Errorf("op seed %d: %w", b.seeds[k], err)
		}
	}
	timedOps := len(cl.ms) + len(cl.tracedMs)
	if timedOps == 0 {
		return errors.New("no op completed in the timed phase")
	}

	fmt.Fprintf(b.log, "perfbench %s: seed %d, %d s, trace %v, %d op seeds\n",
		b.name, b.seed, b.seconds, b.traced, len(b.seeds))
	fmt.Fprintf(b.log, "ops: %d timed in %.3f s, %d attempted, %d failed\n", timedOps, elapsed, attempted, failed)
	if firstErr != nil {
		fmt.Fprintln(b.log, "first failure:", firstErr)
	}

	metrics := map[string]float64{}
	var defs []metricDef
	if !b.traced {
		defs = endToEnd
		b.endToEnd(cl, wins, refs, metrics)
		fc, fd := factors(before, after)
		var setupScaled []float64
		for r, t := range setups {
			setupScaled = append(setupScaled, scaled(t, setupSync[r], fc, fd))
		}
		metrics["setup_s"] = median(setupScaled)
		metrics["fail_share"] = float64(failed) / float64(attempted)
		fmt.Fprintf(b.log, "unscaled set-up %.6f s\n", median(setups))
	} else {
		defs = perLayer
		if err := b.layers(cl, synths, metrics); err != nil {
			return err
		}
	}
	printTable(b.log, defs, metrics)

	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]metricValue{}}
	for _, d := range defs {
		if d.machine {
			out.Metrics[d.name] = metricValue{metrics[d.name], d.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d ops failed", failed, attempted)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is a reading of the process counters during the timed phase.
type sample struct {
	at      time.Duration // since the start of the timed phase
	cpu     time.Duration
	mallocs uint64
}

// window is one measuring window of the timed phase.
type window struct {
	from, to sample
	rss      float64 // resident set at its end, in MB
	complete bool    // every op of the window ran
}

func takeSample(start time.Time) sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{at: time.Since(start), cpu: cpuTime(), mallocs: ms.Mallocs}
}

// window runs the ops of window w. Op g of the run takes op seed g mod
// the list length. A traced run alternates traced and untraced ops,
// swapping the parity on each pass over the list, so both modes see every
// op seed and the same drift of the machine. window reports whether it
// ran every op before the deadline.
func (b *bench) window(w int, cl *client, wops int, deadline time.Time) (complete bool) {
	for g := w * wops; g < (w+1)*wops; g++ {
		if !time.Now().Before(deadline) {
			return false
		}
		k := g % len(b.seeds)
		var tr *tracer
		if cl.tr != nil && (g+g/len(b.seeds))%2 == 1 {
			tr = cl.tr
		}
		s0, _ := b.w.syncTime()
		d, dig, err := b.w.op(k, tr)
		s1, _ := b.w.syncTime()
		if err == nil {
			err = b.check(k, dig)
		}
		if err != nil {
			cl.fail(fmt.Errorf("op seed %d: %w", b.seeds[k], err))
			continue
		}
		cl.okBySeed[k]++
		ms := d.Seconds() * 1e3
		if tr != nil {
			cl.tracedMs = append(cl.tracedMs, ms)
		} else {
			cl.ms = append(cl.ms, ms)
			cl.syncMs = append(cl.syncMs, (s1-s0).Seconds()*1e3)
			cl.win = append(cl.win, w)
		}
	}
	return true
}

// endToEnd computes the timed metrics of an untraced run. Only complete
// windows count; a run shorter than one window is one. Each time is split
// into the fsync time inside it and the rest, and each part is scaled by
// the factor of the calibrations that bracket its window. Each timing is
// the median over the windows of the window's value: a burst of steal
// that slows one window more than the calibrations around it saw moves
// none of them.
func (b *bench) endToEnd(cl *client, wins []window, refs []calibration, m map[string]float64) {
	use := slices.ContainsFunc(wins, func(w window) bool { return w.complete })
	byWin := make([][]int, len(wins)) // the untraced ops of each window
	for i, w := range cl.win {
		byWin[w] = append(byWin[w], i)
	}
	var p50, p95, rate, cpu, rss, fcs, fds, all, raw, rawRate, rawCPU []float64
	var allocs uint64
	var ops int
	for w, win := range wins {
		n := float64(len(byWin[w]))
		if n == 0 || (use && !win.complete) {
			continue
		}
		fc, fd := factors(refs[w], refs[w+1])
		var lat []float64
		var syncMs float64
		for _, i := range byWin[w] {
			lat = append(lat, scaled(cl.ms[i], cl.syncMs[i], fc, fd))
			syncMs += cl.syncMs[i]
			raw = append(raw, cl.ms[i])
		}
		all = append(all, lat...)
		sort.Float64s(lat)
		wallMs := (win.to.at - win.from.at).Seconds() * 1e3
		cpuMs := (win.to.cpu - win.from.cpu).Seconds() * 1e3
		p50 = append(p50, percentile(lat, 0.50))
		p95 = append(p95, percentile(lat, 0.95))
		rate = append(rate, n/scaled(wallMs, syncMs, fc, fd)*1e3)
		cpu = append(cpu, cpuMs/n*fc)
		rawRate = append(rawRate, n/wallMs*1e3)
		rawCPU = append(rawCPU, cpuMs/n)
		rss = append(rss, win.rss)
		fcs = append(fcs, fc)
		fds = append(fds, fd)
		allocs += win.to.mallocs - win.from.mallocs
		ops += len(byWin[w])
	}
	sort.Float64s(all)
	sort.Float64s(raw)
	m["lat_p50_ms"] = median(p50)
	m["lat_p95_ms"] = median(p95)
	m["ops_per_s"] = median(rate)
	m["cpu_ms_per_op"] = median(cpu)
	m["allocs_per_op"] = float64(allocs) / float64(ops)
	m["rss_mb"] = median(rss)
	fmt.Fprintf(b.log, "%d windows, %d ops, %d of them beyond the p95 once scaled; host factor %.4f (windows %.3f-%.3f)",
		len(fcs), ops, beyond(all, m["lat_p95_ms"]), median(fcs), slices.Min(fcs), slices.Max(fcs))
	if b.disk != nil {
		fmt.Fprintf(b.log, ", disk factor %.4f (windows %.3f-%.3f)", median(fds), slices.Min(fds), slices.Max(fds))
	}
	fmt.Fprintf(b.log, "\nunscaled: p50 %.4f ms, p95 %.4f ms, %.4f ops/s, %.4f ms CPU per op\n",
		percentile(raw, 0.50), percentile(raw, 0.95), median(rawRate), median(rawCPU))
}

// check compares an op's digest with the one its op seed must produce.
// Without a golden digest the first op on the seed sets it: the warm-up
// op unless it failed.
func (b *bench) check(k int, dig any) error {
	if b.expect[k] == nil {
		b.expect[k] = dig
		return nil
	}
	if dig != b.expect[k] {
		if b.seed == defaultSeed {
			return fmt.Errorf("output differs from the golden digest: got %v, want %v", dig, b.expect[k])
		}
		return fmt.Errorf("output differs from the first op on this seed: got %v, want %v", dig, b.expect[k])
	}
	return nil
}

// layers computes the traced run's per-layer metrics.
func (b *bench) layers(cl *client, synths []float64, m map[string]float64) error {
	untraced, traced := cl.ms, cl.tracedMs
	var agg aggregate
	agg.add(&cl.tr.agg)
	var allocs, counted *aggregate
	if agg.calls[kEngine] > 0 {
		// Counts that need instruments too costly for the timed ops.
		var err error
		if allocs, err = b.pass(newTracer(mallocClock, false)); err != nil {
			return err
		}
		if counted, err = b.pass(newTracer(nanoClock(), true)); err != nil {
			return err
		}
	}
	agg.metrics(allocs, m)
	if counted != nil && counted.topCalls > 0 {
		m["sched.feas_iters_per_call"] = counted.feas / float64(counted.topCalls)
	}
	info := runInfo{ops: len(untraced) + len(traced)}
	for _, x := range untraced {
		info.opSeconds += x / 1e3
	}
	for _, x := range traced {
		info.opSeconds += x / 1e3
	}
	if err := b.w.layers(info, m); err != nil {
		return err
	}
	m["workload.synth_ms"] = median(synths)
	sort.Float64s(untraced)
	sort.Float64s(traced)
	if len(untraced) == 0 || len(traced) == 0 {
		return errors.New("the traced run needs both traced and untraced ops; raise -seconds")
	}
	m["trace.overhead_pct"] = (percentile(traced, 0.5)/percentile(untraced, 0.5) - 1) * 100

	fmt.Fprintf(b.log, "traced ops: %d, untraced ops: %d\n", len(traced), len(untraced))
	agg.printSelf(b.log)
	if u := m["trace.unattributed_pct"]; u > unattributedTolerancePct {
		return fmt.Errorf("spans cover %.2f%% of op time; the layers' self times must sum to within %.0f%% of it",
			100-u, unattributedTolerancePct)
	}
	return b.dumpSpans(cl.tr, m)
}

// pass repeats the first passOps ops on tr after the timed phase, on one
// goroutine, and returns their aggregate. With the allocation count as
// the clock, each span's "duration" is the allocations made inside it,
// since no other code allocates meanwhile. With a telemetry registry,
// the aggregate carries the schedulers' feasibility-loop iterations.
func (b *bench) pass(tr *tracer) (*aggregate, error) {
	op := func(k int) error {
		_, dig, err := b.w.op(k, tr)
		if err == nil {
			err = b.check(k, dig)
		}
		if err != nil {
			return fmt.Errorf("op seed %d: %w", b.seeds[k], err)
		}
		return nil
	}
	if err := op(0); err != nil { // grows the span buffers; not counted
		return nil, err
	}
	tr.agg = aggregate{}
	feas0 := tr.feasIterations()
	for k := 0; k < passOps; k++ {
		if err := op(k); err != nil {
			return nil, err
		}
	}
	tr.agg.feas = tr.feasIterations() - feas0
	return &tr.agg, nil
}

// dumpSpans writes the kept ops' spans and the per-layer metrics as JSON.
func (b *bench) dumpSpans(tr *tracer, m map[string]float64) error {
	type spanOut struct {
		Op      int    `json:"op"`
		Name    string `json:"name"`
		Parent  int32  `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Layers   map[string]float64 `json:"layers"`
		Spans    []spanOut          `json:"spans"`
	}{Workload: b.name, Seed: b.seed, Layers: m}
	for op, spans := range tr.kept {
		for _, s := range spans {
			doc.Spans = append(doc.Spans, spanOut{op, kinds[s.kind].name, s.parent, s.start, s.end})
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(b.dir, fmt.Sprintf("trace-%s-%d.json", b.name, b.seed))
	fmt.Fprintln(b.log, "spans:", path)
	return os.WriteFile(path, raw, 0o644)
}

// decodeDigests parses a JSON array of digests of type T.
func decodeDigests[T comparable](raw json.RawMessage) ([]any, error) {
	var v []T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	out := make([]any, len(v))
	for i, d := range v {
		out[i] = d
	}
	return out, nil
}

// golden returns the committed digests of the default seed.
func (b *bench) golden() ([]any, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(goldenFile, &doc); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	raw, ok := doc[b.name]
	if !ok {
		return nil, fmt.Errorf("golden.json has no %s digests; run with -write-golden", b.name)
	}
	v, err := b.w.decodeGolden(raw)
	if err != nil {
		return nil, fmt.Errorf("golden.json %s: %w", b.name, err)
	}
	if len(v) != opSeeds {
		return nil, fmt.Errorf("golden.json %s: %d digests, want %d", b.name, len(v), opSeeds)
	}
	return v, nil
}

// writeGolden runs one op per op seed, checks them, and stores their
// digests under the workload's key in the golden file.
func (b *bench) writeGolden(path string) error {
	if b.seed != defaultSeed {
		return fmt.Errorf("goldens are kept for seed %d only", defaultSeed)
	}
	if _, err := b.w.setup(b.seeds, false); err != nil {
		return err
	}
	defer b.w.close()
	digests := make([]json.RawMessage, len(b.seeds))
	for k := range b.seeds {
		_, dig, err := b.w.op(k, nil)
		if err != nil {
			return fmt.Errorf("op seed %d: %w", b.seeds[k], err)
		}
		if digests[k], err = json.Marshal(dig); err != nil {
			return err
		}
	}
	for k, err := range b.w.verify() {
		return fmt.Errorf("op seed %d: %w", b.seeds[k], err)
	}
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	entry, err := json.Marshal(digests)
	if err != nil {
		return err
	}
	doc[b.name] = entry
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One digest per line keeps a golden change readable in a diff.
	var out bytes.Buffer
	out.WriteString("{")
	for i, k := range keys {
		var elems []json.RawMessage
		if err := json.Unmarshal(doc[k], &elems); err != nil {
			return fmt.Errorf("%s: %s: %w", path, k, err)
		}
		if i > 0 {
			out.WriteString(",")
		}
		fmt.Fprintf(&out, "\n  %q: [", k)
		for j, e := range elems {
			if j > 0 {
				out.WriteString(",")
			}
			out.WriteString("\n    ")
			if err := json.Compact(&out, e); err != nil {
				return err
			}
		}
		out.WriteString("\n  ]")
	}
	out.WriteString("\n}\n")
	return os.WriteFile(path, out.Bytes(), 0o644)
}

func printTable(w io.Writer, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		v, ok := m[d.name]
		val := "-"
		if ok {
			val = fmt.Sprintf("%.6g", v)
		}
		fmt.Fprintf(w, "  %-32s %14s %s\n", d.name, val, d.unit)
	}
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// beyond counts the samples above v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB returns the process's resident set in MB.
func residentMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0, fmt.Errorf("resident set: /proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}
