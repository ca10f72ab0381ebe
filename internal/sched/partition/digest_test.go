package partition_test

// The schedule digest grid: 812 engine runs across every scheduler the
// repository ships, each reduced to one SHA-256 digest of its schedule,
// pinned in testdata/digests.txt. A change that claims to keep every
// schedule bit for bit must leave every line of that file as it is; the
// test names each run whose digest moved.
//
// A digest covers what a run decided and what it cost: every job's
// state, finish time, executed cycles and utility; every trace span
// (job, interval, frequency, cycles, core); the energy, cycle and busy
// totals overall and per core; the event, decision, switch, preemption,
// migration, inheritance, fault, safe-mode and shed counts; and the
// feasibility iterations the schedulers reported. Abort-reason labels are
// not part of it: the differential suites compare them against the
// reference schedulers.
//
// The runs are the 238-case identity grid of identity_test.go, bare and
// wrapped; partitioned EUA* and G-UER on 2 and 4 cores over each Table 1
// application, with and without abortion and a fault plan; all ten
// baselines and EUA* on the three applications together at loads 0.6,
// 1.0 and 1.6 with a switch latency and an energy budget, with and
// without abortion; and the same eleven schemes with half the tasks
// profiled, step and linear TUFs, loads 0.4, 0.9 and 1.6, seeds 1–3.
//
// Regenerate the file only for a change meant to move schedules, and
// declare it:
//
//	go test ./internal/sched/partition/ -run TestScheduleDigests -update-digests

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/faults"
	"github.com/euastar/euastar/internal/profile"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/sched/eua"
	"github.com/euastar/euastar/internal/sched/partition"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
	"github.com/euastar/euastar/internal/workload"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/digests.txt from the current schedules")

const digestFile = "testdata/digests.txt"

// digestRun is one engine run of the grid; build returns a fresh config.
type digestRun struct {
	name  string
	build func() engine.Config
}

// digestSchemes are the eleven uniprocessor schemes of the grid's last
// two parts: the ten baselines and EUA*.
var digestSchemes = []func() sched.Scheduler{
	func() sched.Scheduler { return baseline.NewEDF(true) },
	func() sched.Scheduler { return baseline.NewEDF(false) },
	func() sched.Scheduler { return baseline.NewStaticEDF(true) },
	func() sched.Scheduler { return baseline.NewStaticEDF(false) },
	func() sched.Scheduler { return baseline.NewCCEDF(true) },
	func() sched.Scheduler { return baseline.NewCCEDF(false) },
	func() sched.Scheduler { return baseline.NewLAEDF(true) },
	func() sched.Scheduler { return baseline.NewLAEDF(false) },
	func() sched.Scheduler { return baseline.NewDASA() },
	func() sched.Scheduler { return baseline.NewGUS() },
	func() sched.Scheduler { return eua.New() },
}

// table1Set synthesizes the three Table 1 applications as one task set
// and scales it to load.
func table1Set(shape workload.Shape, load float64, seed uint64) task.Set {
	src := rng.New(seed * 0x9e3779b9)
	var ts task.Set
	for _, app := range workload.Table1() {
		ts = append(ts, app.MustSynthesize(src, workload.Options{Shape: shape, FirstID: len(ts) + 1})...)
	}
	return ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
}

func digestRuns() []digestRun {
	var runs []digestRun
	add := func(name string, build func() engine.Config) {
		runs = append(runs, digestRun{name: name, build: build})
	}

	for _, c := range identityCases() {
		c := c
		add("ident/"+c.name+"/bare", func() engine.Config { return c.build(false) })
		add("ident/"+c.name+"/wrapped", func() engine.Config { return c.build(true) })
	}

	const plan = "seed=5,overrun=0.1,overrun-factor=1.5,sticky=0.1"
	for _, m := range []int{2, 4} {
		for _, placement := range []string{"ff", "wf", "global"} {
			for _, app := range workload.Table1() {
				for _, abort := range []bool{true, false} {
					for _, faulty := range []bool{false, true} {
						m, placement, app, abort, faulty := m, placement, app, abort, faulty
						add(fmt.Sprintf("multi/m%d-%s-%s-abort=%v-faults=%v", m, placement, app.Name, abort, faulty),
							func() engine.Config {
								ft := cpu.PowerNowK6()
								ts := app.MustSynthesize(rng.New(uint64(m)*0x9e3779b9), workload.Options{}).
									ScaleToLoad(0.9*float64(m), ft.Max())
								s, err := partition.Place(m, placement, func() sched.Scheduler { return eua.New() })
								if err != nil {
									panic(err)
								}
								cfg := engine.Config{
									Tasks: ts, Scheduler: s, Freqs: ft, Cores: m,
									Energy:             energy.MustPreset(energy.E1, ft.Max()),
									Horizon:            0.5,
									Seed:               uint64(m),
									AbortAtTermination: abort,
									RecordTrace:        true,
								}
								if faulty {
									p, err := faults.Parse(plan)
									if err != nil {
										panic(err)
									}
									cfg.Faults = p
								}
								return cfg
							})
					}
				}
			}
		}
	}

	for si, mk := range digestSchemes {
		for _, load := range []float64{0.6, 1.0, 1.6} {
			for _, abort := range []bool{true, false} {
				si, mk, load, abort := si, mk, load, abort
				add(fmt.Sprintf("budget/%s-L%.1f-abort=%v", mk().Name(), load, abort), func() engine.Config {
					ft := cpu.PowerNowK6()
					return engine.Config{
						Tasks: table1Set(workload.Step, load, uint64(si)+1), Scheduler: mk(), Freqs: ft,
						Energy:             energy.MustPreset(energy.E2, ft.Max()),
						Horizon:            0.5,
						Seed:               uint64(si) + 1,
						AbortAtTermination: abort,
						SwitchLatency:      50e-6,
						EnergyBudget:       digestBudget * load,
						RecordTrace:        true,
					}
				})
			}
		}
	}

	for _, mk := range digestSchemes {
		for _, shape := range []workload.Shape{workload.Step, workload.LinearDecay} {
			for _, load := range []float64{0.4, 0.9, 1.6} {
				for seed := uint64(1); seed <= 3; seed++ {
					mk, shape, load, seed := mk, shape, load, seed
					add(fmt.Sprintf("profiled/%s-%s-L%.1f-s%d", mk().Name(), shape, load, seed), func() engine.Config {
						ft := cpu.PowerNowK6()
						ts := table1Set(shape, load, seed)
						for i, tk := range ts {
							if i%2 == 0 {
								tk.Profiler = profile.MustNew(tk.Demand.Mean*1.3, tk.Demand.Variance, 4)
							}
						}
						return engine.Config{
							Tasks: ts, Scheduler: mk(), Freqs: ft,
							Energy:             energy.MustPreset(energy.E1, ft.Max()),
							Horizon:            0.5,
							Seed:               seed,
							AbortAtTermination: !strings.HasSuffix(mk().Name(), "-NA"),
							RecordTrace:        true,
						}
					})
				}
			}
		}
	}
	return runs
}

// digestBudget scales the energy budget of the grid's budget runs: about
// half of what EDF at f_m spends at load 1 over the horizon, so the
// battery runs dry in most of them.
const digestBudget = 2.5e26

// digest hashes a run's schedule; see the file comment for what it
// covers.
func digest(res *engine.Result, reg *telemetry.Registry) string {
	h := sha256.New()
	f := func(v float64) { writeUint(h, math.Float64bits(v)) }
	n := func(v int) { writeUint(h, uint64(int64(v))) }
	for _, v := range []float64{res.TotalEnergy, res.IdleEnergy, res.Cycles, res.BusyTime,
		res.EndTime, res.AbortCycles, res.DepletedAt} {
		f(v)
	}
	for _, v := range []int{res.Switches, res.Decisions, res.Events, res.Preemptions,
		res.Migrations, res.Inheritances, res.Cores, res.FaultEvents, res.SafeModeEntries,
		res.JobsShed, len(res.Jobs), len(res.Trace), len(res.PerCore)} {
		n(v)
	}
	if res.Depleted {
		n(1)
	} else {
		n(0)
	}
	for _, c := range res.PerCore {
		f(c.Energy)
		f(c.IdleEnergy)
		f(c.Cycles)
		f(c.BusyTime)
		n(c.Switches)
	}
	for _, j := range res.Jobs {
		n(j.Task.ID)
		n(j.Index)
		n(int(j.State))
		f(j.Arrival)
		f(j.FinishedAt)
		f(j.Executed)
		f(j.Utility)
	}
	for _, s := range res.Trace {
		n(s.Job.Task.ID)
		n(s.Job.Index)
		f(s.Start)
		f(s.End)
		f(s.Frequency)
		f(s.Cycles)
		n(s.Core)
	}
	iters := 0.0
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == sched.MetricFeasIters {
			iters += m.Value
		}
	}
	f(iters)
	return hex.EncodeToString(h.Sum(nil))
}

func writeUint(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// runDigests runs the grid on a few workers and returns one digest per
// run, in grid order.
func runDigests(t *testing.T, runs []digestRun) []string {
	out := make([]string, len(runs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cfg := runs[i].build()
				cfg.Telemetry = telemetry.NewRegistry()
				res, err := engine.Run(cfg)
				if err != nil {
					t.Errorf("%s: %v", runs[i].name, err)
					continue
				}
				out[i] = digest(res, cfg.Telemetry)
			}
		}()
	}
	for i := range runs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

func TestScheduleDigests(t *testing.T) {
	runs := digestRuns()
	if len(runs) != 812 {
		t.Fatalf("grid has %d runs, want 812", len(runs))
	}
	got := runDigests(t, runs)
	if t.Failed() {
		return
	}
	if *updateDigests {
		var b strings.Builder
		for i, r := range runs {
			fmt.Fprintf(&b, "%s %s\n", r.name, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	moved := 0
	for i, r := range runs {
		w, ok := want[r.name]
		switch {
		case !ok:
			t.Errorf("%s: no digest in %s", r.name, digestFile)
		case w != got[i]:
			t.Errorf("%s: schedule digest moved", r.name)
			moved++
		}
	}
	if len(want) != len(runs) {
		t.Errorf("%s holds %d digests, the grid has %d runs", digestFile, len(want), len(runs))
	}
	if moved > 0 {
		t.Errorf("%d of %d schedules moved", moved, len(runs))
	}
}

// readDigests parses the pinned file: one "name digest" line per run.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, d, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[name] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
