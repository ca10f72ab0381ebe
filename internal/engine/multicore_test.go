package engine

import (
	"math"
	"testing"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sched/baseline"
	"github.com/euastar/euastar/internal/task"
)

// multiTestSched is a minimal MultiScheduler: tasks are statically
// striped over cores by ID modulo m, each core runs its earliest
// critical-time job at the core table's top step. It exists to exercise
// the engine's multi-core contract without pulling in the partition
// package.
type multiTestSched struct {
	m      int
	freqs  []cpu.FrequencyTable
	sorted []*task.Job
}

func (s *multiTestSched) Name() string { return "multi-test" }
func (s *multiTestSched) Cores() int   { return s.m }

func (s *multiTestSched) Init(ctx *sched.Context) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	s.freqs = ctx.CoreTables(s.m)
	return nil
}

func (s *multiTestSched) Decide(now float64, ready []*task.Job) sched.Decision {
	d := s.DecideMulti(now, ready)
	return sched.Decision{Run: d.Cores[0].Run, Freq: d.Cores[0].Freq, Abort: d.Abort}
}

func (s *multiTestSched) DecideMulti(now float64, ready []*task.Job) sched.MultiDecision {
	d := sched.MultiDecision{Cores: make([]sched.CoreDecision, s.m)}
	for _, j := range s.byCriticalTime(ready) {
		k := j.Task.ID % s.m
		if d.Cores[k].Run == nil {
			d.Cores[k] = sched.CoreDecision{Run: j, Freq: s.freqs[k].Max()}
		}
	}
	return d
}

// byCriticalTime returns the ready jobs in critical-time order, sorted
// in the scheduler's own buffer: ready is the engine's and read-only.
func (s *multiTestSched) byCriticalTime(ready []*task.Job) []*task.Job {
	s.sorted = append(s.sorted[:0], ready...)
	sched.ByCriticalTime(s.sorted)
	return s.sorted
}

// multiTestSet builds n periodic tasks with distinct IDs 0..n-1.
func multiTestSet(n int) task.Set {
	ts := make(task.Set, n)
	for i := range ts {
		ts[i] = stepTask(i, 0.01+0.002*float64(i), 10, 2e6)
	}
	return ts
}

func TestMultiCoreValidate(t *testing.T) {
	ts := multiTestSet(4)
	t.Run("negative cores", func(t *testing.T) {
		cfg := baseConfig(ts, &multiTestSched{m: 1}, 0.05)
		cfg.Cores = -1
		if _, err := Run(cfg); err == nil {
			t.Fatal("negative core count accepted")
		}
	})
	t.Run("single-core scheduler on multi-core config", func(t *testing.T) {
		cfg := baseConfig(ts, baseline.NewEDF(true), 0.05)
		cfg.Cores = 2
		if _, err := Run(cfg); err == nil {
			t.Fatal("plain Scheduler accepted for 2 cores")
		}
	})
	t.Run("core count mismatch", func(t *testing.T) {
		cfg := baseConfig(ts, &multiTestSched{m: 2}, 0.05)
		cfg.Cores = 4
		if _, err := Run(cfg); err == nil {
			t.Fatal("scheduler/config core mismatch accepted")
		}
	})
	t.Run("table count mismatch", func(t *testing.T) {
		cfg := baseConfig(ts, &multiTestSched{m: 2}, 0.05)
		cfg.Cores = 2
		cfg.CoreFreqs = []cpu.FrequencyTable{cfg.Freqs}
		if _, err := Run(cfg); err == nil {
			t.Fatal("1 per-core table accepted for 2 cores")
		}
	})
	t.Run("invalid per-core table", func(t *testing.T) {
		cfg := baseConfig(ts, &multiTestSched{m: 2}, 0.05)
		cfg.Cores = 2
		cfg.CoreFreqs = []cpu.FrequencyTable{cfg.Freqs, {2, 1}}
		if _, err := Run(cfg); err == nil {
			t.Fatal("unsorted per-core table accepted")
		}
	})
	// Validate must reject the one-core mismatches below up front: past
	// it they surface, if at all, as an invariant violation mid-run.
	t.Run("multi-core scheduler on one-core config", func(t *testing.T) {
		cfg := baseConfig(ts, &multiTestSched{m: 4}, 0.05) // Cores unset
		if err := cfg.Validate(); err == nil {
			t.Fatal("4-core scheduler accepted with Cores unset")
		}
	})
	t.Run("per-core table on one core", func(t *testing.T) {
		for _, cores := range []int{0, 1} {
			cfg := baseConfig(ts, baseline.NewEDF(true), 0.05)
			cfg.Cores = cores
			cfg.CoreFreqs = []cpu.FrequencyTable{cpu.Uniform(200e6, 600e6, 5)}
			if err := cfg.Validate(); err == nil {
				t.Fatalf("Cores=%d: per-core table accepted on a uniprocessor", cores)
			}
		}
	})
	t.Run("resource sections rejected", func(t *testing.T) {
		secTS := multiTestSet(4)
		secTS[0].Sections = []task.Section{{Resource: 1, Start: 0.1, End: 0.9}}
		cfg := baseConfig(secTS, &multiTestSched{m: 2}, 0.05)
		cfg.Cores = 2
		if _, err := Run(cfg); err == nil {
			t.Fatal("resource sections accepted on a multi-core run")
		}
	})
}

// TestMultiCoreAccounting pins the exactly-once accounting contract:
// the per-core breakdowns sum to the Result totals with exact float64
// equality, spans land on the striped cores, and partitioned-by-ID
// dispatch never migrates.
func TestMultiCoreAccounting(t *testing.T) {
	for _, m := range []int{2, 4} {
		cfg := baseConfig(multiTestSet(8), &multiTestSched{m: m}, 0.1)
		cfg.Cores = m
		cfg.RecordTrace = true
		cfg.IdleStaticPower = 0.05
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Cores != m || len(res.PerCore) != m {
			t.Fatalf("m=%d: Cores=%d, len(PerCore)=%d", m, res.Cores, len(res.PerCore))
		}
		var energy, idle, cycles, busy float64
		var switches int
		for _, c := range res.PerCore {
			energy += c.Energy
			idle += c.IdleEnergy
			cycles += c.Cycles
			busy += c.BusyTime
			switches += c.Switches
		}
		if energy != res.TotalEnergy || idle != res.IdleEnergy || cycles != res.Cycles ||
			busy != res.BusyTime || switches != res.Switches {
			t.Fatalf("m=%d: per-core sums (%v, %v, %v, %v, %d) != totals (%v, %v, %v, %v, %d)",
				m, energy, idle, cycles, busy, switches,
				res.TotalEnergy, res.IdleEnergy, res.Cycles, res.BusyTime, res.Switches)
		}
		if res.TotalEnergy <= 0 || res.Cycles <= 0 {
			t.Fatalf("m=%d: no work accounted (energy %v, cycles %v)", m, res.TotalEnergy, res.Cycles)
		}
		if res.Migrations != 0 {
			t.Fatalf("m=%d: %d migrations under static striping", m, res.Migrations)
		}
		for _, sp := range res.Trace {
			if want := sp.Job.Task.ID % m; sp.Core != want {
				t.Fatalf("m=%d: task %d span on core %d, want %d", m, sp.Job.Task.ID, sp.Core, want)
			}
		}
		var executed float64
		for _, j := range res.Jobs {
			executed += j.Executed
		}
		if math.Abs(executed-res.Cycles) > 1e-3 {
			t.Fatalf("m=%d: executed %v cycles, metered %v", m, executed, res.Cycles)
		}
	}
}

// TestHeterogeneousTables runs a big.LITTLE-style pair: core 1's ladder
// tops out below core 0's, and dispatched frequencies must come from
// each core's own table.
func TestHeterogeneousTables(t *testing.T) {
	little := cpu.Uniform(200e6, 600e6, 5)
	cfg := baseConfig(multiTestSet(4), &multiTestSched{m: 2}, 0.1)
	cfg.Cores = 2
	cfg.CoreFreqs = []cpu.FrequencyTable{nil, little} // nil falls back to Freqs
	cfg.RecordTrace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.Trace {
		table := cfg.Freqs
		if sp.Core == 1 {
			table = little
		}
		if !table.Contains(sp.Frequency) {
			t.Fatalf("core %d span at %g Hz, not a step of its table", sp.Core, sp.Frequency)
		}
	}
}

// migrateSched ping-pongs a single task between two cores on every
// decision so the migration counter must advance.
type migrateSched struct {
	multiTestSched
	flip int
}

func (s *migrateSched) DecideMulti(now float64, ready []*task.Job) sched.MultiDecision {
	d := sched.MultiDecision{Cores: make([]sched.CoreDecision, s.m)}
	if len(ready) == 0 {
		return d
	}
	s.flip++
	k := s.flip % s.m
	d.Cores[k] = sched.CoreDecision{Run: s.byCriticalTime(ready)[0], Freq: s.freqs[k].Max()}
	return d
}

func TestMigrationCounting(t *testing.T) {
	ts := task.Set{stepTask(0, 0.02, 10, 40e6)} // long job, many decisions
	s := &migrateSched{multiTestSched: multiTestSched{m: 2}}
	cfg := baseConfig(ts, s, 0.05)
	cfg.Cores = 2
	// Keep the job alive across termination expiries so successive
	// decisions re-dispatch it on alternating cores.
	cfg.AbortAtTermination = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("ping-pong dispatch recorded no migrations")
	}
}

// dupSched illegally selects the same job on both cores.
type dupSched struct{ multiTestSched }

func (s *dupSched) DecideMulti(now float64, ready []*task.Job) sched.MultiDecision {
	d := sched.MultiDecision{Cores: make([]sched.CoreDecision, s.m)}
	if len(ready) == 0 {
		return d
	}
	for k := range d.Cores {
		d.Cores[k] = sched.CoreDecision{Run: ready[0], Freq: s.freqs[k].Max()}
	}
	return d
}

func TestDuplicateJobRejected(t *testing.T) {
	cfg := baseConfig(multiTestSet(2), &dupSched{multiTestSched{m: 2}}, 0.05)
	cfg.Cores = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("job dispatched on two cores at once was not rejected")
	}
}
