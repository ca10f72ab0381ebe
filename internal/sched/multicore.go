package sched

import (
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/task"
)

// CoreDecision is one core's slot in a multiprocessor decision: the job
// the core executes next (nil to idle the core) and the core-local DVS
// frequency, which must be a step of that core's table.
type CoreDecision struct {
	Run  *task.Job
	Freq float64
}

// MultiDecision is a multiprocessor scheduler's answer at a scheduling
// event: one CoreDecision per core (indexed by core id) plus the jobs to
// abort. A job may appear on at most one core. Iters is Decision.Iters
// summed over the decision's cores.
type MultiDecision struct {
	Cores []CoreDecision
	Abort []*task.Job
	Iters int
}

// MultiScheduler is the multiprocessor scheduler contract. The engine
// requires it whenever Config.Cores > 1 and accepts it on one core too.
// It asks a MultiScheduler DecideMulti at every scheduling event on
// every core count, m = 1 included, and never calls its Decide. A plain
// Scheduler runs on one core only, where the engine presents it as a
// one-core MultiScheduler.
type MultiScheduler interface {
	Scheduler
	// Cores returns the core count the scheduler was built for; the
	// engine rejects a mismatch with Config.Cores (unset meaning 1) at
	// Validate time.
	Cores() int
	// DecideMulti selects, at time now, one job and frequency per core.
	// ready holds all released, unfinished, unaborted jobs of the whole
	// system; as with Decide, it must not be modified (not even
	// reordered) or retained, and no returned slice may alias it. The
	// caller must not retain the returned slices either.
	DecideMulti(now float64, ready []*task.Job) MultiDecision
}

// CoreTables resolves the per-core frequency tables for m cores: entry k
// of CoreFreqs when set, the shared Freqs ladder otherwise.
func (c *Context) CoreTables(m int) []cpu.FrequencyTable {
	tables := make([]cpu.FrequencyTable, m)
	for k := range tables {
		if k < len(c.CoreFreqs) && c.CoreFreqs[k] != nil {
			tables[k] = c.CoreFreqs[k]
		} else {
			tables[k] = c.Freqs
		}
	}
	return tables
}
