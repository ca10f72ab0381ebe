package eua

import (
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// NewReference returns an EUA* scheduler with the given options that
// decides with the reference Algorithm 1/2 (reference_test.go): the
// oracle side of the differential suite.
func NewReference(opts ...Option) sched.Scheduler {
	return &refScheduler{Scheduler: New(opts...)}
}

// edfHead replays the live list of the last decision in critical-time
// order (sched.Sequencer.EDFHead): ok reports whether the underload
// shortcut settles it.
func (s *Scheduler) edfHead(now float64) (head *task.Job, n int, ok bool) {
	return s.fp.seq.EDFHead(now)
}

// Shortcuts returns how many of s's decisions the f_m certificate
// settled and how many of its greedy runs stopped once their head was
// fixed.
func (s *Scheduler) Shortcuts() (certified, exits int) {
	return s.fp.certified, s.fp.seq.Exits()
}
