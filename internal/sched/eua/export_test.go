package eua

import "github.com/euastar/euastar/internal/sched"

// NewReference returns an EUA* scheduler with the given options that
// decides with the reference Algorithm 1/2 (reference_test.go): the
// oracle side of the differential suite.
func NewReference(opts ...Option) sched.Scheduler {
	return &refScheduler{Scheduler: New(opts...)}
}
