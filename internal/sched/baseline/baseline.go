// Package baseline implements the schedulers Section 5 compares EUA*
// against, as two schedulers with one per-variant part each:
//
//   - EDF (Horn's algorithm on absolute critical times), whose variant
//     part is its frequency rule: f_m — the paper's normalization
//     baseline, "EDF that always uses the highest frequency" — or one of
//     the three Pillai–Shin RT-DVS rules (SOSP'01, the paper's reference
//     [13]): the static step chosen at Init (staticEDF), the
//     cycle-conserving utilization ledger (ccEDF), or look-ahead deferral
//     (laEDF). Each comes with and without abortion of jobs that can no
//     longer meet their termination time at f_m; the no-abort "-NA"
//     variants exhibit the domino effect during overloads.
//   - UA, best-effort utility-accrual scheduling at f_m, whose variant
//     part is its density: the job alone (Locke's DASA, the canonical UA
//     scheduler EUA*'s sequencing descends from) or its whole blocking
//     chain (GUS, Li & Ravindran's dependency-aware generalization). It
//     runs EUA*'s schedule construction, sched.Sequencer, with the
//     density as the key, so against EUA* they isolate what the energy
//     term in the UER and frequency scaling add.
//
// As Section 5 specifies for the baselines, job deadlines are critical
// times and the per-job cycle budgets are "the cycles allocated by EUA*"
// (the Chebyshev allocations c_i) rather than worst cases. Every scheme
// reads c_i, C_i/D_i and D_i from the sched.TaskTable it builds at Init,
// the table EUA* reads too; only a profiled task's values are re-derived,
// once per decision. The reference twins in reference_test.go derive
// everything from the task model at every decision, and the differential
// suite holds each scheme to its twin bit for bit.
package baseline

import (
	"fmt"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
)

// scheme is what every baseline shares: its name, its context, f_m, and
// the per-task table its decisions read c_i, C_i/D_i and D_i from.
type scheme struct {
	name string
	ctx  *sched.Context
	fm   float64
	tab  sched.TaskTable
}

// Name implements sched.Scheduler.
func (s *scheme) Name() string { return s.name }

// init validates and records the context.
func (s *scheme) init(ctx *sched.Context) error {
	if err := ctx.Validate(); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	s.ctx, s.fm = ctx, ctx.Freqs.Max()
	s.tab = sched.NewTaskTable(ctx.Tasks)
	return nil
}

// remaining returns j.EstimatedRemaining() with c_i from the table.
func (s *scheme) remaining(j *task.Job) float64 { return s.tab.Remaining(j, s.tab.Pos(j)) }
