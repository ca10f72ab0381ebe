package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/sim"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/uam"
)

// ErrInterrupted is the sentinel wrapped by Run's error when a configured
// Interrupt channel closes mid-run (the context behind it was cancelled
// or its deadline passed).
var ErrInterrupted = errors.New("engine: run interrupted")

// InvariantError is the structured error Run returns when the runtime
// watchdog detects state corruption — instead of panicking or silently
// producing a corrupt Result. The experiment layer wraps it with the
// failing cell's (load, seed, scheme) coordinates.
type InvariantError struct {
	Invariant string  // which invariant broke, e.g. "event-monotonicity"
	Time      float64 // simulation time of the detection
	Detail    string  // human-readable specifics
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("engine: invariant %q violated at t=%g: %s", e.Invariant, e.Time, e.Detail)
}

// The watchdog's invariant names, also useful for tests asserting on a
// specific failure class.
const (
	InvEventMonotonic = "event-monotonicity"
	InvQueueMonotonic = "queue-monotonicity"
	InvEnergyAccount  = "energy-accounting"
	InvUtilityBounds  = "utility-bounds"
	InvUAMCompliance  = "uam-compliance"
	InvInternal       = "internal-state"
)

// watchdog performs cheap runtime invariant checks on every event and
// drives the overload safe mode. All checks are detection-only: a healthy
// run is bit-identical with and without the watchdog (it is always on —
// its per-event cost is a few comparisons).
type watchdog struct {
	prevEnergy float64
	// windows holds, per task position, the task's last a_i realized
	// arrival times — a sliding window for checking UAM ⟨a, P⟩
	// compliance online.
	windows []uam.Window
	// missStreak counts consecutive termination-time misses since the
	// last completion; the safe mode triggers on a sustained streak.
	missStreak int
}

// newWatchdog cuts every task's window from one array of length window,
// the sum of the tasks' bounds a_i.
func newWatchdog(tasks task.Set, window int) watchdog {
	buf := make([]float64, window)
	w := watchdog{windows: make([]uam.Window, len(tasks))}
	for i, t := range tasks {
		a := t.Arrival.A
		w.windows[i] = uam.NewWindow(buf[:a:a])
		buf = buf[a:]
	}
	return w
}

// checkEvent validates that event times never run backwards relative to
// simulation time.
func (w *watchdog) checkEvent(lastTime float64, ev sim.Event) *InvariantError {
	if math.IsNaN(ev.Time) || ev.Time < lastTime {
		return &InvariantError{
			Invariant: InvEventMonotonic,
			Time:      lastTime,
			Detail:    fmt.Sprintf("%s event at t=%g behind simulation clock %g", ev.Kind, ev.Time, lastTime),
		}
	}
	return nil
}

// checkEnergy validates the energy account after time advances: metered
// energy must be finite and non-decreasing.
func (w *watchdog) checkEnergy(now, total float64) *InvariantError {
	if math.IsNaN(total) || math.IsInf(total, 0) || total < w.prevEnergy {
		return &InvariantError{
			Invariant: InvEnergyAccount,
			Time:      now,
			Detail:    fmt.Sprintf("metered energy moved from %g to %g", w.prevEnergy, total),
		}
	}
	w.prevEnergy = total
	return nil
}

// checkArrival validates the realized arrival of t, the task at position
// ti, against its UAM window bound: at most a_i arrivals in any sliding
// window of length P_i.
func (w *watchdog) checkArrival(now float64, ti int, t *task.Task) *InvariantError {
	win := &w.windows[ti]
	a, p := t.Arrival.A, t.Arrival.P
	if win.Len() == a {
		if gap := now - win.Oldest(); gap < p*(1-1e-9) {
			return &InvariantError{
				Invariant: InvUAMCompliance,
				Time:      now,
				Detail: fmt.Sprintf("task %s: %d arrivals within %g < P=%g (UAM <%d, %g> violated)",
					t, a+1, gap, p, a, p),
			}
		}
	}
	win.Push(now)
	return nil
}

// checkResolved validates a resolved job's utility account: finite and
// within [0, U_max].
func (w *watchdog) checkResolved(j *task.Job) *InvariantError {
	u, max := j.Utility, j.Task.TUF.MaxUtility()
	if math.IsNaN(u) || u < -1e-9*max || u > max*(1+1e-9)+1e-12 {
		return &InvariantError{
			Invariant: InvUtilityBounds,
			Time:      j.FinishedAt,
			Detail:    fmt.Sprintf("job %v %s with utility %g outside [0, %g]", j, j.State, u, max),
		}
	}
	return nil
}

// noteMiss records a termination-time miss; noteCompletion clears the
// streak (forward progress is being made again).
func (w *watchdog) noteMiss()       { w.missStreak++ }
func (w *watchdog) noteCompletion() { w.missStreak = 0 }

// defaultShedFraction is used when the safe mode is armed but
// Config.SafeModeShed is left zero.
const defaultShedFraction = 0.5

// shedReason marks safe-mode aborts in traces and per-job reports.
const shedReason = "safe mode shed (low UER)"

// maybeShed enters the overload safe mode when the watchdog has flagged a
// sustained streak of termination-time misses: the engine sheds the
// configured fraction of pending jobs, lowest UER first, so the remaining
// capacity concentrates on the work that still buys the most utility per
// joule — graceful degradation instead of thrashing through doomed jobs.
// It returns the number of jobs shed.
func (st *state) maybeShed(now float64) int {
	if st.cfg.SafeModeMisses <= 0 || st.wd.missStreak < st.cfg.SafeModeMisses {
		return 0
	}
	st.wd.missStreak = 0
	st.ins.safeEntries++
	frac := st.cfg.SafeModeShed
	if frac == 0 {
		frac = defaultShedFraction
	}
	n := int(math.Ceil(frac * float64(len(st.pending))))
	if n <= 0 {
		return 0
	}
	// Lowest UER first, at f_m (the same currency as EUA*'s Algorithm 1),
	// with a total deterministic tie-break.
	victims := append([]*task.Job(nil), st.pending...)
	fm := st.cfg.Freqs.Max()
	uer := make(map[*task.Job]float64, len(victims))
	for _, j := range victims {
		uer[j] = sched.UER(now, j, fm, st.cfg.Energy)
	}
	sort.SliceStable(victims, func(i, k int) bool {
		a, b := victims[i], victims[k]
		if uer[a] != uer[b] {
			return uer[a] < uer[b]
		}
		if a.Task.ID != b.Task.ID {
			return a.Task.ID < b.Task.ID
		}
		return a.Index < b.Index
	})
	if n > len(victims) {
		n = len(victims)
	}
	for _, j := range victims[:n] {
		st.abort(now, j, shedReason)
	}
	st.ins.shed += n
	return n
}
