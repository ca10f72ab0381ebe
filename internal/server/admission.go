package server

import (
	"github.com/euastar/euastar/internal/admission"
	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/task"
)

// triage runs the O(n) analytical admission test on a simulate
// submission before it is queued. Every verdict is counted in
// euad_admission_verdicts_total{scheme,verdict}; only a Reject returns a
// non-nil error — the submission then terminates as a failed job with
// 422 in microseconds, without ever occupying a worker slot. Any problem
// with the analysis itself (unparseable tasks document, unknown scheme)
// yields no error: the worker path reports those with its usual precise
// errors. A set it parsed is returned for the worker to run, so an
// admitted job's document is parsed once.
func (s *Server) triage(spec JobSpec) (task.Set, *JobError) {
	if spec.Kind != KindSimulate {
		return nil, nil
	}
	if cores, _ := s.multiDefaults(spec); cores > 1 {
		// The analytical bound is a uniprocessor capacity test. On m
		// cores feasibility is decided by the partitioned packing at
		// engine Init, so a workload that overloads one core may still
		// be schedulable — defer to the simulator.
		return nil, nil
	}
	ts, err := loadTasks(spec)
	if err != nil {
		return nil, nil
	}
	res, aerr := admission.Analyze(ts, cpu.PowerNowK6(), spec.Scheme)
	if aerr != nil {
		return ts, nil
	}
	s.ins.verdicts(string(res.Verdict), spec.Scheme).Inc()
	if res.Verdict != admission.Reject {
		return ts, nil
	}
	return nil, &JobError{Code: CodeRejected, Message: res.Reason, Verdict: string(res.Verdict)}
}
