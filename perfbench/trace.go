package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/euastar/euastar/internal/engine"
	"github.com/euastar/euastar/internal/sched"
	"github.com/euastar/euastar/internal/task"
	"github.com/euastar/euastar/internal/telemetry"
)

// kind names a span: the layer call it times.
type kind uint8

const (
	kOp kind = iota // the whole op; its self time is the benchmark's own glue
	kEngine
	kSchedInit
	kSchedDecide
	kSchedEvent
	kPartInit
	kPartDecide
	kPartEvent
	kAnalyze
	kOracle
	kSubmit
	kWait
	nKinds
)

var kinds = [nKinds]struct{ name, layer string }{
	kOp:          {"op", "unattributed"},
	kEngine:      {"engine.simulate", "engine"},
	kSchedInit:   {"sched.init", "sched"},
	kSchedDecide: {"sched.decide", "sched"},
	kSchedEvent:  {"sched.observe", "sched"},
	kPartInit:    {"partition.init", "partition"},
	kPartDecide:  {"partition.decide_multi", "partition"},
	kPartEvent:   {"partition.observe", "partition"},
	kAnalyze:     {"metrics.analyze", "metrics"},
	kOracle:      {"oracle.yds", "oracle"},
	kSubmit:      {"server.submit", "server"},
	kWait:        {"server.wait", "server"},
}

// span is one timed layer call of an op. parent indexes the op's span
// list (-1 for the op itself).
type span struct {
	kind   kind
	eua    bool // made by an EUA* instance
	parent int32
	ready  int32 // ready-queue length handed to a decide call
	start  int64
	end    int64
}

// tracer records the spans of one client's traced ops and folds each op
// into a running aggregate when it ends. Spans stay in memory; the first
// keepOps ops are kept whole for the span dump. A nil *tracer records
// nothing, so untraced ops call it unconditionally.
type tracer struct {
	clock func() int64
	spans []span
	open  []int32
	child []int64
	agg   aggregate
	reg   *telemetry.Registry
	kept  [][]span
}

// newTracer returns a tracer on the given clock; withRegistry attaches a
// telemetry registry to its engine runs, for the schedulers' own
// feasibility-loop counter.
func newTracer(clock func() int64, withRegistry bool) *tracer {
	t := &tracer{clock: clock, spans: make([]span, 0, 1<<14), open: make([]int32, 0, 16)}
	if withRegistry {
		t.reg = telemetry.NewRegistry()
	}
	return t
}

func nanoClock() func() int64 {
	epoch := time.Now()
	return func() int64 { return int64(time.Since(epoch)) }
}

// memStats is the allocation pass's scratch; the pass runs on one
// goroutine, and a local would escape and count itself.
var memStats runtime.MemStats

// mallocClock reads the cumulative heap allocation count.
func mallocClock() int64 {
	runtime.ReadMemStats(&memStats)
	return int64(memStats.Mallocs)
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(k kind, eua bool, ready int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, eua: eua, parent: parent, ready: int32(ready)})
	t.open = append(t.open, i)
	t.spans[i].start = t.clock()
	return i
}

// end closes span i, the innermost open one.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = t.clock()
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) beginOp() { t.begin(kOp, false, 0) }

// discardOp drops a failed op's spans.
func (t *tracer) discardOp() {
	if t == nil {
		return
	}
	t.spans, t.open = t.spans[:0], t.open[:0]
}

// endOp closes the op span and adds the op's self times to the aggregate.
// A span's self time is its duration minus its children's; spans of one
// op nest strictly, so children never overlap.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end(0)
	sp := t.spans
	if cap(t.child) < len(sp) {
		t.child = make([]int64, len(sp))
	}
	child := t.child[:len(sp)]
	clear(child)
	for i := len(sp) - 1; i > 0; i-- {
		child[sp[i].parent] += sp[i].end - sp[i].start
	}
	a := &t.agg
	for i, s := range sp {
		d := s.end - s.start
		self := d - child[i]
		a.self[s.kind] += self
		a.incl[s.kind] += d
		a.calls[s.kind]++
		if s.eua {
			a.euaSelf += self
		}
		// The engine's own calls into the scheduler: Decide on one core,
		// DecideMulti on several (its per-core Decide calls nest inside).
		if (s.kind == kSchedDecide || s.kind == kPartDecide) && s.parent >= 0 && sp[s.parent].kind == kEngine {
			a.topCalls++
			a.topIncl += d
			a.topReady += int64(s.ready)
		}
		switch s.kind {
		case kSubmit:
			a.submitMs = append(a.submitMs, float64(d)/1e6)
		case kWait:
			a.waitMs = append(a.waitMs, float64(d)/1e6)
		}
	}
	a.ops++
	a.opTotal += sp[0].end - sp[0].start
	if len(t.kept) < keepOps {
		t.kept = append(t.kept, append([]span(nil), sp...))
	}
	t.spans = t.spans[:0]
}

// registry is the telemetry registry traced runs report into.
func (t *tracer) registry() *telemetry.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// noteRun adds a finished engine run's event count and cycle split.
func (t *tracer) noteRun(res *engine.Result) {
	if t == nil {
		return
	}
	t.agg.events += int64(res.Events)
	for _, j := range res.Jobs {
		t.agg.cycles += j.Executed
		if j.State == task.Aborted {
			t.agg.wasted += j.Executed
		}
	}
}

// noteOracle adds the size of one YDS instance.
func (t *tracer) noteOracle(jobs int) {
	if t != nil {
		t.agg.oracleJobs += int64(jobs)
	}
}

// feasIterations reads the schedulers' feasibility-loop counter (0
// without a registry).
func (t *tracer) feasIterations() float64 {
	snap := t.reg.Snapshot()
	var n float64
	for _, m := range snap.Metrics {
		if m.Name == sched.MetricFeasIters {
			n += m.Value
		}
	}
	return n
}

// aggregate sums the traced ops of a run.
type aggregate struct {
	ops            int
	opTotal        int64 // summed op span durations
	self, incl     [nKinds]int64
	calls          [nKinds]int64
	euaSelf        int64
	topCalls       int64 // engine-to-scheduler decide calls
	topIncl        int64
	topReady       int64
	events         int64
	cycles, wasted float64
	oracleJobs     int64
	feas           float64 // feasibility-loop iterations
	submitMs       []float64
	waitMs         []float64
}

func (a *aggregate) add(b *aggregate) {
	a.ops += b.ops
	a.opTotal += b.opTotal
	for k := range a.self {
		a.self[k] += b.self[k]
		a.incl[k] += b.incl[k]
		a.calls[k] += b.calls[k]
	}
	a.euaSelf += b.euaSelf
	a.topCalls += b.topCalls
	a.topIncl += b.topIncl
	a.topReady += b.topReady
	a.events += b.events
	a.cycles += b.cycles
	a.wasted += b.wasted
	a.oracleJobs += b.oracleJobs
	a.submitMs = append(a.submitMs, b.submitMs...)
	a.waitMs = append(a.waitMs, b.waitMs...)
}

// metrics derives the span-based per-layer metrics. allocs, when set, is
// the allocation pass's aggregate, whose span "durations" are
// allocation counts.
func (a *aggregate) metrics(allocs *aggregate, m map[string]float64) {
	if a.ops == 0 {
		return
	}
	ops := float64(a.ops)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	if a.calls[kEngine] > 0 {
		m["engine.self_ms_per_op"] = float64(a.self[kEngine]) / 1e6 / ops
		m["engine.self_ns_per_event"] = float64(a.self[kEngine]) / float64(a.events)
		m["engine.events_per_op"] = float64(a.events) / ops
		m["sched.decide_us_per_call"] = us(a.topIncl) / float64(a.topCalls)
		m["sched.calls_per_op"] = float64(a.topCalls) / ops
		m["sched.ready_per_call"] = float64(a.topReady) / float64(a.topCalls)
		m["sched.init_us_per_op"] = us(a.incl[kSchedInit]) / ops
		m["sched.eua_share"] = float64(a.euaSelf) / float64(a.opTotal)
		m["sched.wasted_cycle_share"] = a.wasted / a.cycles
		m["metrics.analyze_us_per_op"] = us(a.incl[kAnalyze]) / ops
	}
	if allocs != nil && allocs.events > 0 && allocs.topCalls > 0 {
		m["engine.allocs_per_event"] = float64(allocs.self[kEngine]) / float64(allocs.events)
		m["sched.allocs_per_call"] = float64(allocs.topIncl) / float64(allocs.topCalls)
	}
	if n := a.calls[kPartDecide]; n > 0 {
		m["partition.init_us_per_op"] = us(a.self[kPartInit]) / ops
		m["partition.dispatch_us_per_call"] = us(a.self[kPartDecide]) / float64(n)
	}
	if n := a.calls[kOracle]; n > 0 {
		m["oracle.yds_ms_per_call"] = float64(a.incl[kOracle]) / 1e6 / float64(n)
		m["oracle.jobs_per_call"] = float64(a.oracleJobs) / float64(n)
		m["oracle.share"] = float64(a.incl[kOracle]) / float64(a.opTotal)
	}
	if len(a.submitMs) > 0 {
		m["server.submit_ms_p50"] = median(a.submitMs)
		m["server.wait_ms_p50"] = median(a.waitMs)
	}
	m["trace.unattributed_pct"] = 100 * float64(a.self[kOp]) / float64(a.opTotal)
}

// printSelf prints each layer's self time per traced op and their sum,
// which equals the op time by construction; the unattributed part is the
// benchmark's own glue between layer calls.
func (a *aggregate) printSelf(w io.Writer) {
	if a.ops == 0 {
		return
	}
	self := map[string]int64{}
	for k := kind(0); k < nKinds; k++ {
		self[kinds[k].layer] += a.self[k]
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var sum int64
	fmt.Fprintf(w, "self time per traced op (%d ops):\n", a.ops)
	for _, l := range layers {
		sum += self[l]
		if self[l] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s %10.4f ms  %5.1f%%\n", l, float64(self[l])/1e6/float64(a.ops),
			100*float64(self[l])/float64(a.opTotal))
	}
	fmt.Fprintf(w, "  %-14s %10.4f ms of op %.4f ms; unattributed tolerance %.0f%%\n", "sum",
		float64(sum)/1e6/float64(a.ops), float64(a.opTotal)/1e6/float64(a.ops), unattributedTolerancePct)
}

// traced wraps a scheduler so that its calls open spans. Single-core
// schedulers get sched spans; a multi-core one (the partitioned
// dispatcher) gets partition spans, and its per-core instances, wrapped
// through its factory, nest sched spans inside them.
type traced struct {
	inner               sched.Scheduler
	tr                  *tracer
	init, decide, event kind
	eua                 bool
}

func (s *traced) Name() string { return s.inner.Name() }

func (s *traced) Init(ctx *sched.Context) error {
	i := s.tr.begin(s.init, s.eua, 0)
	err := s.inner.Init(ctx)
	s.tr.end(i)
	return err
}

func (s *traced) Decide(now float64, ready []*task.Job) sched.Decision {
	i := s.tr.begin(s.decide, s.eua, len(ready))
	d := s.inner.Decide(now, ready)
	s.tr.end(i)
	return d
}

type tracedMulti struct {
	*traced
	multi sched.MultiScheduler
}

func (s tracedMulti) Cores() int { return s.multi.Cores() }

func (s tracedMulti) DecideMulti(now float64, ready []*task.Job) sched.MultiDecision {
	i := s.tr.begin(s.decide, s.eua, len(ready))
	d := s.multi.DecideMulti(now, ready)
	s.tr.end(i)
	return d
}

// events forwards engine.EventObserver. EUA*'s OnRelease feeds its
// phantom-arrival reservation and ccEDF's its utilisation ledger, so a
// wrapper that dropped it would silently change their schedules.
type events struct {
	obs engine.EventObserver
	s   *traced
}

func (e events) OnRelease(now float64, j *task.Job) {
	i := e.s.tr.begin(e.s.event, e.s.eua, 0)
	e.obs.OnRelease(now, j)
	e.s.tr.end(i)
}

func (e events) OnComplete(now float64, j *task.Job) {
	i := e.s.tr.begin(e.s.event, e.s.eua, 0)
	e.obs.OnComplete(now, j)
	e.s.tr.end(i)
}

// budget forwards engine.BudgetObserver.
type budget struct {
	obs engine.BudgetObserver
	s   *traced
}

func (b budget) OnEnergy(spent, limit float64) {
	i := b.s.tr.begin(b.s.event, b.s.eua, 0)
	b.obs.OnEnergy(spent, limit)
	b.s.tr.end(i)
}

// wrap returns s with every call traced. The result implements exactly
// the optional interfaces s implements — sched.MultiScheduler,
// engine.EventObserver and engine.BudgetObserver — since the engine and
// the partitioned dispatcher branch on them.
func (t *tracer) wrap(s sched.Scheduler, eua bool) sched.Scheduler {
	w := &traced{inner: s, tr: t, init: kSchedInit, decide: kSchedDecide, event: kSchedEvent, eua: eua}
	multi, isMulti := s.(sched.MultiScheduler)
	if isMulti {
		w.init, w.decide, w.event = kPartInit, kPartDecide, kPartEvent
	}
	var ev *events
	if obs, ok := s.(engine.EventObserver); ok {
		ev = &events{obs, w}
	}
	var bo *budget
	if obs, ok := s.(engine.BudgetObserver); ok {
		bo = &budget{obs, w}
	}
	if isMulti {
		m := tracedMulti{w, multi}
		switch {
		case ev != nil && bo != nil:
			return struct {
				sched.MultiScheduler
				*events
				*budget
			}{m, ev, bo}
		case ev != nil:
			return struct {
				sched.MultiScheduler
				*events
			}{m, ev}
		case bo != nil:
			return struct {
				sched.MultiScheduler
				*budget
			}{m, bo}
		}
		return m
	}
	switch {
	case ev != nil && bo != nil:
		return struct {
			sched.Scheduler
			*events
			*budget
		}{w, ev, bo}
	case ev != nil:
		return struct {
			sched.Scheduler
			*events
		}{w, ev}
	case bo != nil:
		return struct {
			sched.Scheduler
			*budget
		}{w, bo}
	}
	return w
}
