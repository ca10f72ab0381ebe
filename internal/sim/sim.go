// Package sim provides the discrete-event simulation core: a time-ordered
// event queue with deterministic tie-breaking, on which the engine is
// built.
//
// Events are values. Pushed events live in one binary heap of structs,
// and a run's arrivals can be preloaded as one sorted stream that Pop
// merges with the heap, so neither pushing nor popping allocates once the
// heap's buffer has grown.
package sim

import (
	"fmt"
	"slices"
)

// Kind classifies scheduling events. The paper's scheduling events are
// "the arrival and completion of a job, and the expiration of a time
// constraint such as the arrival of a TUF's termination time"
// (Section 3.2).
type Kind int

// Event kinds in deterministic processing order for equal timestamps:
// completions first (a job finishing exactly at a boundary still
// completes), then terminations (expired work leaves before new work is
// admitted), then arrivals.
const (
	Completion Kind = iota
	Termination
	Arrival
	Custom
)

func (k Kind) String() string {
	switch k {
	case Completion:
		return "completion"
	case Termination:
		return "termination"
	case Arrival:
		return "arrival"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is a simulation event. Ref is its typed payload: an index into
// the caller's own tables, which the queue never interprets.
type Event struct {
	Time float64
	Kind Kind
	Ref  int
}

// Handle identifies a pushed event so that it can be cancelled. The zero
// Handle refers to no event. A handle goes stale once its event is popped
// or cancelled, and is never reused.
type Handle uint64

// NonMonotonicError is the panic value raised by Queue.Push when an event
// is scheduled strictly before the queue's watermark (the time of the
// latest popped event). Simulation time only moves forward, so such a
// push can never be processed and indicates state corruption in the
// caller. The error identifies the offending event kind so a watchdog
// recovering the panic can attribute the corruption.
type NonMonotonicError struct {
	Kind      Kind    // kind of the rejected event
	Time      float64 // requested event time
	Watermark float64 // time of the latest popped event
}

func (e *NonMonotonicError) Error() string {
	return fmt.Sprintf("sim: %s event at t=%g scheduled before watermark %g (non-monotonic insertion)",
		e.Kind, e.Time, e.Watermark)
}

// item is a heap entry: the event and its insertion number, the final
// tie-break and the event's handle (seq+1).
type item struct {
	Event
	seq uint64
}

// Queue is a priority queue of events ordered by (Time, Kind, insertion
// order). The zero value is ready to use.
//
// Cancel searches the heap linearly. The heap holds only pushed events
// that are still queued (preloaded ones never enter it), which in the
// engine means one termination per job released within the last window
// P_i plus one progress event per core.
type Queue struct {
	heap      []item
	stream    []Event // preloaded events not yet popped
	streamSeq uint64  // insertion number of stream[0]
	seq       uint64
	watermark float64 // max time of any popped event
}

// Watermark returns the time of the latest popped event (0 before the
// first pop). Pushes strictly before the watermark are rejected.
func (q *Queue) Watermark() float64 { return q.watermark }

// Reserve makes room for n more pushed events without reallocating.
func (q *Queue) Reserve(n int) { q.heap = slices.Grow(q.heap, n) }

// check rejects an event time that is NaN or behind the watermark.
func (q *Queue) check(t float64, kind Kind) {
	if t != t { // NaN
		panic("sim: event time is NaN")
	}
	if t < q.watermark {
		panic(&NonMonotonicError{Kind: kind, Time: t, Watermark: q.watermark})
	}
}

// Push enqueues an event and returns its handle (so the caller can cancel
// it later). Times must be finite. Pushing an event strictly before the
// queue's watermark panics with a *NonMonotonicError describing the
// offending event, since simulation time only moves forward.
func (q *Queue) Push(t float64, kind Kind, ref int) Handle {
	q.check(t, kind)
	q.heap = append(q.heap, item{Event{Time: t, Kind: kind, Ref: ref}, q.seq})
	q.seq++
	q.up(len(q.heap) - 1)
	return Handle(q.seq)
}

// Preload queues a stream of events that are never cancelled. The stream
// must be sorted by (Time, Kind); its events take the next insertion
// numbers in stream order, so the queue pops them exactly as if each had
// been pushed in turn. They never enter the heap: Pop merges the stream
// with it. The queue reads stream in place, so the caller must not change
// it afterwards. Preload panics like Push on the first bad time, on an
// unsorted stream, and while an earlier stream is not yet drained.
func (q *Queue) Preload(stream []Event) {
	if len(q.stream) > 0 {
		panic("sim: preload while an earlier stream is pending")
	}
	for i := range stream {
		e := &stream[i]
		q.check(e.Time, e.Kind)
		if i > 0 {
			if p := &stream[i-1]; e.Time < p.Time || e.Time == p.Time && e.Kind < p.Kind {
				panic(fmt.Sprintf("sim: preloaded stream not sorted at index %d", i))
			}
		}
	}
	q.stream = stream
	q.streamSeq = q.seq
	q.seq += uint64(len(stream))
}

// Cancel removes the event h refers to and reports whether it was still
// queued. Cancelling a popped or already-cancelled event, or the zero
// Handle, is a no-op.
func (q *Queue) Cancel(h Handle) bool {
	if h == 0 {
		return false
	}
	for i := range q.heap {
		if q.heap[i].seq == uint64(h)-1 {
			q.remove(i)
			return true
		}
	}
	return false
}

// streamFirst reports whether the earliest queued event is the stream's
// head rather than the heap's root.
func (q *Queue) streamFirst() bool {
	if len(q.stream) == 0 {
		return false
	}
	if len(q.heap) == 0 {
		return true
	}
	s, h := &q.stream[0], &q.heap[0]
	if s.Time != h.Time {
		return s.Time < h.Time
	}
	if s.Kind != h.Kind {
		return s.Kind < h.Kind
	}
	return q.streamSeq < h.seq
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() (Event, bool) {
	switch {
	case q.streamFirst():
		return q.stream[0], true
	case len(q.heap) > 0:
		return q.heap[0].Event, true
	}
	return Event{}, false
}

// Pop removes and returns the earliest event, advancing the queue's
// watermark to its time.
func (q *Queue) Pop() (Event, bool) {
	var e Event
	switch {
	case q.streamFirst():
		e = q.stream[0]
		q.stream = q.stream[1:]
		q.streamSeq++
	case len(q.heap) > 0:
		e = q.heap[0].Event
		q.remove(0)
	default:
		return Event{}, false
	}
	if e.Time > q.watermark {
		q.watermark = e.Time
	}
	return e, true
}

// PopAt removes and returns the earliest event if it is scheduled exactly
// at time t. It is the engine's same-instant batch primitive: one call
// replaces the Peek-then-Pop pair on the hot loop.
func (q *Queue) PopAt(t float64) (Event, bool) {
	if e, ok := q.Peek(); !ok || e.Time != t {
		return Event{}, false
	}
	return q.Pop()
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.heap) + len(q.stream) }

// less orders heap entries by (Time, Kind, seq).
func (q *Queue) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.seq < b.seq
}

// remove deletes heap entry i, moving the last entry into its place.
func (q *Queue) remove(i int) {
	n := len(q.heap) - 1
	q.heap[i] = q.heap[n]
	q.heap = q.heap[:n]
	if i < n && !q.down(i) {
		q.up(i)
	}
}

func (q *Queue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

// down sifts entry i toward the leaves and reports whether it moved.
func (q *Queue) down(i int) bool {
	start, n := i, len(q.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q.heap[i], q.heap[c] = q.heap[c], q.heap[i]
		i = c
	}
	return i > start
}
