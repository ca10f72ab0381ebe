package sim

import (
	"container/heap"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/euastar/euastar/internal/rng"
)

func TestPopOrderByTime(t *testing.T) {
	var q Queue
	names := []string{"a", "b", "c"}
	q.Push(3, Arrival, 2)
	q.Push(1, Arrival, 0)
	q.Push(2, Arrival, 1)
	want := []string{"a", "b", "c"}
	for _, w := range want {
		e, ok := q.Pop()
		if !ok || names[e.Ref] != w {
			t.Fatalf("got %v, want %q", e, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestEqualTimeKindOrder(t *testing.T) {
	var q Queue
	names := []string{"arrival", "termination", "completion"}
	q.Push(5, Arrival, 0)
	q.Push(5, Termination, 1)
	q.Push(5, Completion, 2)
	want := []string{"completion", "termination", "arrival"}
	for _, w := range want {
		e, _ := q.Pop()
		if names[e.Ref] != w {
			t.Fatalf("got %q, want %q", names[e.Ref], w)
		}
	}
}

func TestEqualTimeKindFIFO(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(1, Arrival, i)
	}
	for i := 0; i < 10; i++ {
		e, _ := q.Pop()
		if e.Ref != i {
			t.Fatalf("insertion order broken: got %v at %d", e.Ref, i)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	a := q.Push(1, Completion, 0)
	q.Push(2, Completion, 1)
	b := Event{Time: 2, Kind: Completion, Ref: 1}
	q.Cancel(a)
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	e, ok := q.Pop()
	if !ok || e != b {
		t.Fatalf("got %v", e)
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestCancelRoot(t *testing.T) {
	var q Queue
	names := []string{"a", "b"}
	a := q.Push(1, Completion, 0)
	q.Push(2, Completion, 1)
	q.Cancel(a)
	e, ok := q.Peek()
	if !ok || names[e.Ref] != "b" {
		t.Fatal("cancelled root still visible")
	}
}

// TestCancelIdempotent: a value event carries no cancelled flag, so
// Cancel's result reports what the flag did: true exactly once.
func TestCancelIdempotent(t *testing.T) {
	var q Queue
	a := q.Push(1, Completion, 0)
	cancelled := q.Cancel(a)
	if q.Cancel(a) || q.Cancel(0) {
		t.Fatal("repeated or zero-handle cancel reported a cancellation")
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
	if !cancelled {
		t.Fatal("not marked cancelled")
	}
}

func TestCancelPopped(t *testing.T) {
	var q Queue
	a := q.Push(1, Completion, 0)
	q.Pop()
	q.Cancel(a) // no-op, must not corrupt
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(1, Arrival, 0)
	e1, _ := q.Peek()
	e2, _ := q.Peek()
	if e1 != e2 || q.Len() != 1 {
		t.Fatal("peek mutated queue")
	}
}

func TestPeekEmpty(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty succeeded")
	}
}

func TestNaNTimePanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.Push(math.NaN(), Arrival, 0)
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{Completion, Termination, Arrival, Custom, Kind(99)} {
		if k.String() == "" {
			t.Fatalf("empty string for kind %d", int(k))
		}
	}
}

func TestQuickHeapOrdering(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		src := rng.New(seed)
		var q Queue
		times := make([]float64, n)
		for i := range times {
			times[i] = src.Uniform(0, 100)
			q.Push(times[i], Arrival, 0)
		}
		sort.Float64s(times)
		for _, want := range times {
			e, ok := q.Pop()
			if !ok || e.Time != want {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCancelConsistency: a popped event is a value, so "not
// cancelled" is checked as membership in the kept set.
func TestQuickCancelConsistency(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		src := rng.New(seed)
		var q Queue
		events := make([]Handle, n)
		for i := range events {
			events[i] = q.Push(src.Uniform(0, 10), Completion, i)
		}
		// Cancel a random subset.
		kept := map[int]bool{}
		for i, e := range events {
			if src.Float64() < 0.5 {
				q.Cancel(e)
			} else {
				kept[i] = true
			}
		}
		if q.Len() != len(kept) {
			return false
		}
		prev := math.Inf(-1)
		for range kept {
			e, ok := q.Pop()
			if !ok || e.Time < prev || !kept[e.Ref] {
				return false
			}
			prev = e.Time
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPushBeforeWatermarkPanicsTyped pins the documented corruption
// contract: scheduling an event before the time of the latest popped
// event panics with a *NonMonotonicError identifying the event kind, so
// the engine watchdog can attribute queue corruption.
func TestPushBeforeWatermarkPanicsTyped(t *testing.T) {
	var q Queue
	q.Push(5, Arrival, 0)
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if w := q.Watermark(); w != 5 {
		t.Fatalf("watermark = %g, want 5", w)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("push before watermark did not panic")
		}
		nme, ok := r.(*NonMonotonicError)
		if !ok {
			t.Fatalf("panic value %T is not *NonMonotonicError", r)
		}
		if nme.Kind != Completion || nme.Time != 3 || nme.Watermark != 5 {
			t.Fatalf("unexpected error contents: %+v", nme)
		}
		if !strings.Contains(nme.Error(), "completion") {
			t.Fatalf("error %q does not name the event kind", nme.Error())
		}
	}()
	q.Push(3, Completion, 0)
}

// TestPushAtWatermarkAllowed: same-instant insertions (e.g. a completion
// scheduled exactly at the current event time) must stay legal.
func TestPushAtWatermarkAllowed(t *testing.T) {
	var q Queue
	q.Push(2, Arrival, 0)
	q.Pop()
	q.Push(2, Completion, 0) // exactly at the watermark
	e, ok := q.Pop()
	if !ok || e.Time != 2 || e.Kind != Completion {
		t.Fatalf("same-instant push lost: %v %v", e, ok)
	}
}

// TestPreloadOrdersLikeEarlierPushes: preloaded arrivals rank before a
// later-pushed arrival at the same instant, and after same-instant
// completions and terminations, exactly as if they had been pushed first.
func TestPreloadOrdersLikeEarlierPushes(t *testing.T) {
	var q Queue
	q.Preload([]Event{{1, Arrival, 0}, {2, Arrival, 1}, {2, Arrival, 2}, {3, Arrival, 3}})
	q.Push(2, Arrival, 4)
	q.Push(2, Termination, 5)
	q.Push(3, Custom, 6)
	if q.Len() != 7 {
		t.Fatalf("len = %d, want 7", q.Len())
	}
	var got []int
	for e, ok := q.Pop(); ok; e, ok = q.Pop() {
		got = append(got, e.Ref)
	}
	if want := []int{0, 5, 1, 2, 4, 3, 6}; !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

// TestPreloadRejectsBadStreams: an unsorted stream, a stream behind the
// watermark and a second stream while the first is pending all panic.
func TestPreloadRejectsBadStreams(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	var q Queue
	mustPanic("unsorted", func() { q.Preload([]Event{{2, Arrival, 0}, {1, Arrival, 1}}) })
	mustPanic("kinds unsorted", func() { q.Preload([]Event{{1, Custom, 0}, {1, Arrival, 1}}) })
	q.Preload([]Event{{1, Arrival, 0}, {2, Arrival, 1}})
	mustPanic("pending", func() { q.Preload([]Event{{3, Arrival, 2}}) })
	q.Pop()
	q.Pop()
	mustPanic("behind watermark", func() { q.Preload([]Event{{1, Arrival, 2}}) })
	q.Preload([]Event{{2, Arrival, 3}}) // at the watermark: legal
	if e, ok := q.Pop(); !ok || e.Ref != 3 {
		t.Fatalf("second stream lost: %v %v", e, ok)
	}
}

func BenchmarkPushPop(b *testing.B) {
	src := rng.New(1)
	var q Queue
	for i := 0; i < b.N; i++ {
		// Keep times at or above the watermark: popped times advance it and
		// earlier pushes are (by design) rejected.
		q.Push(q.Watermark()+src.Float64(), Arrival, 0)
		if q.Len() > 1024 {
			q.Pop()
		}
	}
}

// FuzzQueue drives random sequences of preload, push, cancel, pop and
// PopAt through Queue and through refQueue, the pointer-based
// container/heap queue it replaced, and requires both to agree after
// every step: the popped events, Len, the watermark, whether a cancel
// hit a queued event, and the *NonMonotonicError panics. Times come from
// a coarse grid and kinds from all four, so equal times and equal kinds
// are common; cancels pick any earlier push, so many handles are stale.
func FuzzQueue(f *testing.F) {
	src := rng.New(1)
	for i := 0; i < 64; i++ {
		ops := make([]byte, 32+src.Intn(480))
		for k := range ops {
			ops[k] = byte(src.Uint64())
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			q       Queue
			ref     refQueue
			handles []Handle
			refEvs  []*refEvent
			nextRef int
		)
		at := func(b byte) float64 { return ref.watermark + float64(int(b%8)-1)*0.5 }
		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i]%6, ops[i+1], ops[i+2]
			switch op {
			case 0, 1: // push, sometimes behind the watermark
				tm, kind := at(a), Kind(b%4)
				var h Handle
				got := catch(func() { h = q.Push(tm, kind, nextRef) })
				var re *refEvent
				want := catch(func() { re = ref.Push(tm, kind, nextRef) })
				samePanic(t, i, "push", got, want)
				if got == nil {
					handles, refEvs = append(handles, h), append(refEvs, re)
				}
				nextRef++
			case 2: // preload a sorted stream once the previous one drained
				if len(q.stream) > 0 {
					continue
				}
				stream := make([]Event, int(a%6))
				for k := range stream {
					stream[k] = Event{Time: at(b + byte(3*k)), Kind: Kind((a>>3 + byte(k)*b) % 4), Ref: nextRef + k}
				}
				slices.SortStableFunc(stream, func(x, y Event) int {
					if x.Time != y.Time {
						return compareFloat(x.Time, y.Time)
					}
					return int(x.Kind) - int(y.Kind)
				})
				nextRef += len(stream)
				got := catch(func() { q.Preload(stream) })
				want := catch(func() {
					for _, e := range stream {
						ref.Push(e.Time, e.Kind, e.Ref)
					}
				})
				samePanic(t, i, "preload", got, want)
			case 3: // cancel any earlier push, live or stale
				if len(handles) == 0 {
					continue
				}
				k := (int(a)<<8 | int(b)) % len(handles)
				re := refEvs[k]
				wasQueued := re.index >= 0 && !re.cancelled
				ref.Cancel(re)
				if got := q.Cancel(handles[k]); got != wasQueued {
					t.Fatalf("op %d: cancel of push %d reported %v, reference queue had it queued=%v", i, k, got, wasQueued)
				}
			case 4:
				e, ok := q.Pop()
				re, rok := ref.Pop()
				sameEvent(t, i, "pop", e, ok, re, rok)
			case 5: // PopAt the next event's time or a grid time
				tm := at(a)
				if pe, ok := ref.Peek(); ok && b%2 == 0 {
					tm = pe.Time
				}
				e, ok := q.PopAt(tm)
				re, rok := ref.PopAt(tm)
				sameEvent(t, i, "popAt", e, ok, re, rok)
			}
			if q.Len() != ref.Len() || q.Watermark() != ref.Watermark() {
				t.Fatalf("op %d: len %d watermark %g, reference len %d watermark %g",
					i, q.Len(), q.Watermark(), ref.Len(), ref.Watermark())
			}
		}
		for {
			e, ok := q.Pop()
			re, rok := ref.Pop()
			sameEvent(t, len(ops), "drain", e, ok, re, rok)
			if !ok {
				return
			}
		}
	})
}

func compareFloat(x, y float64) int {
	if x < y {
		return -1
	}
	if x > y {
		return 1
	}
	return 0
}

func catch(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func samePanic(t *testing.T, op int, what string, got, want any) {
	t.Helper()
	g, gok := got.(*NonMonotonicError)
	w, wok := want.(*NonMonotonicError)
	if gok && wok && *g == *w || got == nil && want == nil {
		return
	}
	t.Fatalf("op %d: %s panicked with %v, reference queue with %v", op, what, got, want)
}

func sameEvent(t *testing.T, op int, what string, e Event, ok bool, re *refEvent, rok bool) {
	t.Helper()
	if ok != rok {
		t.Fatalf("op %d: %s ok=%v, reference ok=%v", op, what, ok, rok)
	}
	if ok && !reflect.DeepEqual(e, Event{Time: re.Time, Kind: re.Kind, Ref: re.Payload.(int)}) {
		t.Fatalf("op %d: %s gave %+v, reference %+v", op, what, e, *re)
	}
}

// refQueue is the pointer-based event queue the engine used before the
// value heap: container/heap over *refEvent with lazy cancellation. It
// is kept as FuzzQueue's oracle.
type refQueue struct {
	h         refHeap
	seq       uint64
	active    int
	watermark float64
}

type refEvent struct {
	Time    float64
	Kind    Kind
	Payload any

	seq       uint64
	index     int
	cancelled bool
}

func (q *refQueue) Watermark() float64 { return q.watermark }

func (q *refQueue) Push(t float64, kind Kind, payload any) *refEvent {
	if t != t {
		panic("sim: event time is NaN")
	}
	if t < q.watermark {
		panic(&NonMonotonicError{Kind: kind, Time: t, Watermark: q.watermark})
	}
	e := &refEvent{Time: t, Kind: kind, Payload: payload, seq: q.seq}
	q.seq++
	heap.Push(&q.h, e)
	q.active++
	return e
}

func (q *refQueue) Cancel(e *refEvent) {
	if e == nil || e.cancelled || e.index < 0 {
		return
	}
	e.cancelled = true
	q.active--
	if e.index == 0 {
		q.drop()
	}
}

func (q *refQueue) Pop() (*refEvent, bool) {
	q.skipCancelled()
	if len(q.h) == 0 {
		return nil, false
	}
	e := heap.Pop(&q.h).(*refEvent)
	e.index = -1
	q.active--
	if e.Time > q.watermark {
		q.watermark = e.Time
	}
	return e, true
}

func (q *refQueue) PopAt(t float64) (*refEvent, bool) {
	q.skipCancelled()
	if len(q.h) == 0 || q.h[0].Time != t {
		return nil, false
	}
	return q.Pop()
}

func (q *refQueue) Peek() (*refEvent, bool) {
	q.skipCancelled()
	if len(q.h) == 0 {
		return nil, false
	}
	return q.h[0], true
}

func (q *refQueue) Len() int { return q.active }

func (q *refQueue) skipCancelled() {
	for len(q.h) > 0 && q.h[0].cancelled {
		q.drop()
	}
}

func (q *refQueue) drop() {
	e := heap.Pop(&q.h).(*refEvent)
	e.index = -1
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.seq < b.seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
