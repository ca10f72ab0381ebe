package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatalf("nil counter Value = %d", c.Value())
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge Value = %g", g.Value())
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Buckets() != nil || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not a no-op")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", DepthBuckets()) != nil {
		t.Fatal("nil registry returned non-nil metric")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if got := r.Snapshot(); len(got.Metrics) != 0 {
		t.Fatalf("nil registry snapshot has %d metrics", len(got.Metrics))
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Fatalf("sum = %g, want 106.5", h.Sum())
	}
	want := []uint64{1, 2, 1, 0, 1}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	// Median lands in the (1,2] bucket; interpolation keeps it inside.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %g, want within (1,2]", q)
	}
	// The overflow observation clamps to the largest finite bound.
	if q := h.Quantile(1); q != 8 {
		t.Fatalf("p100 = %g, want 8 (overflow clamp)", q)
	}
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("out-of-range quantiles not clamped")
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1) // exactly on a bound → that bucket (le semantics)
	if b := h.Buckets(); b[0] != 1 {
		t.Fatalf("observation at bound landed in %v", b)
	}
}

// TestHistogramAddCounts: adding a tally that places each value the way
// Observe does equals observing the values one by one; a nil histogram
// ignores it and a tally of the wrong shape panics.
func TestHistogramAddCounts(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	one, batch := NewHistogram(bounds), NewHistogram(bounds)
	counts := make([]uint64, len(bounds)+1)
	sum := 0.0
	for _, v := range []float64{-1, 0.5, 1, 1.5, 2, 3, 8, 100} {
		one.Observe(v)
		i, _ := slices.BinarySearch(bounds, v)
		counts[i]++
		sum += v
	}
	batch.AddCounts(counts, sum)
	if !slices.Equal(one.Buckets(), batch.Buckets()) || one.Count() != batch.Count() || one.Sum() != batch.Sum() {
		t.Fatalf("AddCounts: buckets %v count %d sum %g; Observe: %v %d %g",
			batch.Buckets(), batch.Count(), batch.Sum(), one.Buckets(), one.Count(), one.Sum())
	}
	var h *Histogram
	h.AddCounts(counts, sum)
	defer func() {
		if recover() == nil {
			t.Fatal("AddCounts took a tally of the wrong length")
		}
	}()
	batch.AddCounts(counts[1:], sum)
}

func TestCheckBoundsPanics(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}, {math.Inf(1)}, {math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	checkBounds(LatencyBuckets())
	checkBounds(DepthBuckets())
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs_total", "jobs", L("state", "done"))
	b := r.Counter("jobs_total", "jobs", L("state", "done"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("jobs_total", "jobs", L("state", "failed"))
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	h1 := r.Histogram("lat", "", []float64{1, 2})
	h2 := r.Histogram("lat", "", []float64{99}) // first registration's bounds win
	if h1 != h2 {
		t.Fatal("histogram re-registration returned a new instance")
	}
	if got := h1.Bounds(); len(got) != 2 || got[0] != 1 {
		t.Fatalf("bounds = %v, want [1 2]", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name did not panic")
		}
	}()
	r.Counter("bad name", "")
}

// nameRe is the Prometheus metric and label name grammar that
// validName implements byte by byte.
var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func TestValidNameMatchesGrammar(t *testing.T) {
	for _, s := range []string{
		"", "a", "Z", "_", ":", "0", "9a", "a9", "_9", ":9", "euad_jobs_total",
		"euastar:sched:decide_seconds", "a-b", "a b", "a.b", "a\x00", "\x00", "é", "aé",
		"a\n", "\xff", "A_Z:09", "-", "a/", "abc\u00e9", "_:_",
	} {
		if got, want := validName(s), nameRe.MatchString(s); got != want {
			t.Errorf("validName(%q) = %v, regexp %v", s, got, want)
		}
	}
	// Random strings over a small alphabet at every byte class boundary.
	const alphabet = "09:;@AZ[_`az{/ -.\x00\x7f\x80\xff"
	src := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 0, 8)
	for k := 0; k < 100000; k++ {
		buf = buf[:0]
		for n := src.IntN(6); n > 0; n-- {
			buf = append(buf, alphabet[src.IntN(len(alphabet))])
		}
		if s := string(buf); validName(s) != nameRe.MatchString(s) {
			t.Fatalf("validName(%q) = %v, regexp %v", s, validName(s), nameRe.MatchString(s))
		}
	}
}

// Every constructor panics on an invalid metric name or label name, on
// the first registration and on a lookup of an existing family alike.
func TestRegistryInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "", L("ok", "v"))
	r.Gauge("ok_gauge", "", L("ok", "v"))
	r.Histogram("ok_seconds", "", []float64{1}, L("ok", "v"))
	register := map[string]func(name string, labels ...Label){
		"counter":   func(name string, labels ...Label) { r.Counter(name, "", labels...) },
		"gauge":     func(name string, labels ...Label) { r.Gauge(name, "", labels...) },
		"histogram": func(name string, labels ...Label) { r.Histogram(name, "", []float64{1}, labels...) },
	}
	ok := map[string]string{"counter": "ok_total", "gauge": "ok_gauge", "histogram": "ok_seconds"}
	for kind, reg := range register {
		for _, c := range []struct {
			name   string
			labels []Label
		}{
			{"", nil},
			{"9lives", nil},
			{"bad-name", nil},
			{"bad name", nil},
			{ok[kind], []Label{L("bad-key", "v")}},
			{ok[kind], []Label{L("ok", "v"), L("0key", "v")}},
			{ok[kind], []Label{L("", "v")}},
			{"new_name", []Label{L("key.dot", "v")}},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %q with labels %v did not panic", kind, c.name, c.labels)
					}
				}()
				reg(c.name, c.labels...)
			}()
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("euad_jobs_total", "Jobs by outcome.", L("outcome", "admitted")).Add(3)
	r.Counter("euad_jobs_total", "Jobs by outcome.", L("outcome", "rejected")).Add(1)
	r.Gauge("euad_queue_depth", "Queued jobs.").Set(2)
	h := r.Histogram("sched_decide_seconds", "Decision latency.", []float64{0.5, 1}, L("scheme", "euastar"))
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP euad_jobs_total Jobs by outcome.
# TYPE euad_jobs_total counter
euad_jobs_total{outcome="admitted"} 3
euad_jobs_total{outcome="rejected"} 1
# HELP euad_queue_depth Queued jobs.
# TYPE euad_queue_depth gauge
euad_queue_depth 2
# HELP sched_decide_seconds Decision latency.
# TYPE sched_decide_seconds histogram
sched_decide_seconds_bucket{scheme="euastar",le="0.5"} 1
sched_decide_seconds_bucket{scheme="euastar",le="1"} 2
sched_decide_seconds_bucket{scheme="euastar",le="+Inf"} 3
sched_decide_seconds_sum{scheme="euastar"} 10
sched_decide_seconds_count{scheme="euastar"} 3
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", L("reason", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `m{reason="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

func TestSnapshotRoundTripAndFind(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "help", L("k", "v")).Add(2)
	r.Histogram("h", "", []float64{1, 2}).Observe(1.5)
	snap := r.Snapshot()

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	m := back.Find("c", L("k", "v"))
	if m == nil || m.Value != 2 {
		t.Fatalf("Find after round-trip = %+v", m)
	}
	hm := back.Find("h")
	if hm == nil || hm.Count != 1 || hm.Sum != 1.5 {
		t.Fatalf("histogram after round-trip = %+v", hm)
	}
	if q := hm.Quantile(0.5); q <= 1 || q > 2 {
		t.Fatalf("round-trip quantile = %g", q)
	}
	if back.Find("c", L("k", "other")) != nil || back.Find("absent") != nil {
		t.Fatal("Find matched a metric it should not")
	}
}

// TestConcurrentScrapeAndRegister exercises the race the registry must
// not have: rendering /metrics (or capturing a snapshot) while another
// goroutine is still registering new series. Run under -race.
func TestConcurrentScrapeAndRegister(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			r.Counter(fmt.Sprintf("c_%d", i), "help").Inc()
			r.Histogram(fmt.Sprintf("h_%d", i), "", []float64{1, 2}).Observe(1)
		}
	}()
	for {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		_ = r.Snapshot()
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c", "").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h", "", []float64{1, 2}).Observe(1)
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c", "").Value(); v != workers*per {
		t.Fatalf("counter = %d, want %d", v, workers*per)
	}
	if v := r.Gauge("g", "").Value(); v != workers*per {
		t.Fatalf("gauge = %g, want %d", v, workers*per)
	}
	if v := r.Histogram("h", "", nil).Count(); v != workers*per {
		t.Fatalf("histogram count = %d, want %d", v, workers*per)
	}
}

func TestWriteStatsGolden(t *testing.T) {
	// Deterministic fixture: the renderer is golden-testable even though
	// live latency observations are not.
	r := NewRegistry()
	r.Counter("engine_events_total", "", L("kind", "arrival")).Add(120)
	r.Counter("engine_preemptions_total", "").Add(7)
	r.Counter("engine_aborts_total", "", L("reason", "termination")).Add(3)
	r.Gauge("engine_pending_jobs", "").Set(4)
	r.Counter("unobserved_total", "") // zero → omitted
	h := r.Histogram("sched_decide_seconds", "", []float64{1e-6, 2e-6, 4e-6}, L("scheme", "euastar"))
	for i := 0; i < 8; i++ {
		h.Observe(1.5e-6)
	}
	h.Observe(3e-6)
	h.Observe(1e-3)                                      // overflow
	r.Histogram("sched_empty_seconds", "", []float64{1}) // empty → omitted

	var b strings.Builder
	if err := WriteStats(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `METRIC                                     VALUE
engine_aborts_total{reason="termination"}  3
engine_events_total{kind="arrival"}        120
engine_pending_jobs                        4
engine_preemptions_total                   7

HISTOGRAM                               COUNT  MEAN       P50        P90    P99
sched_decide_seconds{scheme="euastar"}  10     0.0001015  1.625e-06  4e-06  4e-06
`
	if b.String() != want {
		t.Errorf("stats table mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteStatsEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteStats(&b, Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no observations") {
		t.Fatalf("empty snapshot output = %q", b.String())
	}
}

// TestLookupExistingSeriesAllocatesNothing: asking for a series that
// exists already, with or without labels, allocates nothing.
func TestLookupExistingSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2}
	lookups := []struct {
		name string
		get  func()
	}{
		{"counter", func() { r.Counter("c_total", "help").Inc() }},
		{"counter/labels", func() { r.Counter("c_total", "help", L("kind", "arrival"), L("core", "0")).Inc() }},
		{"gauge", func() { r.Gauge("g", "help").Set(1) }},
		{"gauge/labels", func() { r.Gauge("g", "help", L("core", "1")).Set(1) }},
		{"histogram", func() { r.Histogram("h", "help", bounds).Observe(1) }},
		{"histogram/labels", func() { r.Histogram("h", "help", bounds, L("scheme", "EUA*")).Observe(1) }},
	}
	for _, c := range lookups {
		c.get() // register the series
		if n := testing.AllocsPerRun(100, c.get); n != 0 {
			t.Errorf("%s: %v allocations per lookup of an existing series", c.name, n)
		}
	}
}

// oracleSeriesKey is the series key as the registry used to build it,
// with a strings.Builder and strings.ReplaceAll escaping; the
// registry's one-pass escaping must produce the same bytes.
func oracleSeriesKey(labels []Label) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strings.ReplaceAll(l.Value, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	return b.String()
}

// checkSeriesKey compares the key of labels, appended after a prefix
// and on its own, with the oracle's, and, when every key is a valid
// label name, the exposition line of a counter carrying them.
func checkSeriesKey(t *testing.T, labels []Label) {
	t.Helper()
	want := oracleSeriesKey(labels)
	if got := seriesKey(labels); got != want {
		t.Fatalf("seriesKey(%q) = %q, want %q", labels, got, want)
	}
	if got := string(appendSeriesKey([]byte("m{"), labels)); got != "m{"+want {
		t.Fatalf("appendSeriesKey(m{, %q) = %q, want %q", labels, got, "m{"+want)
	}
	for _, l := range labels {
		if !validName(l.Key) {
			return
		}
	}
	r := NewRegistry()
	r.Counter("m", "", labels...).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	line := "m 1\n"
	if len(labels) > 0 {
		line = "m{" + want + "} 1\n"
	}
	if got := b.String(); got != "# TYPE m counter\n"+line {
		t.Fatalf("exposition of %q:\n%s\nwant line %q", labels, got, line)
	}
}

func TestSeriesKeyMatchesReplaceAll(t *testing.T) {
	for _, labels := range [][]Label{
		nil,
		{L("scheme", "EUA*")},
		{L("reason", "")},
		{L("reason", `a\b`), L("core", "0")},
		{L("reason", "line\nbreak\n")},
		{L("reason", `say "hi"`)},
		{L("reason", `\"`+"\n"+`\n\\`)},
		{L("name", "Zürich ☃ 日本")},
		{L("name", "bad \xff\xfe utf-8 \\ \"")},
		{L("a", `x",b="y`), L("b", "y")},
	} {
		checkSeriesKey(t, labels)
	}
}

// FuzzSeriesKey holds the registry's series keys and exposition to the
// ReplaceAll escaping of oracleSeriesKey for arbitrary label values.
func FuzzSeriesKey(f *testing.F) {
	f.Add("scheme", "EUA*", "")
	f.Add("reason", `a"b\c`+"\nd", "\\")
	f.Add("name", "Zürich \xff", `x",b="y`)
	f.Fuzz(func(t *testing.T, key, v1, v2 string) {
		checkSeriesKey(t, []Label{L(key, v1)})
		checkSeriesKey(t, []Label{L(key, v1), L("second", v2)})
	})
}

// BenchmarkRegistryLookup times asking for a counter that exists
// already, without and with a label, as the engine's per-run flush does.
func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	b.Run("unlabeled", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			r.Counter("euastar_engine_decisions_total", "Scheduler invocations.").Inc()
		}
	})
	b.Run("labeled", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			r.Counter("euastar_engine_events_total", "Processed simulation events by kind.", L("kind", "completion")).Inc()
		}
	})
}
