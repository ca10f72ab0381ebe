package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name=value pair attached to a metric series. Label order
// is preserved as given at registration and is part of the series
// identity, so register with a consistent order.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// series is one labeled instance of a metric family.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histogram families only
	series map[string]*series
	order  []string // registration order of series keys
}

// Registry holds named metric families and renders them in the
// Prometheus text exposition format. Registration is idempotent: asking
// for an existing (name, labels) series returns the same instance, so
// per-run components (schedulers, engines) sharing a long-lived registry
// accumulate into the same counters. A nil *Registry returns nil metrics
// from every constructor — the zero-cost no-op default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a valid metric or label name: it
// matches ^[a-zA-Z_:][a-zA-Z0-9_:]*$. Byte by byte, so any non-ASCII
// byte fails.
func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == ':' || i > 0 && '0' <= c && c <= '9') {
			return false
		}
	}
	return len(s) > 0
}

// lookup finds or creates the (name, labels) series, enforcing one kind
// per name. Metric names are compile-time constants in this repo, so a
// kind mismatch is a programming error and panics. Help text and
// histogram bounds are fixed by the first registration of a name; later
// registrations' help/bounds are ignored.
func (r *Registry) lookup(name, help string, k kind, bounds []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %s", l.Key, name))
		}
	}
	// A labeled key is built in a stack buffer, and indexing the map
	// with string(kb) copies nothing, so finding an existing series
	// allocates nothing; only a new series copies its key.
	var kb []byte
	if len(labels) > 0 {
		var buf [128]byte
		kb = appendSeriesKey(buf[:0], labels)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		if k == kindHistogram {
			checkBounds(bounds)
			f.bounds = append([]float64(nil), bounds...)
		}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s, requested as %s", name, f.kind, k))
	}
	s := f.series[string(kb)]
	if s == nil {
		key := string(kb)
		s = &series{labels: append([]Label(nil), labels...)}
		switch k {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = NewHistogram(f.bounds)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. A nil registry returns nil (a no-op counter).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels).ctr
}

// Gauge returns the gauge for (name, labels). Nil registry → nil gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, labels).gauge
}

// Histogram returns the histogram for (name, labels) over the given
// bucket bounds; the bounds of the first registration win for the whole
// family. Nil registry → nil histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, bounds, labels).hist
}

// seriesKey renders labels into a deterministic map key (and the
// Prometheus label block, minus braces).
func seriesKey(labels []Label) string {
	return string(appendSeriesKey(nil, labels))
}

// appendSeriesKey appends the series key of labels to dst: key="value"
// pairs joined by commas, each value escaped per the Prometheus text
// format (backslash, newline and double quote; every other byte as is).
func appendSeriesKey(dst []byte, labels []Label) []byte {
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=', '"')
		for j := 0; j < len(l.Value); j++ {
			switch c := l.Value[j]; c {
			case '\\':
				dst = append(dst, '\\', '\\')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '"':
				dst = append(dst, '\\', '"')
			default:
				dst = append(dst, c)
			}
		}
		dst = append(dst, '"')
	}
	return dst
}

// formatValue renders a sample value the way Prometheus clients do:
// shortest round-trip representation.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// familyView is a render-safe copy of one family: the ordered series
// pointers are copied out under r.mu so rendering can proceed while
// lookup keeps registering new series in the live maps. The series
// values themselves are atomic, so reading them unlocked is safe, and
// labels/bounds are immutable after creation.
type familyView struct {
	name   string
	help   string
	kind   kind
	bounds []float64
	series []*series
}

// view captures every family sorted by name, each family's series in
// registration order, all copied under the lock.
func (r *Registry) view() []familyView {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	views := make([]familyView, len(names))
	for i, n := range names {
		f := r.families[n]
		v := familyView{name: f.name, help: f.help, kind: f.kind, bounds: f.bounds}
		v.series = make([]*series, len(f.order))
		for j, key := range f.order {
			v.series[j] = f.series[key]
		}
		views[i] = v
	}
	return views
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE headers, then one line per
// sample. Families are sorted by name and series by registration order,
// so the output is stable across scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.view() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f familyView, s *series) error {
	key := seriesKey(s.labels)
	wrap := func(extra string) string {
		switch {
		case key == "" && extra == "":
			return ""
		case key == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + key + "}"
		}
		return "{" + key + "," + extra + "}"
	}
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, wrap(""), s.ctr.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, wrap(""), formatValue(s.gauge.Value()))
		return err
	case kindHistogram:
		buckets := s.hist.Buckets()
		var cum uint64
		for i, b := range f.bounds {
			cum += buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, wrap(`le="`+formatValue(b)+`"`), cum); err != nil {
				return err
			}
		}
		cum += buckets[len(f.bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, wrap(`le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, wrap(""), formatValue(s.hist.Sum())); err != nil {
			return err
		}
		// _count comes from the bucket counts already read, not a fresh
		// atomic load, so it can never exceed the cumulative +Inf bucket
		// within one scrape.
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, wrap(""), cum)
		return err
	}
	return nil
}

// Metric is one serialized series of a Snapshot: the JSON-safe view
// euasim -stats renders.
type Metric struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"` // "counter" | "gauge" | "histogram"
	Labels []Label `json:"labels,omitempty"`
	Help   string  `json:"help,omitempty"`

	Value float64 `json:"value,omitempty"` // counter (as float) or gauge

	// Histogram fields: non-cumulative bucket counts, the last entry
	// being the +Inf overflow bucket.
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
}

// Quantile estimates the q-quantile of a histogram metric (0 for other
// kinds or empty histograms).
func (m *Metric) Quantile(q float64) float64 {
	if m.Kind != "histogram" {
		return 0
	}
	return bucketQuantile(q, m.Bounds, m.Buckets)
}

// Mean returns the histogram's mean observation (0 when empty).
func (m *Metric) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Snapshot is a point-in-time serialization of a registry, ordered by
// (name, registration order). It is JSON-safe.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	for _, f := range r.view() {
		for _, s := range f.series {
			m := Metric{Name: f.name, Kind: f.kind.String(), Labels: s.labels, Help: f.help}
			switch f.kind {
			case kindCounter:
				m.Value = float64(s.ctr.Value())
			case kindGauge:
				m.Value = s.gauge.Value()
			case kindHistogram:
				m.Bounds = append([]float64(nil), f.bounds...)
				m.Buckets = s.hist.Buckets()
				// Count derives from the bucket counts just read so the
				// snapshot is internally consistent even if observations
				// land mid-capture.
				for _, c := range m.Buckets {
					m.Count += c
				}
				m.Sum = s.hist.Sum()
			}
			snap.Metrics = append(snap.Metrics, m)
		}
	}
	return snap
}

// Find returns the first metric with the given name whose labels include
// every given label, or nil.
func (s *Snapshot) Find(name string, labels ...Label) *Metric {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != name {
			continue
		}
		ok := true
		for _, want := range labels {
			found := false
			for _, l := range m.Labels {
				if l == want {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			return m
		}
	}
	return nil
}
