package experiment

// The experiment registry. Every experiment euasim can run is declared
// once: a builder binds it to the configuration it actually runs and
// declares its grid, fingerprint parameters, cell coordinates, cell
// function, ordered merge and writers. euasim's -exp dispatch, the sweeps
// euasim -remote and euad accept, euad's sweep runner and the cluster's
// cell plans (PlanCells) all derive from the registry, so a sweep added
// here is served by the daemon and sharded by the cluster with no
// further code.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// runner is one experiment bound to the configuration it runs; the
// Experiment methods document what each method returns.
type runner interface {
	describe() string
	run(text, chart io.Writer) (*JSONDocument, error)
	plan() *CellPlan // nil for experiments without cells
	json() bool
}

// Experiment is one registered experiment.
type Experiment struct {
	Name  string
	build func(Config) runner
}

// registry lists every experiment in `euasim -exp all` order.
var registry = []Experiment{
	{"table1", func(cfg Config) runner { return table{cfg, WriteTable1} }},
	{"table2", func(cfg Config) runner { return table{cfg, WriteTable2} }},
	{"fig2", func(cfg Config) runner { return figure2(cfg) }},
	{"fig3", func(cfg Config) runner { return figure3(cfg) }},
	{"assurance", func(cfg Config) runner { return assurance(cfg) }},
	{"ablation", func(cfg Config) runner { return ablation(cfg) }},
	{"budget", func(cfg Config) runner { return budget(cfg, nil) }},
	{"latency", func(cfg Config) runner { return switchLatency(cfg, nil) }},
	{"ladder", func(cfg Config) runner { return ladder(cfg, nil) }},
	{"contention", func(cfg Config) runner { return contention(cfg, nil) }},
	{"faults", func(cfg Config) runner { return faultSweep(cfg, nil) }},
	{"threshold", func(cfg Config) runner { return threshold(cfg) }},
	{"gaps", func(cfg Config) runner { return gaps(cfg) }},
	{"speedup", func(cfg Config) runner { return speedup(cfg, nil) }},
}

// Experiments returns every registered experiment in `euasim -exp all`
// order.
func Experiments() []Experiment { return append([]Experiment(nil), registry...) }

// Lookup returns the registered experiment called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Sweep reports whether e is a sweep of cells, which euad can serve and
// the cluster can shard. Every experiment but the two tables is.
func (e Experiment) Sweep() bool { return e.build(Config{}).plan() != nil }

// JSON reports whether Run returns a -json document for e.
func (e Experiment) JSON() bool { return e.build(Config{}).json() }

// Describe returns the configuration e runs under cfg, as the
// `== name (…) ==` header and the -json config print it. It can differ
// from Describe(cfg): fig3 and gaps run their own workloads, gaps caps
// the horizon, and faults arms the safe mode.
func (e Experiment) Describe(cfg Config) string { return e.build(cfg).describe() }

// Run runs e under cfg. It writes e's table to text and, when chart is
// non-nil, e's ASCII charts (fig2, fig3) to chart. It returns the -json
// document, or nil when e writes none (the tables, budget, latency,
// ladder, contention, faults). A sweep with failed cells returns its
// *SweepError after writing the rows of the cells that completed. A
// failed write of the table or charts is returned joined with that
// error, and the -json document is still returned.
func (e Experiment) Run(cfg Config, text, chart io.Writer) (*JSONDocument, error) {
	return e.build(cfg).run(text, chart)
}

// PlanCells builds the cell plan of the named sweep under cfg. The
// plan's grid order, fingerprint and cell function are those of the
// sweep's local run, so cells computed remotely and stored merge
// bit-identically to a local run.
func PlanCells(cfg Config, exp string) (*CellPlan, error) {
	if e, ok := Lookup(exp); ok {
		if p := e.build(cfg).plan(); p != nil {
			return p, nil
		}
	}
	return nil, fmt.Errorf("experiment: no cell plan for experiment %q", exp)
}

// table is an experiment without cells: one of the paper's settings
// tables.
type table struct {
	cfg   Config
	write func(io.Writer) error
}

func (t table) describe() string                             { return Describe(t.cfg) }
func (t table) run(text, _ io.Writer) (*JSONDocument, error) { return nil, t.write(text) }
func (t table) plan() *CellPlan                              { return nil }
func (t table) json() bool                                   { return false }

// sweep declares one sweep: the configuration it runs (defaults and any
// per-sweep normalization applied), its grid and fingerprint
// parameters, how to address, compute and merge its cells, and how to
// render the merged rows. chart and doc are optional.
type sweep[U, R any] struct {
	name   string
	cfg    Config
	params string
	g      unitGrid
	coords func(c []int) Coords
	cell   func(i int, interrupt <-chan struct{}) (U, error)
	merge  func(units []U, done []bool) []R
	write  func(w io.Writer, rows []R) error
	chart  func(w io.Writer, rows []R) error
	doc    func(d *JSONDocument, rows []R)
}

// rows runs every cell not already in cfg.Store and merges the units in
// grid order. Rows of completed cells come back alongside a *SweepError.
func (s *sweep[U, R]) rows() ([]R, error) {
	units, done, err := runCells(s.cfg, s.name, s.params, s.g, s.coords, s.cell)
	if units == nil {
		return nil, err
	}
	return s.merge(units, done), err
}

func (s *sweep[U, R]) describe() string { return Describe(s.cfg) }

func (s *sweep[U, R]) run(text, chart io.Writer) (*JSONDocument, error) {
	rows, err := s.rows()
	if rows == nil {
		return nil, err
	}
	werr := s.write(text, rows)
	if werr == nil && chart != nil && s.chart != nil {
		werr = s.chart(chart, rows)
	}
	if werr != nil {
		err = errors.Join(err, werr)
	}
	if s.doc == nil {
		return nil, err
	}
	d := &JSONDocument{Experiment: s.name, Config: s.describe()}
	s.doc(d, rows)
	return d, err
}

// plan's cells return the raw JSON unit a checkpoint stores.
// json.Marshal/Unmarshal round-trips float64 exactly (shortest round-trip
// representation), so a unit that travels through a store or across the
// network merges bit-identically to one computed in process.
func (s *sweep[U, R]) plan() *CellPlan {
	return &CellPlan{
		experiment:  s.name,
		fingerprint: fingerprint(s.cfg, s.name, s.params, s.g),
		g:           s.g,
		coords:      s.coords,
		run: func(i int, interrupt <-chan struct{}) (json.RawMessage, error) {
			u, err := s.cell(i, interrupt)
			if err != nil {
				return nil, err
			}
			return json.Marshal(u)
		},
	}
}

func (s *sweep[U, R]) json() bool { return s.doc != nil }

// axis is the one parameter axis of a fixed-load sweep: its points, and
// the names they carry in the fingerprint parameters (param, e.g.
// "fracs") and in cell coordinates (coord, e.g. "frac").
type axis[X any] struct {
	load         float64
	param, coord string
	points       []X
}

// seedMeans declares a sweep over the points of one axis × cfg.Seeds at
// the axis's fixed load. Each cell reduces to the float fields fields
// returns; each row averages them over the point's completed seeds, summed
// in seed order, and row builds the typed row from the means (nil when no
// seed of the point completed).
func seedMeans[X, U, R any](name string, cfg Config, a axis[X],
	cell func(x X, seed uint64, interrupt <-chan struct{}) (U, error),
	fields func(U) []float64, row func(x X, mean []float64) R,
	write func(io.Writer, []R) error) *sweep[U, R] {
	g := grid(len(a.points), len(cfg.Seeds))
	return &sweep[U, R]{
		name:   name,
		cfg:    cfg,
		params: fmt.Sprintf("%s=%v", a.param, a.points),
		g:      g,
		coords: func(c []int) Coords {
			return Coords{Load: a.load, Seed: cfg.Seeds[c[1]], Extra: fmt.Sprintf("%s=%v", a.coord, a.points[c[0]])}
		},
		cell: func(i int, interrupt <-chan struct{}) (U, error) {
			c := g.coords(i)
			return cell(a.points[c[0]], cfg.Seeds[c[1]], interrupt)
		},
		merge: func(units []U, done []bool) []R {
			rows := make([]R, 0, len(a.points))
			for xi, x := range a.points {
				var sum []float64
				n := 0
				for si := range cfg.Seeds {
					idx := xi*len(cfg.Seeds) + si
					if !done[idx] {
						continue
					}
					v := fields(units[idx])
					if sum == nil {
						sum = make([]float64, len(v))
					}
					for k := range v {
						sum[k] += v[k]
					}
					n++
				}
				for k := range sum {
					sum[k] /= float64(n)
				}
				rows = append(rows, row(x, sum))
			}
			return rows
		},
		write: write,
	}
}
