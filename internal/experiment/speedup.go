package experiment

import (
	"fmt"
	"sort"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/metrics"
	"github.com/euastar/euastar/internal/workload"
)

// SpeedupRow is one load point of the multiprocessor speedup sweep: per
// core count m, partitioned EUA*'s accrued utility and consumed energy
// relative to uniprocessor EUA* on the identical realized workload. A
// utility ratio above 1 is the multiprocessor unlock — overloaded work a
// single core had to shed accruing on the extra cores; the energy ratio
// shows what the extra cores drew for it.
type SpeedupRow struct {
	Load    float64
	Utility map[int]float64
	Energy  map[int]float64
}

// speedupUnit is one (load, cores, seed) cell. Exported fields: units
// are checkpointed as JSON.
type speedupUnit struct {
	Utility float64 `json:"utility"`
	Energy  float64 `json:"energy"`
}

// speedupCell builds the (load, cores, seed) cell function: one
// uniprocessor EUA* reference run and one m-core partitioned run on the
// identical workload, reduced to the utility and energy ratios.
func speedupCell(cfg Config, coreCounts []int, g unitGrid) func(i int, interrupt <-chan struct{}) (speedupUnit, error) {
	scheme := mustScheme("EUA*")
	return func(i int, interrupt <-chan struct{}) (speedupUnit, error) {
		var u speedupUnit
		c := g.coords(i)
		load, m, seed := cfg.Loads[c[0]], coreCounts[c[1]], cfg.Seeds[c[2]]
		ts, err := synthesize(cfg, seed, workload.Step, 1)
		if err != nil {
			return u, err
		}
		// The workload is fixed across core counts: scaled to the given
		// load of ONE core at f_max, so m cores see 1/m of their combined
		// capacity and the speedup is attributable to the cores alone.
		ts = ts.ScaleToLoad(load, cpu.PowerNowK6().Max())
		baseCfg := cfg
		baseCfg.Cores = 0
		baseRep, err := runOne(baseCfg, scheme, ts, seed, runOptions{interrupt: interrupt})
		if err != nil {
			return u, &schemeError{scheme.Name + "/1", err}
		}
		multiCfg := cfg
		multiCfg.Cores = m
		if m <= 1 {
			multiCfg.Cores = 0
		}
		rep, err := runOne(multiCfg, scheme, ts, seed, runOptions{interrupt: interrupt})
		if err != nil {
			return u, &schemeError{fmt.Sprintf("%s/%d", scheme.Name, m), err}
		}
		n := metrics.Normalize(rep, baseRep)
		return speedupUnit{Utility: n.Utility, Energy: n.Energy}, nil
	}
}

// Speedup sweeps accrued utility and energy against the core count:
// partitioned EUA* (Config.Partition policy, first-fit by default) on
// the Figure 2 workload, each core count normalized to the uniprocessor
// EUA* run of the identical cell. coreCounts defaults to {1, 2, 4}.
func Speedup(cfg Config, coreCounts []int) ([]SpeedupRow, error) {
	return speedup(cfg, coreCounts).rows()
}

func speedup(cfg Config, coreCounts []int) *sweep[speedupUnit, SpeedupRow] {
	cfg = cfg.withDefaults()
	if len(coreCounts) == 0 {
		coreCounts = []int{1, 2, 4}
	}
	if cfg.Partition == "" {
		cfg.Partition = "ff"
	}
	g := grid(len(cfg.Loads), len(coreCounts), len(cfg.Seeds))
	return &sweep[speedupUnit, SpeedupRow]{
		name:   "speedup",
		cfg:    cfg,
		params: fmt.Sprintf("cores=%v partition=%s", coreCounts, cfg.Partition),
		g:      g,
		coords: func(c []int) Coords {
			return Coords{Load: cfg.Loads[c[0]], Seed: cfg.Seeds[c[2]], Extra: fmt.Sprintf("m=%d", coreCounts[c[1]])}
		},
		cell: speedupCell(cfg, coreCounts, g),
		merge: func(units []speedupUnit, done []bool) []SpeedupRow {
			rows := make([]SpeedupRow, 0, len(cfg.Loads))
			for li, load := range cfg.Loads {
				row := SpeedupRow{
					Load:    load,
					Utility: make(map[int]float64, len(coreCounts)),
					Energy:  make(map[int]float64, len(coreCounts)),
				}
				for mi, m := range coreCounts {
					n := 0
					for si := range cfg.Seeds {
						idx := (li*len(coreCounts)+mi)*len(cfg.Seeds) + si
						if !done[idx] {
							continue
						}
						row.Utility[m] += units[idx].Utility
						row.Energy[m] += units[idx].Energy
						n++
					}
					if n > 0 {
						row.Utility[m] /= float64(n)
						row.Energy[m] /= float64(n)
					}
				}
				rows = append(rows, row)
			}
			return rows
		},
		write: WriteSpeedup,
		doc:   func(d *JSONDocument, rows []SpeedupRow) { d.Speedup = rows },
	}
}

// CoreCounts returns the sorted core counts present in rows.
func CoreCounts(rows []SpeedupRow) []int {
	set := map[int]bool{}
	for _, r := range rows {
		for m := range r.Utility {
			set[m] = true
		}
	}
	ms := make([]int, 0, len(set))
	for m := range set {
		ms = append(ms, m)
	}
	sort.Ints(ms)
	return ms
}
