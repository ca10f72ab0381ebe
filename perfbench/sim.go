package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/euastar/euastar"
	"github.com/euastar/euastar/internal/experiment"
	"github.com/euastar/euastar/internal/oracle"
	"github.com/euastar/euastar/internal/rng"
	"github.com/euastar/euastar/internal/workload"
)

// inProcess holds the hooks the two in-process workloads leave empty:
// their ops check every output as they go.
type inProcess struct{}

func (inProcess) close() error                             { return nil }
func (inProcess) phase(bool) error                         { return nil }
func (inProcess) between() error                           { return nil }
func (inProcess) syncTime() (time.Duration, bool)          { return 0, false }
func (inProcess) verify() map[int]error                    { return nil }
func (inProcess) layers(runInfo, map[string]float64) error { return nil }

// synthSource is the workload stream of a per-op seed, the one the
// experiment package draws its cells from.
func synthSource(seed uint64) *rng.Source { return rng.New(seed * 0x9e3779b9) }

// checkResolved checks that every released job completed or aborted.
func checkResolved(rep *euastar.Report) error {
	if rep.Completed+rep.Aborted != rep.Released {
		return fmt.Errorf("%d completed + %d aborted != %d released", rep.Completed, rep.Aborted, rep.Released)
	}
	return nil
}

const (
	fig2Load    = 0.6
	fig2Horizon = 0.25
)

// fig2Cell is one cell of the paper's Figure 2 per op: the Table-1 apps
// A1+A2+A3 (18 tasks, step TUFs) at load 0.6 under energy model E1, the
// EDF-fm baseline and the four Figure 2 schemes simulated on the same
// realised workload, each run followed by its metrics report and the
// YDS discrete energy lower bound of the work it executed.
type fig2Cell struct {
	inProcess
	ft      euastar.FrequencyTable
	model   euastar.EnergyModel
	schemes []experiment.Scheme
	seeds   []uint64
	sets    []euastar.TaskSet
}

// fig2Digest holds, per scheme in run order, the utility and energy
// normalised to EDF-fm and the energy over the YDS bound.
type fig2Digest [5][3]float64

func newFig2Cell() (*fig2Cell, error) {
	ft := euastar.PowerNowK6()
	model, err := euastar.EnergyPreset("E1", ft.Max())
	if err != nil {
		return nil, err
	}
	schemes := append([]experiment.Scheme{experiment.BaselineScheme()}, experiment.Figure2Schemes()...)
	if len(schemes) != len(fig2Digest{}) {
		return nil, fmt.Errorf("fig2-cell expects %d schemes, the experiment package has %d", len(fig2Digest{}), len(schemes))
	}
	return &fig2Cell{ft: ft, model: model, schemes: schemes}, nil
}

func (f *fig2Cell) setup(seeds []uint64, _ bool) (time.Duration, error) {
	t0 := time.Now()
	f.seeds = seeds
	f.sets = make([]euastar.TaskSet, len(seeds))
	for k, seed := range seeds {
		src := synthSource(seed)
		var ts euastar.TaskSet
		for _, app := range workload.Table1() {
			set, err := app.Synthesize(src, workload.Options{FirstID: len(ts) + 1})
			if err != nil {
				return 0, err
			}
			ts = append(ts, set...)
		}
		f.sets[k] = ts.ScaleToLoad(fig2Load, f.ft.Max())
	}
	return time.Since(t0), nil
}

func (f *fig2Cell) op(k int, tr *tracer) (time.Duration, any, error) {
	type run struct {
		rep   *euastar.Report
		lower float64
	}
	var runs [len(fig2Digest{})]run
	t0 := time.Now()
	tr.beginOp()
	for i, sc := range f.schemes {
		s := sc.New()
		if tr != nil {
			s = tr.wrap(s, sc.Name == "EUA*")
		}
		sp := tr.begin(kEngine, false, 0)
		res, err := euastar.Simulate(euastar.SimConfig{
			Tasks: f.sets[k], Scheduler: s, Freqs: f.ft, Energy: f.model,
			Horizon: fig2Horizon, Seed: f.seeds[k], AbortAtTermination: sc.Abort,
			Telemetry: tr.registry(),
		})
		tr.end(sp)
		if err != nil {
			tr.discardOp()
			return 0, nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		tr.noteRun(res)
		sp = tr.begin(kAnalyze, false, 0)
		runs[i].rep = euastar.Analyze(res)
		tr.end(sp)
		sp = tr.begin(kOracle, false, 0)
		in := oracle.ExecutedInstance(res.Jobs, res.EndTime)
		bound, err := oracle.YDS(in)
		if err == nil {
			runs[i].lower = bound.EnergyDiscrete(f.model, f.ft)
		}
		tr.end(sp)
		if err != nil {
			tr.discardOp()
			return 0, nil, fmt.Errorf("%s: YDS: %w", sc.Name, err)
		}
		tr.noteOracle(len(in.Jobs))
	}
	var dig fig2Digest
	for i, r := range runs {
		n := euastar.Normalize(r.rep, runs[0].rep)
		dig[i] = [3]float64{n.Utility, n.Energy, r.rep.TotalEnergy / r.lower}
	}
	tr.endOp()
	d := time.Since(t0)

	for i, r := range runs {
		name := f.schemes[i].Name
		if err := checkResolved(r.rep); err != nil {
			return d, nil, fmt.Errorf("%s: %w", name, err)
		}
		// The YDS bound prices exactly the work the run executed, so no
		// schedule can spend less; 1e-9 absorbs summation order.
		if !(r.lower > 0) || r.rep.TotalEnergy < r.lower*(1-1e-9) {
			return d, nil, fmt.Errorf("%s: energy %v below the YDS bound %v", name, r.rep.TotalEnergy, r.lower)
		}
	}
	return d, dig, nil
}

func (*fig2Cell) passesPerWindow() int { return 1 }

func (f *fig2Cell) decodeGolden(raw json.RawMessage) ([]any, error) {
	return decodeDigests[fig2Digest](raw)
}

const (
	part4Cores   = 4
	part4Tasks   = 32
	part4Load    = 5.6 // 1.4 per core: every core overloaded
	part4Horizon = 0.1
)

// part4Overload is one partitioned EUA* run per op: 32 tasks with A2's
// per-task structure packed first-fit onto 4 DVS cores at total load
// 5.6, followed by its metrics report.
type part4Overload struct {
	inProcess
	seeds []uint64
	sets  []euastar.TaskSet
}

// part4Digest is the exact outcome of one run: float bit patterns of the
// accrued utility, the total and the per-core energies, and job counts.
type part4Digest struct {
	Utility   uint64             `json:"utility_bits"`
	Energy    uint64             `json:"energy_bits"`
	PerCore   [part4Cores]uint64 `json:"per_core_energy_bits"`
	Completed int                `json:"completed"`
	Aborted   int                `json:"aborted"`
}

func (p *part4Overload) setup(seeds []uint64, _ bool) (time.Duration, error) {
	t0 := time.Now()
	app := workload.A2()
	app.Name = fmt.Sprintf("bench-%d", part4Tasks)
	app.Tasks = part4Tasks
	fmax := euastar.PowerNowK6().Max()
	p.seeds = seeds
	p.sets = make([]euastar.TaskSet, len(seeds))
	for k, seed := range seeds {
		ts, err := app.Synthesize(synthSource(seed), workload.Options{})
		if err != nil {
			return 0, err
		}
		p.sets[k] = ts.ScaleToLoad(part4Load, fmax)
	}
	return time.Since(t0), nil
}

func (p *part4Overload) op(k int, tr *tracer) (time.Duration, any, error) {
	t0 := time.Now()
	tr.beginOp()
	factory := func() euastar.Scheduler { return euastar.NewEUA() }
	if tr != nil {
		factory = func() euastar.Scheduler { return tr.wrap(euastar.NewEUA(), true) }
	}
	s, err := euastar.NewPartitioned(part4Cores, "ff", factory)
	if err != nil {
		tr.discardOp()
		return 0, nil, err
	}
	if tr != nil {
		s = tr.wrap(s, false)
	}
	sp := tr.begin(kEngine, false, 0)
	res, err := euastar.Simulate(euastar.SimConfig{
		Tasks: p.sets[k], Scheduler: s, Cores: part4Cores,
		Horizon: part4Horizon, Seed: p.seeds[k], AbortAtTermination: true,
		Telemetry: tr.registry(),
	})
	tr.end(sp)
	if err != nil {
		tr.discardOp()
		return 0, nil, err
	}
	tr.noteRun(res)
	sp = tr.begin(kAnalyze, false, 0)
	rep := euastar.Analyze(res)
	tr.end(sp)
	tr.endOp()
	d := time.Since(t0)

	if err := checkResolved(rep); err != nil {
		return d, nil, err
	}
	if res.Migrations != 0 {
		return d, nil, fmt.Errorf("%d migrations under first-fit partitioning", res.Migrations)
	}
	if len(res.PerCore) != part4Cores {
		return d, nil, fmt.Errorf("%d per-core results for %d cores", len(res.PerCore), part4Cores)
	}
	dig := part4Digest{
		Utility:   math.Float64bits(rep.AccruedUtility),
		Energy:    math.Float64bits(res.TotalEnergy),
		Completed: rep.Completed,
		Aborted:   rep.Aborted,
	}
	var sum float64
	for c, pc := range res.PerCore {
		sum += pc.Energy
		dig.PerCore[c] = math.Float64bits(pc.Energy)
	}
	if sum != res.TotalEnergy {
		return d, nil, fmt.Errorf("per-core energies sum to %v, total is %v", sum, res.TotalEnergy)
	}
	return d, dig, nil
}

func (*part4Overload) passesPerWindow() int { return 2 }

func (p *part4Overload) decodeGolden(raw json.RawMessage) ([]any, error) {
	return decodeDigests[part4Digest](raw)
}
