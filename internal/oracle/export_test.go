package oracle

import (
	"math"

	"github.com/euastar/euastar/internal/cpu"
	"github.com/euastar/euastar/internal/energy"
)

// SweptReleases reports how many distinct releases the YDS call that
// built s swept, and how many releases of its rescanned components the
// carried bounds let it skip, over all rounds.
func SweptReleases(s *Schedule) (swept, skipped int) { return s.swept, s.skipped }

// EnergyDiscretePerJob is EnergyDiscrete without its price memo: each
// job priced on its own, summed in input order.
func EnergyDiscretePerJob(s *Schedule, m energy.Model, ft cpu.FrequencyTable) float64 {
	var total float64
	fm := ft.Max()
	for i, j := range s.Jobs {
		if j.Cycles <= 0 {
			continue
		}
		total += j.Cycles * perCycleTable(m, ft, math.Min(s.Speeds[i], fm))
	}
	return total
}
