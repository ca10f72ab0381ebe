package oracle

import (
	"math"
	"sort"
)

// YDSReference exposes the differential oracle to the external test
// package, whose suites run simulations (package experiment imports
// this one).
var YDSReference = ydsReference

// ydsReference is the plain critical-interval peel YDS replaced: every
// round re-sorts the active jobs and scans every release × deadline
// pair of the whole instance. It is kept verbatim as the differential
// oracle — YDS must reproduce its Speeds bit for bit and its Rounds
// exactly on every input (TestYDSMatchesReference, FuzzOracle).
func ydsReference(in Instance) (*Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{
		Jobs:   append([]Job(nil), in.Jobs...),
		Speeds: make([]float64, len(in.Jobs)),
	}

	type item struct {
		idx     int
		rel, dl float64
		w       float64
	}
	active := make([]*item, 0, len(in.Jobs))
	for i, j := range in.Jobs {
		if j.Cycles > 0 {
			active = append(active, &item{idx: i, rel: j.Release, dl: j.Deadline, w: j.Cycles})
		}
	}

	for len(active) > 0 {
		s.Rounds++

		// Candidate left endpoints: the distinct releases. For each,
		// sweep the deadlines in ascending order, accumulating the work
		// of contained jobs; every prefix is a candidate interval.
		rels := make([]float64, 0, len(active))
		for _, it := range active {
			rels = append(rels, it.rel)
		}
		sort.Float64s(rels)
		rels = dedup(rels)
		byDeadline := append([]*item(nil), active...)
		sort.Slice(byDeadline, func(a, b int) bool {
			if byDeadline[a].dl != byDeadline[b].dl {
				return byDeadline[a].dl < byDeadline[b].dl
			}
			return byDeadline[a].idx < byDeadline[b].idx
		})

		bestG, bestT1, bestT2 := math.Inf(-1), 0.0, 0.0
		for _, t1 := range rels {
			w := 0.0
			for _, it := range byDeadline {
				if it.rel < t1 || it.dl <= t1 {
					continue
				}
				w += it.w
				g := w / (it.dl - t1)
				// Deterministic tie-break: higher intensity, then
				// earlier start, then earlier end.
				if g > bestG ||
					(g == bestG && (t1 < bestT1 || (t1 == bestT1 && it.dl < bestT2))) {
					bestG, bestT1, bestT2 = g, t1, it.dl
				}
			}
		}

		// Peel: assign the intensity to the contained jobs and collapse
		// [t1, t2] out of the remaining windows (endpoints inside the
		// interval snap to t1; endpoints past it shift left by its
		// length).
		length := bestT2 - bestT1
		collapse := func(t float64) float64 {
			switch {
			case t <= bestT1:
				return t
			case t >= bestT2:
				return t - length
			default:
				return bestT1
			}
		}
		rest := active[:0]
		for _, it := range active {
			if it.rel >= bestT1 && it.dl <= bestT2 {
				s.Speeds[it.idx] = bestG
				continue
			}
			it.rel = collapse(it.rel)
			it.dl = collapse(it.dl)
			rest = append(rest, it)
		}
		active = rest
	}
	return s, nil
}

func dedup(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
