package bench

import (
	"slices"
	"time"
)

// The calibration kernel. The hosts the matrix runs on change speed in
// regimes that last minutes, so two sweeps of the same code minutes
// apart differ by more than the gate's tolerance. A fixed kernel timed
// beside every repetition slows with the host, and no change to the
// program can move it, so ns/event scaled by it holds still.

const (
	calibFloats  = 8192  // values the kernel sorts
	calibKeys    = 4096  // entries of the kernel's map
	calibLookups = 16384 // map reads per kernel run
	// calibRuns is how many kernel runs one timing takes; it keeps the
	// fastest.
	calibRuns = 2
	// calibNominalNs is the kernel time every ns/event is scaled to:
	// about its typical time on the 2-vCPU VM the committed baseline was
	// taken on.
	calibNominalNs = 1.2e6
)

// calibrator holds the kernel's fixed inputs: floats to sort and a hash
// map with the keys to read. The kernel allocates nothing and calls no
// program code.
type calibrator struct {
	base, buf []float64
	keys      []uint64
	m         map[uint64]uint64
	sink      float64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		base: make([]float64, calibFloats),
		buf:  make([]float64, calibFloats),
		keys: make([]uint64, calibLookups),
		m:    make(map[uint64]uint64, calibKeys),
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64: a fixed sequence
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.base {
		c.base[i] = float64(next()>>11) / (1 << 53)
	}
	all := make([]uint64, 0, calibKeys)
	for len(c.m) < calibKeys {
		k := next()
		if _, dup := c.m[k]; !dup {
			c.m[k] = uint64(len(all))
			all = append(all, k)
		}
	}
	for i := range c.keys {
		c.keys[i] = all[next()%calibKeys]
	}
	return c
}

// kernel runs the fixed work once.
func (c *calibrator) kernel() {
	copy(c.buf, c.base)
	slices.Sort(c.buf)
	var s uint64
	for _, k := range c.keys {
		s += c.m[k]
	}
	c.sink += c.buf[calibFloats/2] + float64(s)
}

// time returns the fastest of calibRuns kernel runs, in nanoseconds.
func (c *calibrator) time() float64 {
	best := 0.0
	for r := 0; r < calibRuns; r++ {
		t0 := time.Now()
		c.kernel()
		if d := float64(time.Since(t0).Nanoseconds()); r == 0 || d < best {
			best = d
		}
	}
	return best
}
