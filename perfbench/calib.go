package main

// Every time the benchmark reports is scaled to a reference host. The
// host this benchmark was written on changes speed in regimes that last
// minutes, so runs of the same code minutes apart differ by more than any
// statistic within a run can hide. The calibrations below slow with the
// host, and a program change cannot move them.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

const (
	calibFloats  = 8192  // values the kernel sorts
	calibKeys    = 4096  // entries of the kernel's map
	calibLookups = 16384 // map reads per kernel run
	// calibReps is how many kernel runs one calibration takes.
	calibReps = 32
	// calibNominalMs is the kernel time the reported times are scaled to:
	// about its median on the 2-vCPU VM the benchmark was written on.
	calibNominalMs = 1.2

	diskProbes     = 16   // appends and fsyncs one disk calibration takes
	diskProbeBytes = 1024 // bytes per append: about a journal record
	// diskNominalMs is the append plus fsync time the reported fsync
	// times are scaled to: about its median on that VM's virtio disk.
	diskNominalMs = 0.15
)

// calibrator times a fixed kernel of the benchmark's own, which sorts
// floats and reads a hash map, in the same process as the program. The
// kernel allocates nothing and calls no program code, so a change to the
// program cannot move it; only the host can.
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
	for i := 0; i < calibKeys; i++ {
		c.m[next()] = uint64(i)
	}
	all := make([]uint64, 0, calibKeys)
	for k := range c.m {
		all = append(all, k)
	}
	slices.Sort(all)
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

// measure returns the kernel's times, in ms, over calibReps runs.
func (c *calibrator) measure() []float64 {
	out := make([]float64, calibReps)
	for r := range out {
		t0 := time.Now()
		c.kernel()
		out[r] = time.Since(t0).Seconds() * 1e3
	}
	return out
}

// diskProbe times appends and fsyncs of a scratch file next to the
// daemon's data directories, the way the journal writes a record.
type diskProbe struct {
	f   *os.File
	buf []byte
}

func newDiskProbe(dir string) (*diskProbe, error) {
	f, err := os.OpenFile(filepath.Join(dir, "disk-probe"), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk probe: %w", err)
	}
	return &diskProbe{f: f, buf: make([]byte, diskProbeBytes)}, nil
}

// measure returns the times, in ms, of diskProbes appends, each followed
// by an fsync.
func (d *diskProbe) measure() ([]float64, error) {
	if err := d.f.Truncate(0); err != nil {
		return nil, fmt.Errorf("disk probe: %w", err)
	}
	if _, err := d.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("disk probe: %w", err)
	}
	out := make([]float64, diskProbes)
	for r := range out {
		t0 := time.Now()
		if _, err := d.f.Write(d.buf); err != nil {
			return nil, fmt.Errorf("disk probe: %w", err)
		}
		if err := d.f.Sync(); err != nil {
			return nil, fmt.Errorf("disk probe: %w", err)
		}
		out[r] = time.Since(t0).Seconds() * 1e3
	}
	return out, nil
}

func (d *diskProbe) close() error {
	err := d.f.Close()
	if rerr := os.Remove(d.f.Name()); err == nil {
		err = rerr
	}
	return err
}

// calibration holds the kernel times and, for a workload that keeps
// storage, the disk probe times taken at one point of a run.
type calibration struct{ cpu, disk []float64 }

func (b *bench) calibrate() (calibration, error) {
	c := calibration{cpu: b.cal.measure()}
	if b.disk != nil {
		var err error
		if c.disk, err = b.disk.measure(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// factors returns the factors that scale a time measured between the
// given calibrations to the reference host: cpu for the time spent
// anywhere but in fsync, disk for the time spent in fsync.
func factors(cs ...calibration) (cpu, disk float64) {
	var k, d []float64
	for _, c := range cs {
		k = append(k, c.cpu...)
		d = append(d, c.disk...)
	}
	cpu, disk = calibNominalMs/median(k), 1
	if len(d) > 0 {
		disk = diskNominalMs / median(d)
	}
	return cpu, disk
}

// scaled scales a time total, of which sync was spent in fsync, by the
// CPU and disk factors.
func scaled(total, sync, cpu, disk float64) float64 {
	return (total-sync)*cpu + sync*disk
}
