package experiment

// The parallel experiment runner. Every sweep in this package decomposes
// into independent simulation units — one (load, seed) cell of Figure 2,
// one (load, bound, seed) cell of Figure 3, and so on. Each unit depends
// only on its own coordinates: the workload is synthesized from the seed,
// the engine derives all stochastic inputs from the seed, and nothing in
// a unit reads or writes state shared with another unit. forEach fans the
// units out across a bounded goroutine pool; each unit writes only into
// its own pre-allocated result slot, and the caller then merges the slots
// in the same deterministic order the sequential loop used. Results are
// therefore bit-identical for every worker count, including 1.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// resolveWorkers maps a requested worker count to the effective pool size
// for n units: non-positive requests select runtime.GOMAXPROCS(0), and
// the pool never exceeds the number of units.
func resolveWorkers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach runs fn(i) for every i in [0, n) on a pool of the given number
// of worker goroutines and blocks until all started calls return. The
// first error cancels the dispatch of not-yet-started units
// (first-error-wins) and is returned; units already executing run to
// completion. workers <= 1 degenerates to the plain sequential loop.
func forEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	// The first cause wins; later cancels change nothing.
	ctx, fail := context.WithCancelCause(context.Background())
	defer fail(nil)
	var wg sync.WaitGroup
	indices := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("experiment: worker panic: %v", r))
					// Keep draining so the feeder never blocks forever.
					for range indices {
					}
				}
			}()
			for i := range indices {
				if ctx.Err() != nil {
					continue // cancelled: drain without running
				}
				if err := fn(i); err != nil {
					fail(err)
				}
			}
		}()
	}
	// Stop feeding as soon as any unit fails; workers drain whatever was
	// already queued without running it.
feed:
	for i := 0; i < n; i++ {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	wg.Wait()
	return context.Cause(ctx)
}

// unitGrid enumerates the cartesian product of sweep dimensions in the
// fixed (row-major) order the sequential loops iterate, so parallel
// results can be merged back in exactly that order.
type unitGrid struct {
	dims []int
}

// grid returns a unitGrid over the given dimension sizes.
func grid(dims ...int) unitGrid { return unitGrid{dims: dims} }

// size returns the total number of units.
func (g unitGrid) size() int {
	n := 1
	for _, d := range g.dims {
		n *= d
	}
	return n
}

// coords returns the per-dimension coordinates of flat unit index i.
func (g unitGrid) coords(i int) []int {
	c := make([]int, len(g.dims))
	for d := len(g.dims) - 1; d >= 0; d-- {
		c[d] = i % g.dims[d]
		i /= g.dims[d]
	}
	return c
}
