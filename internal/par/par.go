// Package par provides the shared parallel-execution primitives the
// engine, ingestion, metrics and analysis layers are built on: a
// bounded worker pool over contiguous shards and an errgroup-style
// Group.
//
// Determinism contract: every fan-out helper assigns work to shards as
// contiguous index ranges (Split) and every merge helper visits shards
// in ascending shard order, so a seeded computation produces identical
// results for any worker count, including 1. Callers that accumulate
// floating-point values must merge per-item (not per-shard partial
// sums) to keep results bit-identical across worker counts.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values <= 0 mean
// GOMAXPROCS. The result is always >= 1.
func Workers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Range is a half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Split partitions [0, n) into at most w contiguous, balanced, non-empty
// ranges. It returns nil when n == 0. The split depends only on n and w,
// never on scheduling, so shard boundaries are deterministic.
func Split(n, w int) []Range {
	if n <= 0 {
		return nil
	}
	w = Workers(w)
	if w > n {
		w = n
	}
	out := make([]Range, 0, w)
	size, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// ForEachShard runs fn(shard, lo, hi) for each range of Split(n, w),
// one goroutine per shard, and waits for all of them. fn receives its
// shard index so it can write into preallocated per-shard slots without
// locking. Shards are contiguous: shard i covers indices before shard
// i+1.
func ForEachShard(n, w int, fn func(shard, lo, hi int)) {
	ranges := Split(n, w)
	if len(ranges) == 0 {
		return
	}
	if len(ranges) == 1 {
		fn(0, ranges[0].Lo, ranges[0].Hi)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(ranges))
	for i, r := range ranges {
		go func(shard int, r Range) {
			defer wg.Done()
			fn(shard, r.Lo, r.Hi)
		}(i, r)
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) across w workers, each
// worker owning one contiguous chunk.
func ForEach(n, w int, fn func(i int)) {
	ForEachShard(n, w, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Map computes fn(i) for every i in [0, n) across w workers and returns
// the results indexed by i. Output order is deterministic regardless of
// scheduling.
func Map[T any](n, w int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	ForEach(n, w, func(i int) { out[i] = fn(i) })
	return out
}

// Group runs a set of tasks concurrently, collecting the first error;
// a drop-in for x/sync/errgroup without the external dependency.
// The zero value is ready to use and places no limit on concurrency.
type Group struct {
	wg   sync.WaitGroup
	sem  chan struct{}
	once sync.Once
	err  error
}

// SetLimit bounds the number of concurrently running tasks. It must be
// called before the first Go.
func (g *Group) SetLimit(n int) {
	if n > 0 {
		g.sem = make(chan struct{}, n)
	}
}

// Go runs fn in a new goroutine (subject to the limit). A non-nil error
// is retained; the first one wins.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	if g.sem != nil {
		g.sem <- struct{}{}
	}
	go func() {
		defer func() {
			if g.sem != nil {
				<-g.sem
			}
			g.wg.Done()
		}()
		if err := fn(); err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

// Wait blocks until every task launched with Go has returned, then
// reports the first error.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}
