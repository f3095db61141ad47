// Package par is the shared parallel-search layer of the repository: a
// bounded worker pool, used by the exact search and hill-climbing restarts
// of package solve, by the experiment harness and by the cluster router's
// batch fan-out (package cluster: each item of a POST /v1/batch forwarded
// to its owner, the answers kept in item order). Reductions live with
// their searches (package solve's reduce folds its shards' winners), under
// the contract below.
//
// Every optimization problem of the paper is NP-hard (Theorems 2 and 4), so
// the hot paths of this repository are exhaustive enumerations and
// randomized restarts — embarrassingly parallel workloads. The contract of
// this package is strict determinism: a search sharded over N workers
// returns bit-identical results to the same search on 1 worker, because
//
//   - shards are fixed, data-independent partitions of the search space
//     (never work stealing on candidate granularity), each evaluated with
//     its own state (scratch buffers, seeded RNGs);
//   - per-shard results are reduced in shard-index order with
//     strict-improvement comparison, so the winner is the one a serial scan
//     of the shards would keep, regardless of goroutine interleaving;
//   - shard partitions never change the reduced result: shards are
//     contiguous ranges of the serial scan order, so any partition reduces
//     to the same winner the unsharded serial scan would keep.
//
// Exactly one layer fans out at a time (one pool, never nested): whoever
// owns the top level — the experiment harness, a plan-level search or the
// planning service, which runs at most Workers solves at once on their
// requests' goroutines — runs everything beneath it serially.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: n > 0 is taken as given, n <= 0
// (the zero value of option structs) means runtime.NumCPU().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Run executes job(0) .. job(n-1) on at most workers goroutines (resolved
// by Workers) and returns when all jobs finished. Jobs are handed out by an
// atomic counter, so the assignment of jobs to goroutines is nondeterministic
// — jobs must not share mutable state. With workers <= 1 (after resolution)
// the jobs run serially on the calling goroutine, in index order.
func Run(workers, n int, job func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn(0) .. fn(n-1) through Run and returns the results in index
// order. The result order — and, given pure fn, the result values — are
// identical for every worker count.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	Run(workers, n, func(i int) { out[i] = fn(i) })
	return out
}
