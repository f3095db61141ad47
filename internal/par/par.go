// Package par is the shared parallel-search layer of the repository: a
// bounded worker pool plus deterministic best-result reduction, used by the
// exact searches and hill-climbing restarts of package solve, by the
// order-search sharding of package orchestrate, and by the experiment
// harness.
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
// planning service's intake queue — runs everything beneath it serially.
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

// Candidate is one shard's best result in a Best reduction.
type Candidate[T any] struct {
	// Value is the shard's winner; meaningful only when OK is true.
	Value T
	// OK is false when the shard produced no feasible candidate.
	OK bool
}

// Best reduces per-shard candidates to the overall winner with canonical
// tie-breaking: candidates are scanned in shard-index order and the current
// winner is replaced only on strict improvement (less returns true). This
// reproduces exactly what a serial scan of the concatenated shards keeps,
// so parallel and serial searches agree even when distinct shards tie on
// the objective. The boolean result is false when no shard had a candidate.
func Best[T any](cands []Candidate[T], less func(a, b T) bool) (T, bool) {
	var best T
	found := false
	for _, c := range cands {
		if !c.OK {
			continue
		}
		if !found || less(c.Value, best) {
			best = c.Value
			found = true
		}
	}
	return best, found
}

// MapBest shards a search into n independent pieces, evaluates them on the
// pool and returns the deterministic winner: shard(i) computes the i-th
// shard's local best (returning OK=false for infeasible shards) and less
// orders candidates. It is the one-call form of Map followed by Best.
func MapBest[T any](workers, n int, shard func(i int) Candidate[T], less func(a, b T) bool) (T, bool) {
	return Best(Map(workers, n, shard), less)
}
