package solve

// Solver introspection: the per-solve search-effort record behind the
// planning service's GET /v1/explain (DESIGN.md §7).
//
// The paper's central claim is quantitative — pruned branch-and-bound and
// relaxed-event-graph bounds make the NP-hard mapping tractable — and the
// evidence is counters: nodes expanded versus pruned, candidate graphs
// orchestrated, order-search prefixes bounded and pruned. A solve given
// Options.Effort records them all there. Counting never changes which
// graphs are searched, what Solution is returned, or any cache key.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/orchestrate"
)

// Effort is the search-effort record of one solve — what /v1/explain
// reports and the persistent plan store keeps alongside a Solution, so a
// warm-restarted service explains a stored plan with the counters of the
// solve that produced it. MinPeriod and MinLatency fill it when
// Options.Effort points at one, on every return (a failed or canceled
// search included); BiCriteria and Reevaluate record nothing. All fields
// are observational; two solves of the same request produce the same
// counters when run with Workers: 1 (the planning service pins exactly
// that).
type Effort struct {
	// Method and Family are the resolved search strategy (Auto already
	// dispatched; Family resolved for BranchBound, as requested otherwise).
	Method Method
	Family Family
	// Search is the branch-and-bound counter set (zero for other methods).
	Search Stats
	// Orch aggregates the orchestration-search counters across every
	// candidate evaluation of the solve.
	Orch orchestrate.Stats
	// Evals counts candidate orchestrations.
	Evals int64
	// MemoHits is never written and reads 0: solves no longer memoize
	// orchestrations. It stays declared only because the benchmark module
	// reads it; ROADMAP item 1a removes it.
	MemoHits int64
	// QueueNanos is the wait for a solver slot, the one field the caller
	// sets (the solve keeps it); SolveNanos the solver wall time, OrchNanos
	// the orchestration share of it. (Store-write time is deliberately
	// absent: it happens after the solve, so a persisted Effort replays
	// identically on warm restart.)
	QueueNanos int64
	SolveNanos int64
	OrchNanos  int64
}

// tally is the accumulator behind one solve's Effort: every candidate
// scoring, materialisation and branch-and-bound run of the solve adds to
// it. Safe for concurrent use — the parallel searches score candidates
// from many goroutines.
type tally struct {
	evals, orchNanos atomic.Int64

	mu     sync.Mutex
	orch   orchestrate.Stats
	search Stats
}

// scored counts one candidate scoring: its orchestration-search counters
// and its wall time.
func (t *tally) scored(st orchestrate.Stats, d time.Duration) {
	t.evals.Add(1)
	t.orchNanos.Add(int64(d))
	t.mu.Lock()
	t.orch.Prefixes += st.Prefixes
	t.orch.Pruned += st.Pruned
	t.orch.Evaluated += st.Evaluated
	t.orch.CutOffs += st.CutOffs
	t.mu.Unlock()
}

// searched adds one branch-and-bound run's counters.
func (t *tally) searched(st Stats) {
	t.mu.Lock()
	t.search.Expanded += st.Expanded
	t.search.Pruned += st.Pruned
	t.search.Evaluated += st.Evaluated
	t.mu.Unlock()
}

// record writes the tally into e; the caller's QueueNanos stays.
func (t *tally) record(e *Effort, method Method, family Family, solve time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.Method, e.Family, e.Search, e.Orch = method, family, t.search, t.orch
	e.Evals = t.evals.Load()
	e.SolveNanos, e.OrchNanos = int64(solve), t.orchNanos.Load()
}
