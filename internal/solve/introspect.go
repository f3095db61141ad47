package solve

// Solver introspection: the per-solve search-effort record behind the
// planning service's GET /v1/explain (DESIGN.md §7).
//
// The paper's central claim is quantitative — pruned branch-and-bound and
// relaxed-event-graph bounds make the NP-hard mapping tractable — and the
// evidence is counters: nodes expanded versus pruned, candidate graphs
// orchestrated, memo hits, order-search prefixes bounded and pruned.
// The solvers already produce all of them; this file is the plumbing that
// keeps them attached to the solve that produced them instead of being
// dropped on the service floor. Everything here is observational: a probe
// never changes which graphs are searched, what Solution is returned, or
// any cache/memo key.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/workflow"
)

// EvalProbe observes every candidate orchestration of one solve: how many
// graphs were scored, how many were served by the orchestration memo, the
// orchestration wall time, and the aggregated orchestration-search
// counters (order-search prefixes, pruned, evaluated and cut-offs). Safe for
// concurrent use — the parallel searches score candidates from many
// goroutines.
type EvalProbe struct {
	evals     atomic.Int64
	memoHits  atomic.Int64
	orchNanos atomic.Int64

	mu   sync.Mutex
	orch orchestrate.Stats
}

// evaluate is the probe-instrumented scoring of the package evaluate
// chokepoint: same memo discipline, same Score, plus accounting
// (materialising the winner adds only to the orchestration time). The
// orchestration counters are collected into a probe-local Stats per call
// (the orchestrate layer overwrites rather than accumulates its Stats
// target) and merged, so concurrent evaluations never share a Stats
// pointer.
func (p *EvalProbe) evaluate(w *plan.Weighted, m plan.Model, obj Objective, opts Options, limit orchestrate.Limit) (orchestrate.Score, error) {
	var st orchestrate.Stats
	o := opts.Orch
	o.Stats = &st // excluded from the memo key, so hit behavior is unchanged
	start := time.Now()
	var (
		res orchestrate.Score
		hit bool
		err error
	)
	if obj == PeriodObjective {
		res, hit, err = orchestrate.ScorePeriod(opts.memo, w, m, o, limit)
	} else {
		res, hit, err = orchestrate.ScoreLatency(opts.memo, w, m, o, limit)
	}
	d := time.Since(start)
	p.evals.Add(1)
	if hit {
		p.memoHits.Add(1)
	}
	p.orchNanos.Add(int64(d))
	// A memo hit leaves st zero — correct: no orchestration work was done.
	p.mu.Lock()
	p.orch.Prefixes += st.Prefixes
	p.orch.Pruned += st.Pruned
	p.orch.Evaluated += st.Evaluated
	p.orch.CutOffs += st.CutOffs
	p.mu.Unlock()
	return res, err
}

// Evals returns the number of candidate orchestrations observed.
func (p *EvalProbe) Evals() int64 { return p.evals.Load() }

// MemoHits returns how many of them the orchestration memo served.
func (p *EvalProbe) MemoHits() int64 { return p.memoHits.Load() }

// OrchNanos returns the summed orchestration wall time in nanoseconds.
func (p *EvalProbe) OrchNanos() int64 { return p.orchNanos.Load() }

// Orch returns the aggregated orchestration-search counters.
func (p *EvalProbe) Orch() orchestrate.Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.orch
}

// Effort is the search-effort record of one solve — what /v1/explain
// reports and the persistent plan store keeps alongside a Solution, so a
// warm-restarted service explains a stored plan with the counters of the
// solve that produced it. All fields are observational; two solves of the
// same request produce the same counters when run with Workers: 1 (the
// planning service pins exactly that).
type Effort struct {
	// Method and Family are the resolved search strategy (Auto already
	// dispatched).
	Method Method
	Family Family
	// Search is the branch-and-bound counter set (zero for other methods).
	Search Stats
	// Orch aggregates the orchestration-search counters across every
	// candidate evaluation of the solve.
	Orch orchestrate.Stats
	// Evals counts candidate orchestrations; MemoHits how many of them the
	// orchestration memo served without recomputing.
	Evals    int64
	MemoHits int64
	// QueueNanos is the wait for a solver slot, SolveNanos the solver wall
	// time, OrchNanos the orchestration share of it. (Store-write time is
	// deliberately absent: it happens after the solve, so a persisted
	// Effort replays identically on warm restart.)
	QueueNanos int64
	SolveNanos int64
	OrchNanos  int64
}

// ResolveMethod resolves Auto to the method minimize would dispatch for
// this application and objective under the given options; non-auto
// methods pass through. The planning service uses it to report the method
// actually searched rather than the literal "auto" the request carried.
func ResolveMethod(app *workflow.App, obj Objective, opts Options) Method {
	opts = opts.withDefaults()
	if opts.Method != Auto {
		return opts.Method
	}
	return autoMethod(app, obj, opts)
}
