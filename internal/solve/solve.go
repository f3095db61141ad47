// Package solve implements the paper's plan-level optimization problems:
// MINPERIOD and MINLATENCY — find an execution graph together with an
// operation list minimizing the period or the latency under one of the
// three communication models (§4.2 and §5.2).
//
// Both problems are NP-hard for every model (Theorems 2 and 4), so the
// package provides:
//
//   - the polynomial special cases proved in the paper: greedy chain
//     construction for MINPERIOD (Prop. 8) and MINLATENCY (Prop. 16)
//     restricted to linear-chain plans — the optimum among chains, so no
//     search over chains exists;
//   - one exact search, branch-and-bound (bnb.go), over forests (which
//     Prop. 4 shows sufficient for MINPERIOD without precedence
//     constraints) and general DAGs, for small instances: it builds a
//     family's graphs incrementally in a fixed order and prunes partial
//     graphs by admissible lower bounds, so it returns the Solution a
//     blind enumeration of the family returns — and that enumeration
//     lives in the test suite, as the serial oracle the search is checked
//     against (oracle_test.go). The DAG search walks only the transitively
//     reduced DAGs: an edge another path implies changes no data volume,
//     and the fixed order puts every DAG after its reduction, so the
//     family's first best graph is reduced wherever dropping such an edge
//     never raises the score (reduced_test.go);
//   - hill-climbing heuristics over forests and DAGs for everything else,
//     with incremental re-evaluation: each move recomputes only the touched
//     subtree's volumes and orchestrates only when the resulting lower
//     bound still allows an improvement (incremental.go).
//
// # Value-first search
//
// A search only compares objective values, so every method scores its
// candidate graphs (orchestrate.ScorePeriod / ScoreLatency: the full
// schedule search, but no operation list), its shards keep scores, and the
// reduction materialises — rebuilds the list, runs the Appendix-A
// validator, labels the bottleneck — the one winner. Materialise is total
// on a Score the scoring produced, so the returned Solution is the one an
// orchestrate-everything search returns (minimize.go; pinned by
// valuefirst_test.go), and a failure on the winner is an internal error,
// returned, never skipped. Each candidate is scored under the value it
// must reach to be kept — a climb's current value, a branch-and-bound
// leaf's shard best and shared incumbent — and a scoring that proves every
// schedule above it ends in a cut-off the search rejects (orchestrate.Limit).
// A graph a search reaches twice is scored twice: no cache sits between a
// search and the scoring, so the Solution and, at Workers 1, every counter
// its Effort records depend on the call alone.
//
// # Period floor
//
// No plan of an instance has a period below its period floor (periodFloor,
// bound.go): in a topological order the service at position k has at most
// k ancestors, so its input product is at least the product of the k
// smallest shrink factors among the others, and the best assignment of
// services to positions bounds the period of every plan, with or without
// precedence constraints. minimize computes it once per period solve of
// HillClimb and BranchBound. A climb whose current value meets it returns;
// a restart or a branch-and-bound shard whose best meets it stops, and the
// shards after it in shard order do nothing; a branch-and-bound incumbent
// seed that meets it ends the seeding. Every score is the value of a
// real schedule, so none of the skipped candidates could score strictly
// below that best: climbs keep strict improvements only, and reduce keeps
// the first strictly best in shard order, so the Solution is the one the
// full search returns, at every worker count. Only the effort moves.
//
// # Parallel search
//
// The branch-and-bound searches and the hill-climbing restarts run on the
// shared bounded worker pool of package par: Options.Workers bounds the
// goroutines (0 means runtime.NumCPU(), 1 forces serial execution). The
// searches shard their spaces statically — forests by the parent
// assignment of the first two nodes, DAGs by the orientation of the first
// pairs, hill climbing by restart index with a
// per-restart seeded RNG — and reduce per-shard winners in shard order
// with strict-improvement comparison. The result is deterministic: for a
// fixed Options.Seed, every worker count (including 1) returns the same
// Solution, bit for bit — the same objective value, execution graph and
// operation list.
package solve

import (
	"context"
	"fmt"

	"repro/internal/dag"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// Method selects the search strategy.
type Method int

const (
	// Auto picks branch-and-bound when the instance is small enough
	// (Options.MaxExactN; by default 7 services where forests suffice, 5
	// where DAGs are needed), otherwise hill climbing seeded with the
	// greedy chain.
	Auto Method = iota
	// GreedyChain builds the paper's greedy chain (polynomial; optimal
	// among chain plans).
	GreedyChain
	// HillClimb runs randomized local search over forests (or DAGs when
	// precedence constraints force merges).
	HillClimb
	// BranchBound is the exact search: it builds the graphs of a
	// structural family incrementally, in a fixed order, and prunes by
	// lower bound against a shared incumbent (see bnb.go). Options.Family
	// picks the family (default: the one whose optimum is global — forests
	// for MINPERIOD without precedence constraints, DAGs otherwise).
	BranchBound
	// ExactForest and ExactDAG named the blind forest and DAG enumerations.
	// Those are no longer methods — branch-and-bound returns their
	// Solution, and the enumerations are the test oracle — so the two
	// constants are inert: no parser, validator or dispatcher accepts
	// them. They remain only because bench/plancold.go:409-410 uses them
	// as map keys for its solve.time_share.exact* metrics (always 0 now)
	// and a PR may not edit bench/; the benchmark PR that drops those two
	// lines deletes them.
	ExactForest
	ExactDAG
)

// String names the method for reports.
func (m Method) String() string {
	switch m {
	case Auto:
		return "auto"
	case GreedyChain:
		return "greedy-chain"
	case HillClimb:
		return "hill-climb"
	case BranchBound:
		return "branch-bound"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options tunes the solvers. The zero value requests defaults.
type Options struct {
	Method Method
	// Orch is passed to the orchestration layer.
	Orch orchestrate.Options
	// MaxExactN, when positive, replaces the instance-size cap of the
	// exact search for both families (defaults: 7 services for forests, 5
	// for DAGs; never above 64): BranchBound rejects larger instances, and
	// Auto picks HillClimb for them.
	MaxExactN int
	// Family picks the structural family searched by BranchBound
	// (default FamilyAuto: forests for MINPERIOD without precedence
	// constraints, DAGs otherwise — the family whose optimum is global).
	Family Family
	// Incumbent, when non-nil, seeds the branch-and-bound pruning
	// threshold with an externally certified objective value before the
	// search starts — the warm-start hook of the planning service, which
	// re-evaluates a previously cached plan on a drifted instance and
	// offers the result here. The value MUST be achievable on the instance
	// being solved by a member of the searched structural family (e.g. the
	// orchestrated objective of a forest plan — a chain included — when
	// Family is FamilyForest, or of a transitively reduced DAG when it is
	// FamilyDAG):
	// the shared-incumbent pruning rule is strict, so any such seed leaves
	// the returned Solution bit-identical to the unseeded search while
	// pruning harder from the root, whereas a value below the family
	// optimum would cut the optimum away. Methods other than BranchBound
	// ignore it.
	Incumbent *rat.Rat
	// Seed drives the randomized restarts of HillClimb.
	Seed int64
	// Restarts is the number of random restarts for HillClimb (default 3).
	Restarts int
	// Workers bounds the worker goroutines of the parallel searches:
	// 0 means runtime.NumCPU(), 1 forces serial execution. Any value
	// yields the identical Solution (see the package documentation).
	Workers int
	// Ctx, when non-nil, bounds the search: the branch-and-bound
	// expansions and the hill climbs poll it periodically
	// and abort with the context's error once it is done — the
	// per-request deadline/cancellation hook of the planning service (a
	// dead client stops burning the pool). A canceled search never
	// returns a partial Solution, only the error, so cancellation cannot
	// weaken the determinism invariant.
	Ctx context.Context
	// Effort, when non-nil, receives the solve's search-effort record (see
	// Effort) — the introspection hook of the planning service's
	// /v1/explain. Purely observational: it never changes which graphs are
	// searched or what Solution is returned, and no cache key holds it.
	// The Solution is the same for every worker count, the counters only
	// at Workers: 1 (above, pruning follows goroutine timing).
	Effort *Effort

	// tally accumulates the Effort of one solve; only minimize sets it,
	// and only when Effort is set.
	tally *tally
	// floor is the period floor of one solve (periodFloor), where a climb,
	// a restart or a branch-and-bound shard stops (see "Period floor" in
	// the package documentation); only minimize sets it, for the period
	// objective of HillClimb and BranchBound. Nil means no floor.
	floor *rat.Rat
}

// ctxErr converts a done context into the search abort error (nil context
// or live context: nil). The context error stays in the chain for
// errors.Is(err, context.Canceled / context.DeadlineExceeded).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("solve: search aborted: %w", err)
	}
	return nil
}

// cancelCheck is the periodic cancellation probe of the search hot loops.
// Each shard owns one (no sharing across goroutines): stop polls the
// context only on the first and then every 256th call, so enumeration
// loops pay an increment-and-mask per candidate, and latches once done so
// a canceled recursion unwinds immediately instead of drifting to the next
// probe boundary.
type cancelCheck struct {
	ctx  context.Context
	tick uint
	done bool
}

func (c *cancelCheck) stop() bool {
	if c.done {
		return true
	}
	if c.ctx == nil {
		return false
	}
	c.tick++
	if c.tick&0xff != 1 {
		return false
	}
	if c.ctx.Err() != nil {
		c.done = true
	}
	return c.done
}

func (o Options) withDefaults() Options {
	if o.Restarts == 0 {
		o.Restarts = 3
	}
	// Plan search evaluates thousands of candidate graphs and every one
	// pays the exhaustive order-search cap, so the inner cap stays at 4096
	// unless explicitly requested; the orchestrate-level default (65536)
	// is for single-graph orchestrations.
	if o.Orch.MaxExhaustive == 0 {
		o.Orch.MaxExhaustive = 4096
	}
	return o
}

// Solution is a complete plan: execution graph, operation list, objective
// value, and whether global optimality is guaranteed.
type Solution struct {
	Graph *plan.ExecGraph
	Sched orchestrate.Result
	Value rat.Rat
	// Exact is true when the solver proves global optimality: the searched
	// structural family provably contains an optimal plan AND the
	// orchestration was exact.
	Exact bool
}

// Objective selects period or latency.
type Objective int

const (
	// PeriodObjective minimizes the period (inverse throughput).
	PeriodObjective Objective = iota
	// LatencyObjective minimizes the latency (response time).
	LatencyObjective
)

// String names the objective.
func (o Objective) String() string {
	if o == PeriodObjective {
		return "period"
	}
	return "latency"
}

// --- chain construction (Prop. 8 and Prop. 16) ---

// GreedyChainOrder returns the paper's optimal-among-chains service order
// for MINPERIOD (Prop. 8): services with selectivity < 1 first by
// increasing c' (c' = 1+c+σ one-port, max(1,c) with overlap), followed by
// the others by increasing σ/c'.
func GreedyChainOrder(app *workflow.App, m plan.Model) []int {
	n := app.N()
	cPrime := func(i int) rat.Rat {
		if m == plan.Overlap {
			return rat.Max(rat.One, app.Cost(i))
		}
		return rat.One.Add(app.Cost(i)).Add(app.Selectivity(i))
	}
	var shrink, grow []int
	for i := 0; i < n; i++ {
		if app.Selectivity(i).Less(rat.One) {
			shrink = append(shrink, i)
		} else {
			grow = append(grow, i)
		}
	}
	sortBy(shrink, func(a, b int) bool { return cPrime(a).Less(cPrime(b)) })
	sortBy(grow, func(a, b int) bool {
		// increasing σ/c' ⟺ σ_a·c'_b < σ_b·c'_a
		return app.Selectivity(a).Mul(cPrime(b)).Less(app.Selectivity(b).Mul(cPrime(a)))
	})
	return append(shrink, grow...)
}

// GreedyLatencyChainOrder returns the paper's optimal-among-chains order
// for MINLATENCY (Prop. 16): decreasing (1−σ)/(1+c).
func GreedyLatencyChainOrder(app *workflow.App) []int {
	order := make([]int, app.N())
	for i := range order {
		order[i] = i
	}
	key := func(i int) (num, den rat.Rat) {
		return rat.One.Sub(app.Selectivity(i)), rat.One.Add(app.Cost(i))
	}
	sortBy(order, func(a, b int) bool {
		na, da := key(a)
		nb, db := key(b)
		// na/da > nb/db ⟺ na·db > nb·da (denominators positive).
		return na.Mul(db).Greater(nb.Mul(da))
	})
	return order
}

func sortBy(s []int, less func(a, b int) bool) {
	// Insertion sort keeps this dependency-free and stable; n is small.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ChainPeriodValue computes the exact period of the chain plan visiting
// services in the given order: all three models reach the per-server lower
// bound on chains (no cross-server critical cycle exists).
func ChainPeriodValue(app *workflow.App, order []int, m plan.Model) rat.Rat {
	inProd := rat.One
	best := rat.Zero
	for _, s := range order {
		cin := inProd
		ccomp := inProd.Mul(app.Cost(s))
		cout := inProd.Mul(app.Selectivity(s))
		var v rat.Rat
		if m == plan.Overlap {
			v = rat.MaxOf(cin, ccomp, cout)
		} else {
			v = cin.Add(ccomp).Add(cout)
		}
		best = rat.Max(best, v)
		inProd = cout
	}
	return best
}

// ChainLatencyValue computes the exact latency of the chain plan: the
// single path's total communication and computation time (identical for
// all models on a chain).
func ChainLatencyValue(app *workflow.App, order []int) rat.Rat {
	t := rat.One // input communication
	inProd := rat.One
	for _, s := range order {
		t = t.Add(inProd.Mul(app.Cost(s)))
		inProd = inProd.Mul(app.Selectivity(s))
		t = t.Add(inProd) // communication to the successor (or output)
	}
	return t
}

// --- enumeration of structural families ---

// forestGraph converts a parent vector into a DAG.
func forestGraph(parent []int) *dag.Graph {
	g := dag.New(len(parent))
	setForest(g, parent)
	return g
}

// setForest makes g the forest of a parent vector, on g's storage.
func setForest(g *dag.Graph, parent []int) {
	g.Clear()
	for v, p := range parent {
		if p >= 0 {
			g.AddEdge(p, v)
		}
	}
}

// nodePairs lists the unordered node pairs in DAG-enumeration order.
func nodePairs(n int) [][2]int {
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	return pairs
}
