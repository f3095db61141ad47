package solve

// The exact search: branch-and-bound over chains, forests and DAGs.
//
// A blind enumeration orchestrates every member of a structural family and
// keeps the first strictly best (the test suite's oracle, oracle_test.go,
// is exactly that). The searches here visit the same families in the same
// order but compute an admissible lower bound (bound.go) on every partial
// decision and discard any subtree whose bound strictly exceeds the shared
// incumbent — the best objective value any worker has proved achievable so
// far. The incumbent is seeded with the greedy-chain and hill-climbing
// solutions before the first expansion, so pruning bites from the root of
// the branching tree, and the searches return the blind enumeration's
// Solution at a fraction of the evaluations (experiment E15 quantifies the
// reduction; the differential suite in bnb_test.go pins the identity).
//
// # Determinism
//
// The top of the branching tree is sharded over the par pool (chains by
// first service, forests by the first two parent assignments, DAGs by the
// first pair orientations) and per-shard winners reduce in shard
// order. The shared incumbent makes the SET of
// expanded nodes depend on worker interleaving, but not the returned
// Solution, because pruning follows two rules: against the shared incumbent
// the test is STRICT (bound > incumbent), and ties are cut only against the
// shard's own best-so-far, which evolves independently of the other
// workers. The bounds are admissible and the incumbent never drops below
// the family optimum, so in every interleaving each shard evaluates — and
// reports — the first graph of its serial enumeration order that reaches
// the shard's minimum value. The shard-order reduction then returns the
// identical Solution — the same one the blind enumeration returns — for
// every worker count. Only the Stats counters vary with the interleaving
// (run with Workers: 1 for reproducible counts).

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// Family selects the structural family the BranchBound method searches.
type Family int

const (
	// FamilyAuto picks the family that makes the search exact: forests for
	// MINPERIOD without precedence constraints (Prop. 4), DAGs otherwise.
	FamilyAuto Family = iota
	// FamilyChain searches the n! linear chains (optimal among chains;
	// closed-form evaluation, no orchestration per candidate).
	FamilyChain
	// FamilyForest searches all forests.
	FamilyForest
	// FamilyDAG searches all DAGs containing the precedence constraints.
	FamilyDAG
)

// String names the family for reports.
func (f Family) String() string {
	switch f {
	case FamilyAuto:
		return "auto"
	case FamilyChain:
		return "chain"
	case FamilyForest:
		return "forest"
	case FamilyDAG:
		return "dag"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Default instance-size caps of the branch-and-bound searches
// (Options.MaxExactN overrides all of them).
const (
	bnbMaxChainN  = 12
	bnbMaxForestN = 7
	bnbMaxDAGN    = 5
)

// Stats reports the search effort of one branch-and-bound run.
type Stats struct {
	// Expanded counts partial assignments whose bound was computed.
	Expanded int64
	// Pruned counts subtrees discarded because their bound exceeded the
	// incumbent (including infeasible DAG subtrees cut without a bound).
	Pruned int64
	// Evaluated counts complete graphs whose objective was computed — the
	// number a blind enumeration of the family would drive to its total
	// candidate count.
	Evaluated int64
}

func (s *Stats) add(o Stats) {
	s.Expanded += o.Expanded
	s.Pruned += o.Pruned
	s.Evaluated += o.Evaluated
}

// incumbent is the shared pruning threshold of one branch-and-bound run:
// the best objective value proved achievable so far, monotonically
// non-increasing. Workers read it on every expansion — through a
// generation-stamped per-shard cache, so the hot path is one atomic load
// rather than a contended mutex — and offer every improvement they
// evaluate. A stale (higher) cached value only weakens strict pruning,
// never breaks it.
type incumbent struct {
	gen atomic.Uint64 // bumped on every improvement
	mu  sync.Mutex
	ok  bool
	val rat.Rat
}

// offer lowers the incumbent to v if v improves it.
func (in *incumbent) offer(v rat.Rat) {
	in.mu.Lock()
	if !in.ok || v.Less(in.val) {
		in.val, in.ok = v, true
		in.gen.Add(1)
	}
	in.mu.Unlock()
}

// incumbentCache is one worker's snapshot of the shared incumbent,
// refreshed only when the generation counter says it changed.
type incumbentCache struct {
	gen uint64
	ok  bool
	val rat.Rat
}

// prunes reports whether a subtree with the given admissible bound can be
// discarded on the strength of the SHARED incumbent alone. The comparison
// is deliberately strict: a subtree whose bound equals the incumbent may
// still contain the graph the serial enumeration would return for that
// value, and cutting it would make the result depend on worker
// interleaving. Ties are cut by the shard-LOCAL rule instead (see
// bnbShard.prunes), which is interleaving-independent.
func (in *incumbent) prunes(c *incumbentCache, bound rat.Rat) bool {
	if g := in.gen.Load(); g != c.gen {
		in.mu.Lock()
		c.gen, c.ok, c.val = in.gen.Load(), in.ok, in.val
		in.mu.Unlock()
	}
	return c.ok && bound.Greater(c.val)
}

// bnbShard is one shard's outcome plus its local search counters, its
// cached view of the shared incumbent, its cancellation probe and the
// scratch its partial bounds are computed on.
type bnbShard struct {
	shardResult
	stats Stats
	cache incumbentCache
	cc    cancelCheck
	bound *boundScratch
}

// prunes applies both pruning rules to one subtree bound. Against the
// shard's OWN best the comparison may include ties — the shard already
// holds its serial-first graph for that value, so cutting later ties
// changes nothing it reports and collapses the plateaus of equal-valued
// completions that dominate filtering instances. Against the shared
// incumbent the comparison stays strict so the result cannot depend on
// when other workers improve it.
func (sh *bnbShard) prunes(inc *incumbent, bound rat.Rat) bool {
	if sh.sol.Graph != nil && !bound.Less(sh.sol.Value) {
		return true
	}
	return inc.prunes(&sh.cache, bound)
}

// reduceBnBShards folds shard outcomes in shard order (like reduceShards)
// and accumulates the counters into opts.Stats when requested.
func reduceBnBShards(shards []bnbShard, opts Options) (Solution, error) {
	results := make([]shardResult, len(shards))
	var total Stats
	for i, sh := range shards {
		results[i] = sh.shardResult
		total.add(sh.stats)
	}
	if opts.Stats != nil {
		*opts.Stats = total
	}
	return reduceShards(results)
}

// ResolveFamily resolves FamilyAuto to the structural family the
// BranchBound method actually searches for this application and objective:
// DAGs with precedence constraints, forests for MINPERIOD without them
// (the Prop. 4 certificate), DAGs otherwise. Non-auto families pass
// through. Warm-start callers (the planning service) use it to check that
// a seed value is achievable within the searched family before offering it
// as Options.Incumbent.
func ResolveFamily(app *workflow.App, obj Objective, fam Family) Family {
	if fam != FamilyAuto {
		return fam
	}
	switch {
	case app.HasPrecedence():
		return FamilyDAG
	case obj == PeriodObjective:
		return FamilyForest
	default:
		return FamilyDAG
	}
}

// branchBound dispatches the BranchBound method to its family search.
func branchBound(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	switch ResolveFamily(app, obj, opts.Family) {
	case FamilyChain:
		return branchBoundChain(app, m, obj, opts)
	case FamilyForest:
		return branchBoundForest(app, m, obj, opts)
	case FamilyDAG:
		return branchBoundDAG(app, m, obj, opts)
	default:
		return Solution{}, fmt.Errorf("solve: unknown branch-and-bound family %v", opts.Family)
	}
}

// seedIncumbent primes the pruning threshold with fast in-family solutions:
// the greedy chain (a chain is a forest is a DAG) and the hill climb, both
// orchestrated with the same options as the search so their values are
// comparable, and both materialised — a seed prunes from the root, so it
// must be the value of a validated schedule, not only a score — plus the
// caller's warm-start value (Options.Incumbent), the
// re-evaluated cached plan of the planning service's drift re-planning.
// Seeds only feed pruning — the search returns the first enumerated graph
// reaching the optimum, never the seed itself.
func seedIncumbent(inc *incumbent, app *workflow.App, m plan.Model, obj Objective, opts Options) {
	if opts.Incumbent != nil {
		inc.offer(*opts.Incumbent)
	}
	if !app.HasPrecedence() {
		if s, err := greedyChainSolution(app, m, obj, opts); err == nil {
			inc.offer(s.Value)
		}
	}
	// Up to three services the whole family (at most 25 DAGs, 16 forests)
	// is smaller than a climb's 400 + 40n evaluation budget: no climb seed.
	if app.N() <= 3 {
		return
	}
	if s, err := hillClimb(app, m, obj, opts); err == nil {
		inc.offer(s.Value)
	}
}

// --- chains ---

// branchBoundChain proves optimality among all n! chains: it places
// services position by position and cuts every prefix whose completion
// bound exceeds the incumbent. Candidate evaluation is the
// closed chain formula; only the winner is orchestrated.
func branchBoundChain(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	if app.HasPrecedence() {
		return Solution{}, fmt.Errorf("solve: chain branch-and-bound requires no precedence constraints")
	}
	n := app.N()
	if n > maxN(opts, bnbMaxChainN) {
		return Solution{}, fmt.Errorf("solve: %d services too large for chain branch-and-bound (max %d)", n, maxN(opts, bnbMaxChainN))
	}
	inc := &incumbent{}
	if opts.Incumbent != nil {
		inc.offer(*opts.Incumbent)
	}
	if obj == PeriodObjective {
		inc.offer(ChainPeriodValue(app, GreedyChainOrder(app, m), m))
	} else {
		inc.offer(ChainLatencyValue(app, GreedyLatencyChainOrder(app)))
	}
	type cand struct {
		order []int
		val   rat.Rat
		found bool
		stats Stats
	}
	shards := par.Map(opts.Workers, n, func(i int) cand {
		order := make([]int, n)
		for j := range order {
			order[j] = j
		}
		order[0], order[i] = order[i], order[0]
		var best cand
		st := &best.stats

		// place computes the exact prefix state after appending service s:
		// the running objective and the data volume leaving the prefix.
		place := func(prefixObj, inProd rat.Rat, s int) (rat.Rat, rat.Rat) {
			if obj == PeriodObjective {
				nextObj := rat.Max(prefixObj, inProd.Mul(cexecUnit(app, m, s, 1)))
				return nextObj, inProd.Mul(app.Selectivity(s))
			}
			nextProd := inProd.Mul(app.Selectivity(s))
			return prefixObj.Add(inProd.Mul(app.Cost(s))).Add(nextProd), nextProd
		}

		// prunes combines the shard-local (ties allowed) and shared
		// (strict) rules, as bnbShard.prunes does for the graph searches.
		var cache incumbentCache
		prunes := func(bound rat.Rat) bool {
			if best.found && !bound.Less(best.val) {
				return true
			}
			return inc.prunes(&cache, bound)
		}

		cc := cancelCheck{ctx: opts.Ctx}
		var rec func(k int, prefixObj, inProd rat.Rat)
		rec = func(k int, prefixObj, inProd rat.Rat) {
			if cc.stop() {
				return
			}
			if k == n {
				st.Evaluated++
				if !best.found || prefixObj.Less(best.val) {
					best.order = append(best.order[:0], order...)
					best.val = prefixObj
					best.found = true
					inc.offer(prefixObj)
				}
				return
			}
			for i := k; i < n; i++ {
				order[k], order[i] = order[i], order[k]
				nextObj, nextProd := place(prefixObj, inProd, order[k])
				st.Expanded++
				if prunes(chainCompletionBound(app, m, obj, nextObj, nextProd, order[k+1:])) {
					st.Pruned++
				} else {
					rec(k+1, nextObj, nextProd)
				}
				order[k], order[i] = order[i], order[k]
			}
		}

		startObj := rat.Zero
		if obj == LatencyObjective {
			startObj = rat.One // the unit input communication
		}
		firstObj, firstProd := place(startObj, rat.One, order[0])
		st.Expanded++
		if prunes(chainCompletionBound(app, m, obj, firstObj, firstProd, order[1:])) {
			st.Pruned++
		} else {
			rec(1, firstObj, firstProd)
		}
		return best
	})
	var winner cand
	var total Stats
	for _, sh := range shards {
		total.add(sh.stats)
		if !sh.found {
			continue
		}
		if !winner.found || sh.val.Less(winner.val) {
			winner = sh
			winner.found = true
		}
	}
	if opts.Stats != nil {
		*opts.Stats = total
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return Solution{}, err
	}
	if !winner.found {
		return Solution{}, fmt.Errorf("solve: chain branch-and-bound found no plan")
	}
	eg, err := plan.ChainFromOrder(app, winner.order)
	if err != nil {
		return Solution{}, err
	}
	// Optimal among chains, not globally.
	return solveGraph(eg, m, obj, opts)
}

// --- forests ---

// branchBoundForest proves optimality among all forests (globally optimal
// for MINPERIOD without precedence constraints, Prop. 4), assigning parents
// node by node and cutting every partial assignment whose bound exceeds
// the incumbent.
func branchBoundForest(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	if app.HasPrecedence() {
		return Solution{}, fmt.Errorf("solve: forest branch-and-bound requires no precedence constraints")
	}
	n := app.N()
	if n > maxN(opts, bnbMaxForestN) {
		return Solution{}, fmt.Errorf("solve: %d services too large for forest branch-and-bound (max %d)", n, maxN(opts, bnbMaxForestN))
	}
	inc := &incumbent{}
	seedIncumbent(inc, app, m, obj, opts)
	prefixes := forestPrefixes(n, 2)
	tables := newBoundTables(app, m, obj, nil, nil)
	shards := par.Map(opts.Workers, len(prefixes), func(i int) bnbShard {
		parent := make([]int, n)
		for v := range parent {
			parent[v] = -1
		}
		copy(parent, prefixes[i])
		sh := bnbShard{cc: cancelCheck{ctx: opts.Ctx}, bound: newBoundScratch(tables)}
		sh.stats.Expanded++
		if sh.prunes(inc, sh.bound.forest(parent, len(prefixes[i]))) {
			sh.stats.Pruned++
			return sh
		}
		bnbForestRec(app, m, obj, opts, inc, parent, len(prefixes[i]), &sh)
		return sh
	})
	sol, firstErr := reduceBnBShards(shards, opts)
	if err := ctxErr(opts.Ctx); err != nil {
		return Solution{}, err
	}
	if sol.Graph == nil {
		return Solution{}, fmt.Errorf("solve: forest branch-and-bound found no plan: %v", firstErr)
	}
	sol.Exact = obj == PeriodObjective && sol.Sched.Exact && m != plan.OutOrder
	return sol, nil
}

// bnbForestRec extends the partial assignment at node v in the serial
// enumeration order (root first, then each non-cyclic parent), bounding
// every extension before descending and orchestrating only surviving
// complete forests.
func bnbForestRec(app *workflow.App, m plan.Model, obj Objective, opts Options, inc *incumbent, parent []int, v int, sh *bnbShard) {
	if sh.cc.stop() {
		return
	}
	n := len(parent)
	if v == n {
		sh.stats.Evaluated++
		if eg, err := plan.FromGraph(app, forestGraph(parent)); err == nil && sh.try(eg, m, obj, opts) {
			inc.offer(sh.sol.Value)
		}
		return
	}
	descend := func() {
		sh.stats.Expanded++
		if sh.prunes(inc, sh.bound.forest(parent, v+1)) {
			sh.stats.Pruned++
			return
		}
		bnbForestRec(app, m, obj, opts, inc, parent, v+1, sh)
	}
	parent[v] = -1
	descend()
	for p := 0; p < n; p++ {
		if p == v || parentChainReaches(parent, p, v) {
			continue
		}
		parent[v] = p
		descend()
	}
	parent[v] = -1
}

// parentChainReaches reports whether following parent pointers from p
// reaches v — i.e. making p the parent of v would close a cycle.
func parentChainReaches(parent []int, p, v int) bool {
	for a := p; a != -1; a = parent[a] {
		if a == v {
			return true
		}
	}
	return false
}

// --- DAGs ---

// branchBoundDAG proves optimality among all DAGs containing the precedence
// constraints, orienting node pairs one at a time. Besides the bound, two
// feasibility cuts remove subtrees a blind enumeration would reject graph
// by graph: orientations that close a cycle, and orientations that reverse
// a precedence path (either makes every completion invalid).
func branchBoundDAG(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	n := app.N()
	if n > maxN(opts, bnbMaxDAGN) {
		return Solution{}, fmt.Errorf("solve: %d services too large for DAG branch-and-bound (max %d)", n, maxN(opts, bnbMaxDAGN))
	}
	inc := &incumbent{}
	seedIncumbent(inc, app, m, obj, opts)
	precClosure, err := app.Precedence().TransitiveClosure()
	if err != nil {
		return Solution{}, err
	}
	pairs := nodePairs(n)
	depth := 3
	if depth > len(pairs) {
		depth = len(pairs)
	}
	prefixes := dagPrefixes(n, depth)
	tables := newBoundTables(app, m, obj, precClosure, pairs)
	shards := par.Map(opts.Workers, len(prefixes), func(i int) bnbShard {
		sh := bnbShard{cc: cancelCheck{ctx: opts.Ctx}, bound: newBoundScratch(tables)}
		g := dag.New(n)
		for _, e := range prefixes[i] {
			if precClosure.HasEdge(e[1], e[0]) {
				sh.stats.Pruned++
				return sh // the shard's edge reverses a precedence path
			}
			g.AddEdge(e[0], e[1])
		}
		if !sh.bound.acyclic(g) {
			sh.stats.Pruned++
			return sh
		}
		sh.stats.Expanded++
		if sh.prunes(inc, sh.bound.dag(g, depth)) {
			sh.stats.Pruned++
			return sh
		}
		bnbDAGRec(app, m, obj, opts, inc, g, precClosure, pairs, depth, &sh)
		return sh
	})
	sol, firstErr := reduceBnBShards(shards, opts)
	if err := ctxErr(opts.Ctx); err != nil {
		return Solution{}, err
	}
	if sol.Graph == nil {
		return Solution{}, fmt.Errorf("solve: DAG branch-and-bound found no plan: %v", firstErr)
	}
	sol.Exact = sol.Sched.Exact && exactOrchestration(m, obj)
	return sol, nil
}

// bnbDAGRec decides pair i in the serial enumeration order (no edge, then
// u→v, then v→u), cutting infeasible orientations and bounded subtrees.
func bnbDAGRec(app *workflow.App, m plan.Model, obj Objective, opts Options, inc *incumbent, g *dag.Graph, precClosure *dag.Graph, pairs [][2]int, i int, sh *bnbShard) {
	if sh.cc.stop() {
		return
	}
	if i == len(pairs) {
		sh.stats.Evaluated++
		// A graph FromGraph rejects violates the precedence constraints.
		if eg, err := plan.FromGraph(app, g); err == nil && sh.try(eg, m, obj, opts) {
			inc.offer(sh.sol.Value)
		}
		return
	}
	descend := func() {
		sh.stats.Expanded++
		if sh.prunes(inc, sh.bound.dag(g, i+1)) {
			sh.stats.Pruned++
			return
		}
		bnbDAGRec(app, m, obj, opts, inc, g, precClosure, pairs, i+1, sh)
	}
	withEdge := func(a, b int) {
		if precClosure.HasEdge(b, a) {
			sh.stats.Pruned++
			return // reversing a precedence path invalidates every completion
		}
		g.AddEdge(a, b)
		if sh.bound.acyclic(g) {
			descend()
		} else {
			sh.stats.Pruned++ // every completion keeps the cycle
		}
		g.RemoveEdge(a, b)
	}
	u, v := pairs[i][0], pairs[i][1]
	descend()
	withEdge(u, v)
	withEdge(v, u)
}
