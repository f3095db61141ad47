package solve

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dag"
	"repro/internal/orchestrate"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// The plan searches are value-first (see the package documentation):
// evaluate scores a candidate, shardResult.offer materialises the ones a
// shard keeps.

// scored is a candidate execution graph with its orchestration score.
type scored struct {
	eg *plan.ExecGraph
	w  *plan.Weighted
	orchestrate.Score
}

// evaluate is the scoring chokepoint of every plan search. It is a variable
// only so that the differential suite (valuefirst_test.go) can substitute
// the eager materialise-every-candidate reference; nothing else assigns it.
var evaluate = scoreCandidate

// scoreCandidate scores the objective on one candidate execution graph,
// through the solve's orchestration memo when one is set: identical
// weighted graphs reached anywhere in the search are scored once.
func scoreCandidate(eg *plan.ExecGraph, m plan.Model, obj Objective, opts Options) (scored, error) {
	c := scored{eg: eg, w: eg.Weighted()}
	var err error
	switch {
	case opts.Probe != nil:
		c.Score, err = opts.Probe.evaluate(c.w, m, obj, opts)
	case obj == PeriodObjective:
		c.Score, _, err = orchestrate.ScorePeriod(opts.Memo, c.w, m, opts.Orch)
	default:
		c.Score, _, err = orchestrate.ScoreLatency(opts.Memo, c.w, m, opts.Orch)
	}
	return c, err
}

// materialise turns a scored candidate into a Solution: the schedule is
// rebuilt from the score, validated and explained.
func (c scored) materialise(opts Options) (Solution, error) {
	if p := opts.Probe; p != nil {
		defer func(start time.Time) { p.orchNanos.Add(int64(time.Since(start))) }(time.Now())
	}
	sched, err := c.Score.Materialise(c.w)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Graph: c.eg, Sched: sched, Value: sched.Value}, nil
}

// solveGraph scores and materialises one fixed graph: the single-candidate
// methods (greedy chain, the chain search's winner, Reevaluate) keep
// whatever it gives.
func solveGraph(eg *plan.ExecGraph, m plan.Model, obj Objective, opts Options) (Solution, error) {
	c, err := evaluate(eg, m, obj, opts)
	if err != nil {
		return Solution{}, err
	}
	return c.materialise(opts)
}

// MinPeriod solves MINPERIOD for the application under model m.
func MinPeriod(app *workflow.App, m plan.Model, opts Options) (Solution, error) {
	return minimize(app, m, PeriodObjective, opts)
}

// MinLatency solves MINLATENCY for the application under model m.
func MinLatency(app *workflow.App, m plan.Model, opts Options) (Solution, error) {
	return minimize(app, m, LatencyObjective, opts)
}

// Reevaluate orchestrates one fixed execution graph under the same option
// normalization as the plan searches and returns the resulting Solution
// (never marked Exact — no search was performed). It is the warm-start
// companion of Options.Incumbent: re-evaluating a previously optimal graph
// on an instance whose costs or selectivities drifted yields a certified
// achievable objective to seed the branch-and-bound incumbent with.
func Reevaluate(eg *plan.ExecGraph, m plan.Model, obj Objective, opts Options) (Solution, error) {
	return solveGraph(eg, m, obj, opts.withDefaults())
}

func minimize(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	opts = opts.withDefaults()
	// An already-expired request costs nothing: fail before any search
	// state is built (the searches poll the context periodically after).
	if err := ctxErr(opts.Ctx); err != nil {
		return Solution{}, err
	}
	method := opts.Method
	if method == Auto {
		method = autoMethod(app, obj, opts)
	}
	// The orchestration memo pays where a search revisits candidate graphs:
	// hill-climb seeds/restarts converging on the same forests, and
	// branch-and-bound re-reaching the graphs its incumbent seeding (greedy
	// chain + hill climb, sharing this memo) already orchestrated.
	if opts.Memo == nil && !opts.NoMemo && (method == HillClimb || method == BranchBound) {
		opts.Memo = orchestrate.NewMemo(0)
	}
	switch method {
	case GreedyChain:
		return greedyChainSolution(app, m, obj, opts)
	case HillClimb:
		return hillClimb(app, m, obj, opts)
	case BranchBound:
		return branchBound(app, m, obj, opts)
	default:
		return Solution{}, fmt.Errorf("solve: unknown method %v", opts.Method)
	}
}

// autoMethod resolves Auto: the exact search up to the size cap of the
// family it would search (forests suffice for MINPERIOD without precedence
// constraints, Prop. 4; everything else needs DAGs), hill climbing above.
func autoMethod(app *workflow.App, obj Objective, opts Options) Method {
	limit := bnbMaxDAGN
	if ResolveFamily(app, obj, FamilyAuto) == FamilyForest {
		limit = bnbMaxForestN
	}
	if app.N() <= maxN(opts, limit) {
		return BranchBound
	}
	return HillClimb
}

func maxN(opts Options, def int) int {
	if opts.MaxExactN > 0 {
		return opts.MaxExactN
	}
	return def
}

// greedyChainSolution builds the paper's greedy chain and orchestrates it.
func greedyChainSolution(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	if app.HasPrecedence() {
		return Solution{}, fmt.Errorf("solve: the chain greedy applies only without precedence constraints")
	}
	var order []int
	if obj == PeriodObjective {
		order = GreedyChainOrder(app, m)
	} else {
		order = GreedyLatencyChainOrder(app)
	}
	eg, err := plan.ChainFromOrder(app, order)
	if err != nil {
		return Solution{}, err
	}
	// Optimal among chains (Prop. 8 / Prop. 16), not globally.
	return solveGraph(eg, m, obj, opts)
}

// shardResult is one enumeration shard's outcome: its best solution (nil
// graph when the shard was infeasible) and the first evaluation error it
// hit.
type shardResult struct {
	sol Solution
	err error
}

// fail records the shard's first error.
func (r *shardResult) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// try scores one candidate graph and offers it to the shard.
func (r *shardResult) try(eg *plan.ExecGraph, m plan.Model, obj Objective, opts Options) bool {
	c, err := evaluate(eg, m, obj, opts)
	if err != nil {
		r.fail(err)
		return false
	}
	return r.offer(c, opts)
}

// offer keeps c when it strictly improves the shard's best, materialising
// it first; it reports whether c was kept. A candidate that does not
// improve is dropped unmaterialised, one whose materialisation fails is
// skipped with its error recorded.
func (r *shardResult) offer(c scored, opts Options) bool {
	if r.sol.Graph != nil && !c.Value.Less(r.sol.Value) {
		return false
	}
	sol, err := c.materialise(opts)
	if err != nil {
		r.fail(err)
		return false
	}
	r.sol = sol
	return true
}

// forestShards runs the sharded forest enumeration on the worker pool:
// forests are partitioned by the parent assignment of the first two nodes,
// try sees every complete parent vector of its shard together with the
// shard's accumulator, and the per-shard results come back in serial
// prefix order (ready for reduceShards). A done ctx stops every shard at
// its next probe (the caller detects the abort via ctxErr).
func forestShards(n, workers int, ctx context.Context, try func(parent []int, r *shardResult)) []shardResult {
	prefixes := forestPrefixes(n, 2)
	return par.Map(workers, len(prefixes), func(i int) shardResult {
		parent := make([]int, n)
		for v := range parent {
			parent[v] = -1
		}
		copy(parent, prefixes[i])
		var r shardResult
		cc := cancelCheck{ctx: ctx}
		forEachForestFrom(parent, len(prefixes[i]), func(parent []int) bool {
			if cc.stop() {
				return false
			}
			try(parent, &r)
			return true
		})
		return r
	})
}

// reduceShards folds shard results in shard order, keeping the first
// strictly-best solution and the first error — exactly what the serial
// enumeration would have kept.
func reduceShards(shards []shardResult) (Solution, error) {
	var sol Solution
	var firstErr error
	for _, r := range shards {
		if firstErr == nil {
			firstErr = r.err
		}
		if r.sol.Graph == nil {
			continue
		}
		if sol.Graph == nil || r.sol.Value.Less(sol.Value) {
			sol = r.sol
		}
	}
	return sol, firstErr
}

// exactOrchestration reports whether the orchestration layer explores the
// full schedule space for the model/objective pair, so that an exhaustive
// search of the DAG family yields a certified optimum.
func exactOrchestration(m plan.Model, obj Objective) bool {
	if obj == PeriodObjective {
		// OVERLAP is Theorem-1 optimal; INORDER order search is complete
		// for the model; the OUTORDER family is a (pipelined) subset.
		return m != plan.OutOrder
	}
	// Latency: one-port order search is complete; the multi-port
	// bandwidth-sharing construction is heuristic.
	return m != plan.Overlap
}

// hillClimb performs randomized local search: over forests (parent vectors)
// without precedence constraints, over DAG edge sets with them. Seeds: the
// parallel plan, the greedy chain (resp. the bare precedence graph and its
// random densifications), plus random restarts. The climbs from distinct
// seeds are independent — each owns its RNG (derived from Options.Seed and
// the restart index) and its share of the evaluation budget — and run
// concurrently on the worker pool; the per-climb winners are reduced in
// restart order, so the result does not depend on the worker count.
func hillClimb(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	if app.HasPrecedence() {
		return hillClimbDAG(app, m, obj, opts)
	}
	return hillClimbForest(app, m, obj, opts)
}

// climbRand returns the private RNG of restart i (a SplitMix64-style mix of
// the user seed and the restart index, so distinct restarts decorrelate even
// for adjacent seeds).
func climbRand(seed int64, i int) *rand.Rand {
	x := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return rand.New(rand.NewSource(int64(x)))
}

// climbBudget splits the total evaluation budget (full orchestration per
// candidate is the dominant cost) evenly across the restarts.
func climbBudget(n, restarts int) int {
	return (400 + 40*n + restarts - 1) / restarts
}

func hillClimbForest(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	n := app.N()
	// Seed 1: parallel plan. Seed 2: greedy chain. Then random forests,
	// drawn from a dedicated RNG so the seed list is a pure function of
	// Options.Seed.
	seeds := [][]int{make([]int, n)}
	for i := range seeds[0] {
		seeds[0][i] = -1
	}
	var chainOrder []int
	if obj == PeriodObjective {
		chainOrder = GreedyChainOrder(app, m)
	} else {
		chainOrder = GreedyLatencyChainOrder(app)
	}
	chainParent := make([]int, n)
	chainParent[chainOrder[0]] = -1
	for i := 1; i < n; i++ {
		chainParent[chainOrder[i]] = chainOrder[i-1]
	}
	seeds = append(seeds, chainParent)
	seedRng := rand.New(rand.NewSource(opts.Seed))
	for r := 0; r < opts.Restarts; r++ {
		p := make([]int, n)
		perm := seedRng.Perm(n)
		p[perm[0]] = -1
		for i := 1; i < n; i++ {
			if seedRng.Intn(3) == 0 {
				p[perm[i]] = -1
			} else {
				p[perm[i]] = perm[seedRng.Intn(i)]
			}
		}
		seeds = append(seeds, p)
	}

	shards := par.Map(opts.Workers, len(seeds), func(i int) shardResult {
		return climbForestFrom(app, m, obj, opts, seeds[i], climbBudget(n, len(seeds)), climbRand(opts.Seed, i))
	})
	best, firstErr := reduceShards(shards)
	if err := ctxErr(opts.Ctx); err != nil {
		return Solution{}, err
	}
	if best.Graph == nil {
		if firstErr != nil {
			return Solution{}, fmt.Errorf("solve: hill climbing found no feasible plan: %v", firstErr)
		}
		return Solution{}, fmt.Errorf("solve: hill climbing found no feasible plan")
	}
	return best, nil
}

// climbForestFrom runs one hill climb over forest parent vectors from the
// given start, spending at most budget orchestrations. Moves are evaluated
// incrementally: a forestEval recomputes only the touched subtree's volumes
// and orchestration is skipped (without charging the budget) whenever the
// moved forest's lower bound already rules out a strict improvement.
func climbForestFrom(app *workflow.App, m plan.Model, obj Objective, opts Options, seed []int, budget int, rng *rand.Rand) shardResult {
	n := app.N()
	var r shardResult
	// tryParent spends one evaluation on the forest and reports whether it
	// became the climb's best (r.sol is the climb's current point: only
	// strict improvements are ever accepted).
	tryParent := func(parent []int) bool {
		budget--
		eg, err := plan.FromGraph(app, forestGraph(parent))
		if err != nil {
			r.fail(err)
			return false
		}
		return r.try(eg, m, obj, opts)
	}
	// candidateParents returns the parents to try for node v: all of them
	// on small instances, a random sample above.
	candidateParents := func(v int) []int {
		const sampleLimit = 12
		if n <= sampleLimit {
			out := make([]int, 0, n)
			out = append(out, -1)
			for p := 0; p < n; p++ {
				if p != v {
					out = append(out, p)
				}
			}
			return out
		}
		out := []int{-1}
		for len(out) < sampleLimit {
			p := rng.Intn(n)
			if p != v {
				out = append(out, p)
			}
		}
		return out
	}

	cur := append([]int(nil), seed...)
	if !tryParent(cur) {
		return r
	}
	eval := newForestEval(app, cur)
	cc := cancelCheck{ctx: opts.Ctx}
	for improved := true; improved && budget > 0 && !cc.stop(); {
		improved = false
		for v := 0; v < n && budget > 0 && !cc.stop(); v++ {
			old := cur[v]
			for _, p := range candidateParents(v) {
				if p == old {
					continue
				}
				if p >= 0 && eval.CreatesCycle(v, p) {
					continue
				}
				eval.Move(v, p)
				cur[v] = p
				if !eval.Bound(m, obj).Less(r.sol.Value) {
					// The incremental bound already reaches the current
					// value, so orchestration cannot return a strict
					// improvement: reject the move without spending budget.
					eval.Move(v, old)
					cur[v] = old
					continue
				}
				if tryParent(cur) {
					old = p
					improved = true
				} else {
					eval.Move(v, old)
					cur[v] = old
				}
				if budget <= 0 {
					break
				}
			}
		}
	}
	return r
}

func hillClimbDAG(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	// Restart 0 climbs from the bare precedence graph; restarts 1..Restarts
	// from random acyclic densifications of it, so Restarts buys diversity
	// here exactly as in the forest climb.
	starts := []*dag.Graph{app.Precedence().Clone()}
	for r := 0; r < opts.Restarts; r++ {
		rng := climbRand(^opts.Seed, r)
		g := app.Precedence().Clone()
		n := app.N()
		for t := 0; t < 2*n; t++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.AddEdge(u, v)
			if !g.IsAcyclic() {
				g.RemoveEdge(u, v)
			}
		}
		starts = append(starts, g)
	}
	shards := par.Map(opts.Workers, len(starts), func(i int) shardResult {
		return climbDAGFrom(app, m, obj, opts, starts[i], climbBudget(app.N(), len(starts)))
	})
	best, firstErr := reduceShards(shards)
	if err := ctxErr(opts.Ctx); err != nil {
		return Solution{}, err
	}
	if best.Graph == nil {
		return Solution{}, fmt.Errorf("solve: hill climbing found no feasible plan: %v", firstErr)
	}
	return best, nil
}

// climbDAGFrom runs one hill climb over DAG edge sets from the given start
// graph (which the climb mutates), spending at most budget orchestrations.
// Candidate graphs whose lower bound already reaches the current value are
// rejected before orchestration, without charging the budget.
func climbDAGFrom(app *workflow.App, m plan.Model, obj Objective, opts Options, cur *dag.Graph, budget int) shardResult {
	n := app.N()
	// r.sol is the climb's current point: only strict improvements are ever
	// accepted, so the shard's best and the current graph coincide.
	var r shardResult
	start, err := plan.FromGraph(app, cur)
	if err != nil {
		r.err = err
		return r
	}
	budget--
	if !r.try(start, m, obj, opts) {
		return r
	}
	cc := cancelCheck{ctx: opts.Ctx}
	for improved := true; improved && budget > 0 && !cc.stop(); {
		improved = false
		for u := 0; u < n && budget > 0 && !cc.stop(); u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				var undo func()
				if cur.HasEdge(u, v) {
					cur.RemoveEdge(u, v)
					undo = func() { cur.AddEdge(u, v) }
				} else {
					cur.AddEdge(u, v)
					undo = func() { cur.RemoveEdge(u, v) }
				}
				if !cur.IsAcyclic() {
					undo()
					continue
				}
				eg, err := plan.FromGraph(app, cur)
				if err != nil {
					undo() // move violates the precedence constraints
					continue
				}
				if !graphBound(eg, m, obj).Less(r.sol.Value) {
					undo() // cannot be a strict improvement; skip orchestration
					continue
				}
				budget--
				if r.try(eg, m, obj, opts) {
					improved = true
				} else {
					undo()
				}
			}
		}
	}
	return r
}

// graphBound returns the objective-matching lower bound of one candidate
// execution graph: the per-server period bound or the longest-path latency
// bound. Orchestrated objectives never beat it under any model.
func graphBound(eg *plan.ExecGraph, m plan.Model, obj Objective) rat.Rat {
	if obj == PeriodObjective {
		return eg.PeriodLowerBound(m)
	}
	return eg.LatencyPathBound()
}

// BiCriteria minimizes latency subject to a period bound (the bi-criteria
// problem the paper's conclusion raises): it scans the forest family (plus
// the greedy chains) for plans whose period under m stays within bound and
// returns the best-latency one.
func BiCriteria(app *workflow.App, m plan.Model, periodBound rat.Rat, opts Options) (Solution, error) {
	if app.HasPrecedence() {
		return Solution{}, fmt.Errorf("solve: BiCriteria requires no precedence constraints")
	}
	opts = opts.withDefaults()
	n := app.N()
	var best shardResult
	// The period is only ever compared against the bound, so it is scored
	// and never materialised; the latency schedule is materialised when it
	// improves the shard's best.
	tryInto := func(r *shardResult, eg *plan.ExecGraph) {
		w := eg.Weighted()
		per, _, err := orchestrate.ScorePeriod(opts.Memo, w, m, opts.Orch)
		if err != nil || per.Value.Greater(periodBound) {
			return
		}
		lat, _, err := orchestrate.ScoreLatency(opts.Memo, w, m, opts.Orch)
		if err != nil {
			return
		}
		r.offer(scored{eg: eg, w: w, Score: lat}, opts)
	}
	tryGraph := func(eg *plan.ExecGraph) { tryInto(&best, eg) }
	if n <= maxN(opts, 6) {
		// Same sharding as the forest branch-and-bound: each worker scans
		// the completions of a two-node prefix for the best bound-respecting
		// latency; the shard winners reduce in serial prefix order.
		best.sol, _ = reduceShards(forestShards(n, opts.Workers, opts.Ctx, func(parent []int, r *shardResult) {
			if eg, err := plan.FromGraph(app, forestGraph(parent)); err == nil {
				tryInto(r, eg)
			}
		}))
	} else {
		// Structured candidates: parallel, both greedy chains, and greedy
		// chains split into k parallel sub-chains.
		if eg, err := plan.Parallel(app); err == nil {
			tryGraph(eg)
		}
		for _, order := range [][]int{GreedyChainOrder(app, m), GreedyLatencyChainOrder(app)} {
			if eg, err := plan.ChainFromOrder(app, order); err == nil {
				tryGraph(eg)
			}
			for k := 2; k <= 4 && k <= n; k++ {
				var edges [][2]int
				for i := 0; i < n; i++ {
					if i >= k {
						edges = append(edges, [2]int{order[i-k], order[i]})
					}
				}
				if eg, err := plan.Build(app, edges); err == nil {
					tryGraph(eg)
				}
			}
		}
	}
	if best.sol.Graph == nil {
		return Solution{}, fmt.Errorf("solve: no plan meets period bound %s under %s", periodBound, m)
	}
	return best.sol, nil
}
