package solve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/orchestrate"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// The plan searches are value-first (see the package documentation):
// evaluate scores a candidate, shards keep scores, and the reduction
// materialises the one winner.

// candidate is an execution graph with its scheduling-level lowering.
type candidate struct {
	eg *plan.ExecGraph
	w  *plan.Weighted
}

// lower pairs a graph the caller owns with a fresh lowering.
func lower(eg *plan.ExecGraph) candidate { return candidate{eg, eg.Weighted()} }

// build builds g into b's workspace: the candidate is valid until b's next
// build (shardResult.offer rebuilds what it keeps into storage of its own).
func build(b *plan.Builder, app *workflow.App, g *dag.Graph) (candidate, error) {
	eg, err := b.Build(app, g)
	if err != nil {
		return candidate{}, err
	}
	return candidate{eg, b.Weighted()}, nil
}

// scored is a candidate with its orchestration score.
type scored struct {
	candidate
	orchestrate.Score
}

// evaluate is the scoring chokepoint of every plan search. It is a variable
// only so that the differential suite (valuefirst_test.go) can substitute
// the eager materialise-every-candidate reference; nothing else assigns it.
var evaluate = scoreCandidate

// scoreCandidate scores the objective on one candidate execution graph.
// limit is the caller's acceptance limit (orchestrate.Limit): above it the
// score may be a cut-off, which the caller rejects. A solve that records
// its effort counts the scoring in its tally. The score holds nothing of
// the candidate's storage, only its own.
func scoreCandidate(cand candidate, m plan.Model, obj Objective, opts Options, limit orchestrate.Limit) (scored, error) {
	c := scored{candidate: cand}
	o, t := opts.Orch, opts.tally
	var start time.Time
	if t != nil {
		// A Stats of this call's own: the orchestrate layer overwrites its
		// target.
		o.Stats, start = new(orchestrate.Stats), time.Now()
	}
	var err error
	if obj == PeriodObjective {
		c.Score, err = orchestrate.ScorePeriod(c.w, m, o, limit)
	} else {
		c.Score, err = orchestrate.ScoreLatency(c.w, m, o, limit)
	}
	if t != nil {
		t.scored(*o.Stats, time.Since(start))
	}
	return c, err
}

// materialise turns a scored candidate into a Solution: the schedule is
// rebuilt from the score, validated and explained. Like evaluate, it is a
// variable only so that a test (TestMaterialiseOncePerSolve) can count the
// schedules a solve builds; nothing else assigns it.
var materialise = func(c scored, opts Options) (Solution, error) {
	if t := opts.tally; t != nil {
		defer func(start time.Time) { t.orchNanos.Add(int64(time.Since(start))) }(time.Now())
	}
	sched, err := c.Score.Materialise(c.w)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Graph: c.eg, Sched: sched, Value: sched.Value}, nil
}

// solveGraph scores and materialises one fixed graph: the single-candidate
// methods (greedy chain, Reevaluate) keep whatever it gives.
func solveGraph(eg *plan.ExecGraph, m plan.Model, obj Objective, opts Options) (Solution, error) {
	c, err := evaluate(lower(eg), m, obj, opts, orchestrate.NoLimit)
	if err != nil {
		return Solution{}, err
	}
	return materialise(c, opts)
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
// achievable objective to seed the branch-and-bound incumbent with. It
// records no effort (Options.Effort is ignored).
func Reevaluate(eg *plan.ExecGraph, m plan.Model, obj Objective, opts Options) (Solution, error) {
	return solveGraph(eg, m, obj, opts.withDefaults())
}

func minimize(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	opts = opts.withDefaults()
	method := opts.Method
	if method == Auto {
		method = autoMethod(app, obj, opts)
	}
	if rec := opts.Effort; rec != nil {
		family := opts.Family
		if method == BranchBound {
			family = ResolveFamily(app, obj, opts.Family)
		}
		t := &tally{}
		opts.tally = t
		defer func(start time.Time) { t.record(rec, method, family, time.Since(start)) }(time.Now())
	}
	// An already-expired request costs nothing: fail before any search
	// state is built (the searches poll the context periodically after).
	if err := ctxErr(opts.Ctx); err != nil {
		return Solution{}, err
	}
	if obj == PeriodObjective && (method == HillClimb || method == BranchBound) {
		floor := periodFloor(app, m)
		opts.floor = &floor
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

// maxN is an exact search's size cap: def, or opts.MaxExactN when set, but
// never above the maxMaskN services the partial bounds' masks can hold.
func maxN(opts Options, def int) int {
	if opts.MaxExactN > 0 {
		return min(opts.MaxExactN, maxMaskN)
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

// shardResult is one shard's outcome: the score of its best candidate and
// that candidate's graph (ok false when the shard kept none), and the first
// evaluation error the shard hit. The graph is a copy on the result's own
// storage: the candidate itself lived in a builder its search refills.
type shardResult struct {
	best  orchestrate.Score
	graph dag.Graph
	app   *workflow.App
	ok    bool
	err   error
}

// fail records the shard's first error.
func (r *shardResult) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// improves reports whether a candidate of value v would replace the
// shard's best: only strict improvements do.
func (r *shardResult) improves(v rat.Rat) bool {
	return !r.ok || v.Less(r.best.Value)
}

// limit is the acceptance limit of r's next offer: its best value, once it
// has one (offer keeps strict improvements only).
func (r *shardResult) limit() orchestrate.Limit {
	if !r.ok {
		return orchestrate.NoLimit
	}
	return orchestrate.AtMost(r.best.Value)
}

// offer keeps c when it improves the shard's best and reports whether it
// did. It is the one place a search keeps a candidate, so it detaches the
// kept one: c may live in a builder's workspace, which the search's next
// candidate refills, so only its score and a copy of its graph, on the
// storage of the best it replaces, are kept; reduce rebuilds the winner
// from that copy. A rejected candidate is never copied.
func (r *shardResult) offer(c scored) bool {
	if !r.improves(c.Value) {
		return false
	}
	r.graph.CopyFrom(c.eg.Graph())
	r.best, r.app, r.ok = c.Score, c.eg.App(), true
	return true
}

// offerGraph scores one candidate graph under limit and offers it to r; a
// cut-off is a rejection.
func offerGraph(r *shardResult, cand candidate, m plan.Model, obj Objective, opts Options, limit orchestrate.Limit) bool {
	c, err := evaluate(cand, m, obj, opts, limit)
	if err != nil {
		r.fail(err)
		return false
	}
	return !c.NotBelow() && r.offer(c)
}

// reduce folds shard results in shard order, keeping the first
// strictly-best candidate and the first error — exactly what the serial
// enumeration would have kept — and materialises the winner, the one
// schedule a search builds. A done ctx wins over any outcome; with no
// candidate kept, the error is "solve: <noPlan>" plus the first evaluation
// error. The winner is rebuilt from its kept graph (the same graph gives
// the same order, edges and lowering) into FromGraph's exactly-sized
// storage, which the Solution owns. Materialise is total on a Score the
// scoring produced, so its failure is returned as the internal error it is.
func reduce(shards []shardResult, opts Options, noPlan string) (Solution, error) {
	var win *shardResult
	var err error
	for i := range shards {
		r := &shards[i]
		if err == nil {
			err = r.err
		}
		if r.ok && (win == nil || win.improves(r.best.Value)) {
			win = r
		}
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return Solution{}, err
	}
	if win == nil {
		if err != nil {
			return Solution{}, fmt.Errorf("solve: %s: %v", noPlan, err)
		}
		return Solution{}, fmt.Errorf("solve: %s", noPlan)
	}
	eg, err := plan.FromGraph(win.app, &win.graph)
	if err != nil {
		return Solution{}, err
	}
	return materialise(scored{lower(eg), win.best}, opts)
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

	costs := unitCosts(app, m)
	return climbRestarts(opts, len(seeds), func(i int, pb *plan.Builder) shardResult {
		return climbForestFrom(app, m, obj, opts, costs, seeds[i], climbBudget(n, len(seeds)), i, pb)
	})
}

// climbRestarts runs restarts 0..n-1 on the worker pool and reduces their
// winners in restart order. A restart whose best meets the period floor
// settles the search: the restarts after it do nothing (floorStop). Each
// restart builds its candidates into a plan builder it hands back when it
// ends, so the restarts one worker runs share one, as branchAndBound's
// shards share walkers; nothing a builder holds outlives its restart, and
// the pool dies with the search.
func climbRestarts(opts Options, n int, restart func(i int, pb *plan.Builder) shardResult) (Solution, error) {
	stop := floorStop{floor: opts.floor}
	builders := sync.Pool{New: func() any { return new(plan.Builder) }}
	shards := par.Map(opts.Workers, n, func(i int) shardResult {
		if stop.settled(i) {
			return shardResult{}
		}
		pb := builders.Get().(*plan.Builder)
		defer builders.Put(pb)
		r := restart(i, pb)
		if r.ok {
			stop.settle(i, r.best.Value)
		}
		return r
	})
	return reduce(shards, opts, "hill climbing found no feasible plan")
}

// floorStop is the shard-order stop of one parallel search: the solve's
// period floor, and 1 + the lowest index of a shard whose best met it (0:
// none yet). No shard after that one can win the reduction — its best is
// at least the floor, and reduce keeps the first strictly best — so it
// does nothing, or stops where it is. A nil floor never settles.
type floorStop struct {
	floor *rat.Rat
	first atomic.Int64
}

// settle records that shard i holds a best of value v.
func (s *floorStop) settle(i int, v rat.Rat) {
	if !atFloor(s.floor, v) {
		return
	}
	for f := s.first.Load(); f == 0 || int64(i) < f-1; f = s.first.Load() {
		if s.first.CompareAndSwap(f, int64(i)+1) {
			return
		}
	}
}

// settled reports whether shard i, or a shard before it, met the floor.
func (s *floorStop) settled(i int) bool {
	f := s.first.Load()
	return f != 0 && int64(i) >= f-1
}

// climbForestFrom runs restart i of the hill climb over forest parent
// vectors from the given start, spending at most budget orchestrations and
// building its candidates into pb: the moves of node v re-parent it under
// each candidate parent.
func climbForestFrom(app *workflow.App, m plan.Model, obj Objective, opts Options, costs unitTables, seed []int, budget, i int, pb *plan.Builder) shardResult {
	n := app.N()
	var rng *rand.Rand // drawn from only when parents are sampled
	// candidateParents returns the parents to try for node v, in one reused
	// slice: all of them on small instances, a random sample above.
	const sampleLimit = 12
	parents := make([]int, 0, sampleLimit)
	candidateParents := func(v int) []int {
		out := append(parents[:0], -1)
		if n <= sampleLimit {
			for p := 0; p < n; p++ {
				if p != v {
					out = append(out, p)
				}
			}
			return out
		}
		if rng == nil {
			rng = climbRand(opts.Seed, i)
		}
		for len(out) < sampleLimit {
			p := rng.Intn(n)
			if p != v {
				out = append(out, p)
			}
		}
		return out
	}

	return climb(app, m, obj, opts, costs, forestGraph(seed), budget, pb, func(e *graphEval, v int, try func(v, a, b int) bool) {
		for _, p := range candidateParents(v) {
			if old := e.parent(v); p != old && !try(v, old, p) {
				break
			}
		}
	})
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
	costs := unitCosts(app, m)
	return climbRestarts(opts, len(starts), func(i int, pb *plan.Builder) shardResult {
		return climbDAGFrom(app, m, obj, opts, costs, starts[i], climbBudget(app.N(), len(starts)), pb)
	})
}

// climbDAGFrom runs one hill climb over DAG edge sets from the given start
// graph (which the climb owns), spending at most budget orchestrations and
// building its candidates into pb: the moves of node u toggle each edge u→v.
func climbDAGFrom(app *workflow.App, m plan.Model, obj Objective, opts Options, costs unitTables, start *dag.Graph, budget int, pb *plan.Builder) shardResult {
	return climb(app, m, obj, opts, costs, start, budget, pb, func(e *graphEval, u int, try func(v, a, b int) bool) {
		// The row is finished even once the budget is spent, as this climb
		// always did: TestClimbDAGDigest pins the answers that follow.
		for v := 0; v < app.N(); v++ {
			switch {
			case u == v:
			case e.g.HasEdge(u, v):
				try(v, u, -1)
			default:
				try(v, -1, u)
			}
		}
	})
}

// climb runs one hill climb from the start graph g, which it owns, spending
// at most budget orchestrations and building every candidate, the start
// first, into pb, in passes over the nodes until a pass improves nothing.
// moves offers node x's moves in order to try, which
// skips without charge a move graphEval.reaches rules out (a cycle, a broken
// precedence constraint, or a bound at the current value), orchestrates the
// rest with the current value as the limit, keeps a strict improvement, and
// reports whether budget is left and the climb goes on.
// r.best is the climb's current point: only strict improvements are ever
// accepted, so the climb returns once that point meets the period floor.
func climb(app *workflow.App, m plan.Model, obj Objective, opts Options, costs unitTables, g *dag.Graph, budget int, pb *plan.Builder,
	moves func(e *graphEval, x int, try func(v, a, b int) bool)) shardResult {
	var r shardResult
	budget--
	c, err := build(pb, app, g)
	if err != nil {
		r.fail(err)
		return r
	}
	if !offerGraph(&r, c, m, obj, opts, orchestrate.NoLimit) || atFloor(opts.floor, r.best.Value) {
		return r
	}
	e := newGraphEval(app, costs, obj, g)
	improved, settled := true, false
	try := func(v, a, b int) bool {
		if !settled && !e.reaches(v, a, b, r.best.Value) {
			budget--
			if c, err := e.candidate(pb, v, a, b); err != nil {
				r.fail(err)
			} else if offerGraph(&r, c, m, obj, opts, r.limit()) {
				e.Move(v, a, b)
				improved, settled = true, atFloor(opts.floor, r.best.Value)
			}
		}
		return budget > 0 && !settled
	}
	cc := cancelCheck{ctx: opts.Ctx}
	for improved && budget > 0 && !settled && !cc.stop() {
		improved = false
		for x := 0; x < app.N() && budget > 0 && !settled && !cc.stop(); x++ {
			moves(e, x, try)
		}
	}
	return r
}

// BiCriteria minimizes latency subject to a period bound (the bi-criteria
// problem the paper's conclusion raises): it scans the forest family (plus
// the greedy chains) for plans whose period under m stays within bound and
// returns the best-latency one. It records no effort (Options.Effort is
// ignored).
func BiCriteria(app *workflow.App, m plan.Model, periodBound rat.Rat, opts Options) (Solution, error) {
	if app.HasPrecedence() {
		return Solution{}, fmt.Errorf("solve: BiCriteria requires no precedence constraints")
	}
	opts = opts.withDefaults()
	n := app.N()
	noPlan := fmt.Sprintf("no plan meets period bound %s under %s", periodBound, m)
	// Only scores are compared — the period against the bound, the latency
	// against the scan's best, each the limit of its scoring — and the one
	// winning latency schedule is materialised at the end.
	tryGraph := func(c candidate, r *shardResult, best orchestrate.Limit) bool {
		per, err := orchestrate.ScorePeriod(c.w, m, opts.Orch, orchestrate.AtMost(periodBound))
		if err != nil || per.NotBelow() || per.Value.Greater(periodBound) {
			return false
		}
		lat, err := orchestrate.ScoreLatency(c.w, m, opts.Orch, best)
		return err == nil && !lat.NotBelow() && r.offer(scored{candidate: c, Score: lat})
	}
	if n <= maxN(opts, 6) {
		// The forest branch-and-bound's tree and shards, with no bound:
		// every forest's plan is scored, its latency against its shard's
		// best (with no bound the shards never read the shared incumbent).
		return branchAndBound(forestTree(app, nil, tryGraph), &incumbent{}, opts, noPlan)
	}
	// Structured candidates: parallel, both greedy chains, and greedy
	// chains split into k parallel sub-chains.
	var best shardResult
	if eg, err := plan.Parallel(app); err == nil {
		tryGraph(lower(eg), &best, best.limit())
	}
	for _, order := range [][]int{GreedyChainOrder(app, m), GreedyLatencyChainOrder(app)} {
		if eg, err := plan.ChainFromOrder(app, order); err == nil {
			tryGraph(lower(eg), &best, best.limit())
		}
		for k := 2; k <= 4 && k <= n; k++ {
			var edges [][2]int
			for i := 0; i < n; i++ {
				if i >= k {
					edges = append(edges, [2]int{order[i-k], order[i]})
				}
			}
			if eg, err := plan.Build(app, edges); err == nil {
				tryGraph(lower(eg), &best, best.limit())
			}
		}
	}
	return reduce([]shardResult{best}, opts, noPlan)
}
