package solve

// The exact search: one branch-and-bound driver over the decision trees of
// forests and DAGs. The optimum among chains needs no search: the paper's
// greedy orders (Prop. 8 and 16, Method GreedyChain) reach it in
// O(n log n).
//
// A blind enumeration orchestrates every member of a structural family and
// keeps the first strictly best (the test suite's oracle, oracle_test.go,
// is exactly that). The search here visits the same families in the same
// order — of the DAGs, only the transitively reduced ones (see below) — but
// computes an admissible lower bound (bound.go) on every partial
// decision and discards any subtree whose bound strictly exceeds the shared
// incumbent — the best objective value any worker has proved achievable so
// far. The incumbent is seeded with the greedy-chain solution (and, from
// six services up, the hill climb's) before the first expansion, so
// pruning bites from the root of the branching tree, and the search
// returns the blind enumeration's Solution at a fraction of the
// evaluations (experiment E15 quantifies the reduction; the differential
// suite in bnb_test.go pins the identity). A leaf is scored under the same
// two rules as a bound (shard.limit), so a candidate that could neither
// improve its shard nor win the reduction ends in an order-search cut-off.
//
// # One driver, two trees
//
// A family is only its decision tree (a tree): how many decisions lead to
// a leaf, how many choices each has — forests give node v one of n+1
// parents (none, or a node), DAGs orient node pair k one of 3 ways (no
// edge, u→v, v→u) — and, per shard, how a choice is applied and undone,
// the partial bound and the leaf's score, a scored graph offered to the
// shard's result. The driver, branchAndBound, owns the rest: the shards,
// both pruning rules, the Expanded/Pruned/Evaluated counters, the
// cancellation probe, the leaf dispatch, the reduction and the winner's
// materialisation.
// A choice that is not a member of the family (a forest parent that
// closes a cycle) is skipped uncounted, like a child the tree never had;
// a choice that is a member but dooms every completion (a DAG edge that
// closes a cycle, reverses a precedence path or leaves an edge that
// another path implies) is a cut subtree and counts one Pruned, as a bound
// cut does. BiCriteria's forest scan walks the forest tree through the
// same driver with no bound.
//
// # Only transitively reduced DAGs
//
// A service's input volume is the product of its ancestors' selectivities,
// so an edge u→w that another u→…→w path implies changes no volume: it
// only adds a communication to u's out-port and w's in-port and one more
// operation to order. The DAG tree therefore cuts every orientation that
// leaves such an edge — the new edge is implied, or it makes a decided edge
// implied — and, since edges are only ever added below a node, every
// completion keeps it. The leaves are the transitively reduced DAGs (219
// of the 543 labelled DAGs on 4 nodes, 4 231 of 29 281 on 5). Wherever
// dropping an implied edge never raises the score — everywhere the
// orchestration is exact (reduced_test.go) — the answer is still the full
// family's: the serial order is lexicographic over pair choices with "no
// edge" first, and a DAG's reduction differs from it only by choices
// turned to "no edge", so it comes first, and the full family's first
// strictly best graph is reduced. The differential suite, whose oracle
// still walks every labelled DAG, pins the identity.
//
// # Determinism
//
// The top of the tree is sharded over the par pool: shard i is the i-th
// combination of choices for the first split decisions (forests by the
// first two parents, DAGs by the first three pair orientations), and
// per-shard winners reduce in shard order. The shared
// incumbent makes the SET of expanded nodes depend on worker interleaving,
// but not the returned Solution, because pruning follows two rules: against
// the shared incumbent the test is STRICT (bound > incumbent), and ties
// are cut only against the shard's own best-so-far, which evolves
// independently of the other workers. The bounds are admissible and the
// incumbent never drops below the family optimum, so in every
// interleaving each shard evaluates — and reports — the first graph of its
// serial enumeration order that reaches the shard's minimum value. The
// shard-order reduction then returns the identical Solution — the same one
// the blind enumeration returns — for every worker count. Only the Stats
// counters vary with the interleaving (run with Workers: 1 for
// reproducible counts).
//
// A period search also stops at the instance's period floor (see the
// package documentation): a shard whose best meets it expands nothing
// more, and every shard after the lowest such index does nothing, or
// stops where it is. No leaf is worth less than the floor, so no skipped
// leaf could have improved its shard, and no shard after a floor-valued
// one could win the reduction, which keeps the first strictly best; the
// shards before it still run in full. Which later shards had started when
// the floor was met depends on the interleaving, so again only the
// counters do.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/orchestrate"
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
	// FamilyForest searches all forests.
	FamilyForest
	// FamilyDAG searches the transitively reduced DAGs containing the
	// precedence constraints (in their closure): an edge another path
	// implies changes no data volume, so the reduced DAGs hold the optimum
	// of all DAGs wherever the orchestration is exact.
	FamilyDAG
)

// String names the family for reports.
func (f Family) String() string {
	switch f {
	case FamilyAuto:
		return "auto"
	case FamilyForest:
		return "forest"
	case FamilyDAG:
		return "dag"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Default instance-size caps of the branch-and-bound searches
// (Options.MaxExactN overrides both).
const (
	bnbMaxForestN = 7
	bnbMaxDAGN    = 5
)

// Stats reports the search effort of one branch-and-bound run.
type Stats struct {
	// Expanded counts partial assignments whose bound was computed.
	Expanded int64
	// Pruned counts subtrees discarded because their bound exceeded the
	// incumbent, including the DAG subtrees cut without a bound: an edge
	// that closes a cycle or reverses a precedence path (every completion
	// is invalid) or that leaves an edge another path implies (every
	// completion is outside the transitively reduced family the DAG tree
	// walks; see the file comment).
	Pruned int64
	// Evaluated counts complete graphs whose objective was computed — the
	// number a blind enumeration of the family would drive to its total
	// candidate count.
	Evaluated int64
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
// shard.prunes), which is interleaving-independent.
func (in *incumbent) prunes(c *incumbentCache, bound rat.Rat) bool {
	if g := in.gen.Load(); g != c.gen {
		in.mu.Lock()
		c.gen, c.ok, c.val = in.gen.Load(), in.ok, in.val
		in.mu.Unlock()
	}
	return c.ok && bound.Greater(c.val)
}

// ResolveFamily resolves FamilyAuto to the structural family the
// BranchBound method actually searches for this application and objective:
// DAGs with precedence constraints, forests for MINPERIOD without them
// (the Prop. 4 certificate), DAGs otherwise. Non-auto families pass
// through. Warm-start callers (the planning service) use it to check that
// a seed value is achievable within the searched family before offering it
// as Options.Incumbent: a forest for FamilyForest, a transitively reduced
// DAG for FamilyDAG.
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
	case FamilyForest:
		return branchBoundForest(app, m, obj, opts)
	case FamilyDAG:
		return branchBoundDAG(app, m, obj, opts)
	default:
		return Solution{}, fmt.Errorf("solve: unknown branch-and-bound family %v", opts.Family)
	}
}

// seedIncumbent primes the pruning threshold with fast in-family solutions:
// the greedy chain (a chain is a forest is a DAG) and, from six services
// up, the hill climb, both orchestrated with the same options as the
// search so their values are comparable, and each solved the way a search
// is — scores compared, the one winner materialised — so a seed that
// prunes from the root is the value of a validated schedule; plus the
// caller's warm-start value (Options.Incumbent), the re-evaluated cached
// plan of the planning service's drift re-planning. Seeds only feed
// pruning — the search returns the first enumerated graph reaching the
// optimum, never the seed itself — so a seed at the period floor, which no
// later seed can lower, ends the seeding.
func seedIncumbent(inc *incumbent, app *workflow.App, m plan.Model, obj Objective, opts Options) {
	seed := func(v rat.Rat) bool {
		inc.offer(v)
		return atFloor(opts.floor, v)
	}
	if opts.Incumbent != nil && seed(*opts.Incumbent) {
		return
	}
	if !app.HasPrecedence() {
		if s, err := greedyChainSolution(app, m, obj, opts); err == nil && seed(s.Value) {
			return
		}
	}
	// Below six services the climb costs more than it saves: its 400 + 40n
	// evaluations buy a search that the greedy chain's seed and the leaf
	// cut-offs already keep small. From six up (forests at n = 6, 7, DAGs
	// under MaxExactN) it pays for itself in nodes expanded.
	if app.N() < climbSeedMinN {
		return
	}
	s, err := hillClimb(app, m, obj, opts)
	if err != nil {
		return
	}
	// The DAG climb may keep an edge another path implies; the DAG search
	// holds only the climb graph's transitive reduction, so that graph's
	// value is the seed.
	if g := s.Graph.Graph(); !g.IsReduced() {
		r, _ := g.TransitiveReduction() // the climb's graph is acyclic
		eg, err := plan.FromGraph(app, r)
		if err == nil {
			s, err = solveGraph(eg, m, obj, opts)
		}
		if err != nil {
			return
		}
	}
	inc.offer(s.Value)
}

// climbSeedMinN is the smallest instance seedIncumbent runs the hill climb
// for.
const climbSeedMinN = 6

// --- the driver ---

// step is a tree's verdict on one choice.
type step uint8

const (
	stepOK   step = iota // applied: bound it and search below
	stepSkip             // not a member of the family: nothing to count
	stepCut              // every completion is infeasible: one Pruned
)

// tree is one family's decision tree: depth decisions lead to a leaf,
// decision k has children[k] choices, and the first split decisions shard
// the search. walk builds one shard's private decision state.
type tree struct {
	depth, split int
	children     []int
	walk         func() walker
}

// walker is one shard's decision state. apply takes choice c at decision k
// (decisions 0..k-1 taken) and changes nothing unless it returns stepOK;
// undo reverts an applied choice. bound(k) bounds every completion of the
// first k decisions from below (nil: the search never prunes). leaf scores
// the complete decision into r under the shard's acceptance limit (a
// scoring above it may be cut off) and reports whether r's best improved.
type walker struct {
	apply func(k, c int) step
	undo  func(k, c int)
	bound func(k int) rat.Rat
	leaf  func(r *shardResult, limit orchestrate.Limit) bool
}

// shard is one shard's search: its walker, its outcome, its index and the
// search's floor stop, its counters, its cached view of the shared
// incumbent and its cancellation probe.
type shard struct {
	walker
	*shardResult
	t     *tree
	inc   *incumbent
	stop  *floorStop
	i     int
	stats Stats
	cache incumbentCache
	cc    cancelCheck
}

// branchAndBound searches t on the par pool, pruning against inc, and
// returns the first strictly best leaf of the serial order, materialised —
// see the file comment. The counters go to the solve's tally when it has
// one; noPlan words the error when no leaf was kept.
func branchAndBound(t tree, inc *incumbent, opts Options, noPlan string) (Solution, error) {
	t.split = min(t.split, t.depth)
	n := 1
	for _, c := range t.children[:t.split] {
		n *= c
	}
	// A shard hands its walker back as it found it, so the shards one
	// worker runs share one walker.
	walkers := sync.Pool{New: func() any { w := t.walk(); return &w }}
	results := make([]shardResult, n)
	stop := floorStop{floor: opts.floor}
	stats := par.Map(opts.Workers, n, func(i int) Stats {
		if stop.settled(i) {
			return Stats{}
		}
		w := walkers.Get().(*walker)
		defer walkers.Put(w)
		sh := shard{walker: *w, shardResult: &results[i], t: &t, inc: inc, stop: &stop, i: i, cc: cancelCheck{ctx: opts.Ctx}}
		sh.replay(0, i, n)
		return sh.stats
	})
	if t := opts.tally; t != nil {
		for _, st := range stats {
			t.searched(st)
		}
	}
	return reduce(results, opts, noPlan)
}

// replay takes shard i's choices for the first split decisions — the
// digits of i in the mixed radix of their child counts, most significant
// first; stride is the number of shards sharing the choices taken so far —
// searches below them and undoes them. A skipped choice leaves the shard
// empty; a cut one counts one Pruned.
func (sh *shard) replay(k, i, stride int) {
	if k == sh.t.split {
		sh.descend(k)
		return
	}
	stride /= sh.t.children[k]
	c := i / stride % sh.t.children[k]
	switch sh.apply(k, c) {
	case stepSkip:
		return
	case stepCut:
		sh.stats.Pruned++
		return
	}
	sh.replay(k+1, i, stride)
	sh.undo(k, c)
}

// descend expands the node k decisions deep: it is bounded, and searched
// unless the bound prunes it.
func (sh *shard) descend(k int) {
	sh.stats.Expanded++
	if sh.bound != nil && sh.prunes(sh.bound(k)) {
		sh.stats.Pruned++
		return
	}
	if sh.cc.stop() {
		return
	}
	if k == sh.t.depth {
		sh.stats.Evaluated++
		if sh.leaf(sh.shardResult, sh.limit()) {
			sh.inc.offer(sh.best.Value)
			sh.stop.settle(sh.i, sh.best.Value)
		}
		return
	}
	for c := range sh.t.children[k] {
		if sh.stop.settled(sh.i) {
			return
		}
		switch sh.apply(k, c) {
		case stepSkip:
			continue
		case stepCut:
			sh.stats.Pruned++
			continue
		}
		sh.descend(k + 1)
		sh.undo(k, c)
	}
}

// prunes applies both pruning rules to one subtree bound. Against the
// shard's OWN best the comparison may include ties — the shard already
// holds its serial-first leaf for that value, so cutting later ties
// changes nothing it reports and collapses the plateaus of equal-valued
// completions that dominate filtering instances. Against the shared
// incumbent the comparison stays strict so the result cannot depend on
// when other workers improve it.
func (sh *shard) prunes(bound rat.Rat) bool {
	if sh.ok && !bound.Less(sh.best.Value) {
		return true
	}
	return sh.inc.prunes(&sh.cache, bound)
}

// limit is a leaf's acceptance limit, the two rules of prunes applied to
// its value: the shard keeps only a value below its own best, and a value
// above the cached shared incumbent cannot win the reduction (the
// incumbent is achievable in the family, so the family optimum is at most
// it). The cache is as fresh as the leaf's own bound test left it; with no
// bound it is never read, and the limit is the shard's best alone.
func (sh *shard) limit() orchestrate.Limit {
	l := sh.shardResult.limit()
	if sh.cache.ok {
		l = l.Min(sh.cache.val)
	}
	return l
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
	tr := forestTree(app, newBoundTables(app, m, obj, nil, nil), func(eg *plan.ExecGraph, r *shardResult, limit orchestrate.Limit) bool {
		return offerGraph(r, eg, m, obj, opts, limit)
	})
	sol, err := searchGraphs(tr, app, m, obj, opts, "forest branch-and-bound found no plan")
	sol.Exact = obj == PeriodObjective && sol.Sched.Exact && m != plan.OutOrder
	return sol, err
}

// searchGraphs runs a family's tree from the seeded incumbent.
func searchGraphs(tr tree, app *workflow.App, m plan.Model, obj Objective, opts Options, noPlan string) (Solution, error) {
	inc := &incumbent{}
	seedIncumbent(inc, app, m, obj, opts)
	return branchAndBound(tr, inc, opts, noPlan)
}

// forestTree is the forest family's tree over parent vectors: decision v
// makes node v a root (choice 0) or hangs it under node c-1, skipping the
// parents that would close a cycle, and hands leaf each forest's plan.
// tables feeds the partial bound; nil means a search that never prunes.
func forestTree(app *workflow.App, tables *boundTables, leaf func(eg *plan.ExecGraph, r *shardResult, limit orchestrate.Limit) bool) tree {
	n := app.N()
	return tree{depth: n, split: 2, children: slices.Repeat([]int{n + 1}, n), walk: func() walker {
		parent := slices.Repeat([]int{-1}, n)
		w := walker{
			apply: func(v, c int) step {
				if p := c - 1; p == v || parentChainReaches(parent, p, v) {
					return stepSkip
				}
				parent[v] = c - 1
				return stepOK
			},
			undo: func(v, _ int) { parent[v] = -1 },
			leaf: func(r *shardResult, limit orchestrate.Limit) bool {
				eg, err := plan.FromGraph(app, forestGraph(parent))
				return err == nil && leaf(eg, r, limit)
			},
		}
		if tables != nil {
			b := newBoundScratch(tables)
			w.bound = func(k int) rat.Rat { return b.forest(parent, k) }
		}
		return w
	}}
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
// a precedence path (either makes every completion invalid); a third cuts
// orientations that leave an implied edge, whose completions are all
// outside the transitively reduced family (see the file comment).
func branchBoundDAG(app *workflow.App, m plan.Model, obj Objective, opts Options) (Solution, error) {
	n := app.N()
	if n > maxN(opts, bnbMaxDAGN) {
		return Solution{}, fmt.Errorf("solve: %d services too large for DAG branch-and-bound (max %d)", n, maxN(opts, bnbMaxDAGN))
	}
	precClosure, err := app.Precedence().TransitiveClosure()
	if err != nil {
		return Solution{}, err
	}
	tr := dagTree(app, m, obj, precClosure, func(eg *plan.ExecGraph, r *shardResult, limit orchestrate.Limit) bool {
		return offerGraph(r, eg, m, obj, opts, limit)
	})
	sol, err := searchGraphs(tr, app, m, obj, opts, "DAG branch-and-bound found no plan")
	sol.Exact = sol.Sched.Exact && exactOrchestration(m, obj)
	return sol, err
}

// dagTree is the DAG family's tree: decision k gives pair k (nodePairs
// order) no edge, then u→v, then v→u, cutting an edge that reverses a path
// of prec (the precedence closure), closes a cycle or leaves the graph
// transitively unreduced. A leaf FromGraph rejects misses a precedence
// constraint and never reaches leaf.
func dagTree(app *workflow.App, m plan.Model, obj Objective, prec *dag.Graph, leaf func(eg *plan.ExecGraph, r *shardResult, limit orchestrate.Limit) bool) tree {
	n := app.N()
	pairs := nodePairs(n)
	tables := newBoundTables(app, m, obj, prec, pairs)
	// edge is choice c > 0's edge for pair k.
	edge := func(k, c int) (int, int) {
		if c == 1 {
			return pairs[k][0], pairs[k][1]
		}
		return pairs[k][1], pairs[k][0]
	}
	return tree{depth: len(pairs), split: 3, children: slices.Repeat([]int{3}, len(pairs)), walk: func() walker {
		g := dag.New(n)
		b := newBoundScratch(tables)
		return walker{
			apply: func(k, c int) step {
				if c == 0 {
					return stepOK
				}
				u, v := edge(k, c)
				if prec.HasEdge(v, u) {
					return stepCut
				}
				g.AddEdge(u, v)
				if !b.acyclic(g) || !b.reduced(g) {
					g.RemoveEdge(u, v)
					return stepCut
				}
				return stepOK
			},
			undo: func(k, c int) {
				if c != 0 {
					g.RemoveEdge(edge(k, c))
				}
			},
			bound: func(k int) rat.Rat { return b.dag(g, k) },
			leaf: func(r *shardResult, limit orchestrate.Limit) bool {
				eg, err := plan.FromGraph(app, g)
				return err == nil && leaf(eg, r, limit)
			},
		}
	}}
}
