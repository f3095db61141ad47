package orchestrate

// The order-search fast path.
//
// Choosing per-server receive/send orders is the NP-hard inner loop of
// every plan-level search (Theorem 1 / Prop. 2 / Prop. 3), so this file
// replaces the former flat product enumeration with a pruned, sharded,
// allocation-lean search:
//
//   - Prefix pruning. Orders are fixed slot by slot (one slot per server
//     side with ≥ 2 communications, in server order). After each slot an
//     admissible relaxation of the model's event graph — fixed sides
//     contribute their exact chains, open sides only the constraints every
//     permutation implies — yields a lower bound on all completions, and
//     the subtree is cut when the bound exceeds min(shared incumbent,
//     shard-local best) STRICTLY. Strictness against the shared incumbent
//     is required (a tie may still hide the schedule the serial scan would
//     keep — the solve-layer branch-and-bound discipline); against the
//     shard-local best a tie-cut would also be safe, but the period
//     evaluator's one feasibility check is inherently strict, so ties are
//     conservatively enumerated on both rules. A shard also stops outright
//     once its best reaches the model's static lower bound — nothing can
//     beat the floor.
//
//   - Sharding. The slot decisions are split into contiguous ranges of the
//     serial enumeration order (orderShardPrefixes) and evaluated on the
//     internal/par pool; per-shard winners reduce in shard order with
//     strict-improvement comparison, so every worker count — and the
//     pre-fast-path serial enumeration — returns the bit-identical Result.
//
//   - Scratch reuse. Each shard owns one orderEval, which keeps a
//     resettable event graph and a begin-time buffer; complete assignments
//     are scored with value() (no operation list), and a candidate that
//     improves the shard's best only has its orders copied.
//
// The heuristic path (above MaxExhaustive: priority seeds, adjacent-swap
// climbing, random samples) scores candidates with value() too. Neither
// path builds a schedule: the search returns the winning orders as a Score
// and Score.Materialise rebuilds the list (score.go).

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/rat"
)

// Stats reports the search effort of one exhaustive (pruned) order search.
type Stats struct {
	// Prefixes counts partial order assignments whose bound was computed.
	Prefixes int64
	// Pruned counts subtrees discarded because their bound ruled out any
	// improvement on the incumbent.
	Pruned int64
	// Evaluated counts complete order assignments scored — the number the
	// flat product enumeration would drive to OrderCombinations.
	Evaluated int64
	// BoundEdgesBuilt counts relaxed-graph edges actually constructed by the
	// incremental bound path (full prepares plus one-segment patches);
	// BoundEdgesFlat what from-scratch rebuilds would have constructed
	// (current edge total × bound evaluations). Their ratio is the rebuild
	// work the patching avoids (experiment E19).
	BoundEdgesBuilt int64
	BoundEdgesFlat  int64
	// FilterCertified counts bound feasibility queries decided by the
	// certified float pre-filter alone; FilterFallback those that fell back
	// to exact rational arithmetic.
	FilterCertified int64
	FilterFallback  int64
}

func (s *Stats) add(o Stats) {
	s.Prefixes += o.Prefixes
	s.Pruned += o.Pruned
	s.Evaluated += o.Evaluated
	s.BoundEdgesBuilt += o.BoundEdgesBuilt
	s.BoundEdgesFlat += o.BoundEdgesFlat
	s.FilterCertified += o.FilterCertified
	s.FilterFallback += o.FilterFallback
}

// orderEval is the model-specific machinery of the order search, one
// instance per shard (it owns scratch):
//
//   - value scores a complete assignment cheaply — no operation list (an
//     error marks the assignment infeasible: deadlocking orders);
//   - exceeds is the admissible pruning test on partial assignments:
//     it may return true only when EVERY completion of the partial orders
//     is forced strictly above limit;
//   - floor is the static model lower bound no schedule can beat.
type orderEval interface {
	value(o Orders) (rat.Rat, error)
	exceeds(o Orders, decidedIn, decidedOut []bool, limit rat.Rat) bool
	floor() rat.Rat

	// Incremental bound protocol. prepare builds the segmented relaxed
	// graph for the current decided state (once per shard); patch rebuilds
	// exactly server v's segment after its decided flags or side contents
	// changed; exceedsIncremental answers the same admissible question as
	// exceeds against the prepared+patched graph, running the certified
	// float pre-filter before exact arithmetic. st (may be nil) receives
	// the filter and rebuild-work counters.
	prepare(o Orders, decidedIn, decidedOut []bool, st *Stats)
	patch(server int, o Orders, decidedIn, decidedOut []bool)
	exceedsIncremental(limit rat.Rat) bool
}

// searchIncumbent is the shared pruning threshold of one exhaustive order
// search: the best value any shard has kept so far. Same
// generation-stamped design as the solve layer's branch-and-bound
// incumbent — the hot path reads one atomic, and a stale (higher) cached
// value only weakens strict pruning, never breaks it.
type searchIncumbent struct {
	gen atomic.Uint64
	mu  sync.Mutex
	ok  bool
	val rat.Rat
}

func (in *searchIncumbent) offer(v rat.Rat) {
	in.mu.Lock()
	if !in.ok || v.Less(in.val) {
		in.val, in.ok = v, true
		in.gen.Add(1)
	}
	in.mu.Unlock()
}

// load refreshes the caller's snapshot when the generation moved.
func (in *searchIncumbent) load(gen *uint64, ok *bool, val *rat.Rat) {
	if g := in.gen.Load(); g != *gen {
		in.mu.Lock()
		*gen, *ok, *val = in.gen.Load(), in.ok, in.val
		in.mu.Unlock()
	}
}

// slotRef is one permutable server side; side aliases the search Orders'
// slice, so permuting it permutes the orders in place.
type slotRef struct {
	server int
	out    bool
	side   []int
}

// collectSlots lists the permutable sides of o in the enumeration order of
// the pre-fast-path forEachOrders: server by server, In before Out, only
// sides with at least two communications.
func collectSlots(o Orders) []slotRef {
	var slots []slotRef
	for v := range o.In {
		if len(o.In[v]) > 1 {
			slots = append(slots, slotRef{server: v, out: false, side: o.In[v]})
		}
		if len(o.Out[v]) > 1 {
			slots = append(slots, slotRef{server: v, out: true, side: o.Out[v]})
		}
	}
	return slots
}

// suffixCombos returns, per slot, the number of order combinations of the
// slots strictly after it (capped at limit), i.e. the subtree size a
// successful prune at that slot cuts.
func suffixCombos(slots []slotRef, limit int) []int {
	out := make([]int, len(slots))
	total := 1
	for i := len(slots) - 1; i >= 0; i-- {
		out[i] = total
		total *= factorialCapped(len(slots[i].side), limit)
		if total > limit {
			total = limit + 1
		}
	}
	return out
}

// shardPrefix fixes the leading decision levels of the serial enumeration:
// full position-space permutations for all but the last touched slot, plus
// the first resume positions of the last one. Completing each prefix in
// enumeration order yields a contiguous range of the serial order, and the
// prefixes in sequence partition the whole space.
type shardPrefix struct {
	perms  [][]int
	resume int
}

// searchMinShards is the shard target of the exhaustive search. It is a
// constant — never derived from the worker count — so the shard set, and
// with it the deterministic shard-order reduction, is identical for every
// Options.Workers value.
const searchMinShards = 32

// orderShardPrefixes expands decision levels slot-major, position-minor —
// exactly as the serial enumeration nests them — until at least min
// prefixes exist (or the space is exhausted), returning them in serial
// order.
func orderShardPrefixes(sizes []int, min int) []shardPrefix {
	prefixes := []shardPrefix{{}}
	for s := 0; s < len(sizes); s++ {
		size := sizes[s]
		for k := 0; k+1 < size; k++ {
			if len(prefixes) >= min {
				return prefixes
			}
			next := make([]shardPrefix, 0, len(prefixes)*(size-k))
			for _, p := range prefixes {
				cur := identityPerm(size)
				if len(p.perms) == s+1 {
					cur = p.perms[s]
				}
				for i := k; i < size; i++ {
					perm := append([]int(nil), cur...)
					perm[k], perm[i] = perm[i], perm[k]
					perms := make([][]int, s+1)
					copy(perms, p.perms)
					perms[s] = perm
					next = append(next, shardPrefix{perms: perms, resume: k + 1})
				}
			}
			prefixes = next
		}
	}
	return prefixes
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// orderShardResult is one shard's outcome.
type orderShardResult struct {
	orders Orders // the kept candidate's orders (shard-owned copy)
	val    rat.Rat
	found  bool
	stats  Stats
}

// boundMinSuffix gates prefix bounding: a bound costs about one relaxed
// evaluation, so it only runs where a successful prune cuts at least this
// many completions.
const boundMinSuffix = 4

// searchOrders minimizes the model evaluator over order assignments:
// exhaustively (pruned + sharded, see the file comment) when the
// combination count fits the budget, otherwise seeds + adjacent-swap local
// search. newEval builds one evaluator per shard; bound is the model's
// static lower bound and build the construction that materialises the
// winning orders, both recorded in the returned Score.
func searchOrders(w *plan.Weighted, opts Options, newEval func() orderEval, bound rat.Rat, build construction) (Score, error) {
	opts = opts.withDefaults()
	var s Score
	var err error
	if orderCombinations(w, opts.MaxExhaustive) <= opts.MaxExhaustive {
		s, err = searchOrdersExhaustive(w, opts, newEval)
	} else {
		if opts.Stats != nil {
			*opts.Stats = Stats{}
		}
		s, err = searchOrdersHeuristic(w, opts, newEval())
	}
	s.LowerBound, s.build = bound, build
	return s, err
}

// searchOrdersExhaustive runs the pruned + sharded exact search. Exact is
// always true on this path: pruning is admissible (it never cuts a
// candidate strictly better than a value already proved achievable), so
// the minimum over the searched family is preserved — and the returned
// orders are the ones the serial flat enumeration would keep.
func searchOrdersExhaustive(w *plan.Weighted, opts Options, newEval func() orderEval) (Score, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = 1 // serial default: the caller owns the parallelism budget
	}
	// A serial search runs the whole space as one shard — no per-shard
	// setup, and the shared incumbent degenerates to the local best. The
	// shard granularity cannot change the Result: shards are contiguous
	// ranges of the serial enumeration order, pruning is strict against
	// the shared incumbent, and the shard-order reduction keeps the first
	// strictly-best candidate — the same one for every partition (pinned
	// by the worker-count determinism suite). Small order spaces also run
	// as one serial shard even when workers were offered: below roughly
	// one bound-gated subtree per shard, the goroutine spawns and
	// per-shard evaluator scratch outweigh the work being split.
	minShards := 1
	if workers > 1 && orderCombinations(w, searchMinShards*boundMinSuffix) > searchMinShards*boundMinSuffix {
		minShards = searchMinShards
	}
	if minShards == 1 {
		workers = 1
	}
	probe := collectSlots(DefaultOrders(w))
	sizes := make([]int, len(probe))
	for i, s := range probe {
		sizes[i] = len(s.side)
	}
	prefixes := orderShardPrefixes(sizes, minShards)
	inc := &searchIncumbent{}
	shards := par.Map(workers, len(prefixes), func(i int) orderShardResult {
		return runOrderShard(w, newEval(), prefixes[i], inc)
	})
	var best orderShardResult
	var total Stats
	for _, sh := range shards {
		total.add(sh.stats)
		if !sh.found {
			continue
		}
		// First strictly-best in shard order (= serial order).
		if !best.found || sh.val.Less(best.val) {
			best = sh
		}
	}
	if opts.Stats != nil {
		*opts.Stats = total
	}
	if !best.found {
		return Score{}, fmt.Errorf("orchestrate: no feasible order assignment found")
	}
	return Score{Orders: best.orders, Value: best.val, Exact: true}, nil
}

// runOrderShard enumerates the completions of one shard prefix in serial
// order, bounding each slot decision and keeping the first strictly-best
// feasible candidate.
func runOrderShard(w *plan.Weighted, eval orderEval, prefix shardPrefix, inc *searchIncumbent) orderShardResult {
	orders := DefaultOrders(w)
	slots := collectSlots(orders)
	suffix := suffixCombos(slots, 1<<30)
	floor := eval.floor()

	// decided side flags: trivial sides (≤ 1 comm) are decided from the
	// start; slot sides toggle as the recursion fixes them.
	decIn := make([]bool, w.N())
	decOut := make([]bool, w.N())
	for v := range decIn {
		decIn[v], decOut[v] = true, true
	}
	for _, s := range slots {
		if s.out {
			decOut[s.server] = false
		} else {
			decIn[s.server] = false
		}
	}
	setDecided := func(si int, d bool) {
		if slots[si].out {
			decOut[slots[si].server] = d
		} else {
			decIn[slots[si].server] = d
		}
	}

	// Apply the shard prefix: position-space permutations over the natural
	// side contents, exactly the state the serial enumeration is in when it
	// reaches this shard's range.
	for i, perm := range prefix.perms {
		side := slots[i].side
		natural := append([]int(nil), side...)
		for j, p := range perm {
			side[j] = natural[p]
		}
	}
	fixed := len(prefix.perms) - 1
	if fixed < 0 {
		fixed = 0
	}
	for i := 0; i < fixed; i++ {
		setDecided(i, true)
	}

	var r orderShardResult
	var incGen uint64
	var incOK bool
	var incVal rat.Rat

	// Incremental bound state: one full build per shard, then one-segment
	// patches as slots toggle. Patches are gated exactly like the bounds
	// (suffix ≥ boundMinSuffix); suffix counts are nonincreasing in slot
	// index, so every level at or above a bounding level has patched and the
	// graph is current wherever a bound runs. Shards where no bound can ever
	// fire (tiny slot spaces, no shard prefix) skip the build entirely.
	prepared := fixed > 0 || (len(slots) > 1 && suffix[0] >= boundMinSuffix)
	if prepared {
		eval.prepare(orders, decIn, decOut, &r.stats)
	}
	patchGate := func(si int) bool {
		return prepared && si+1 < len(slots) && suffix[si] >= boundMinSuffix
	}

	// pruneLimit is min(shared incumbent, shard-local best): a subtree
	// whose bound exceeds it STRICTLY cannot contain a candidate the
	// search would keep — pruned values above the shared incumbent never
	// win the reduction, and values above the local best never replace
	// the shard's kept candidate. Subtrees whose bound exactly ties the
	// limit are enumerated (see the file comment).
	pruneLimit := func() (rat.Rat, bool) {
		inc.load(&incGen, &incOK, &incVal)
		switch {
		case r.found && incOK:
			return rat.Min(r.val, incVal), true
		case r.found:
			return r.val, true
		case incOK:
			return incVal, true
		}
		return rat.Rat{}, false
	}

	stopped := false
	var rec func(si int)
	rec = func(si int) {
		if si == len(slots) {
			r.stats.Evaluated++
			val, err := eval.value(orders)
			if err != nil {
				return
			}
			if r.found && !val.Less(r.val) {
				return
			}
			// A candidate strictly above the shared incumbent can
			// neither win the reduction nor tighten the pruning limit
			// below the incumbent, so it is not kept. Ties must be kept:
			// the shard holding the serial-first achiever of the final
			// value wins the reduction, and the incumbent may have been
			// offered by a later shard. A stale (higher) snapshot only
			// keeps more, never less.
			inc.load(&incGen, &incOK, &incVal)
			if incOK && val.Greater(incVal) {
				return
			}
			r.orders.set(orders)
			r.val, r.found = val, true
			inc.offer(val)
			if !r.val.Greater(floor) {
				// Early exit: every remaining candidate is ≥ the static
				// floor = the shard's best, and ties never replace it.
				stopped = true
			}
			return
		}
		resume := 0
		if si == len(prefix.perms)-1 {
			resume = prefix.resume
		}
		permute(slots[si].side, resume, func() bool {
			setDecided(si, true)
			prune := false
			if patchGate(si) {
				eval.patch(slots[si].server, orders, decIn, decOut)
				if limit, ok := pruneLimit(); ok {
					r.stats.Prefixes++
					if eval.exceedsIncremental(limit) {
						r.stats.Pruned++
						prune = true
					}
				}
			}
			if !prune {
				rec(si + 1)
			}
			setDecided(si, false)
			if patchGate(si) {
				// Roll the segment back to the open form for the next
				// placement at this level (and correctness of any bound at
				// an outer level after return).
				eval.patch(slots[si].server, orders, decIn, decOut)
			}
			return !stopped
		})
	}

	// Shard-entry bound: the fully fixed prefix slots alone may already
	// rule the whole shard out.
	if fixed > 0 {
		if limit, ok := pruneLimit(); ok {
			r.stats.Prefixes++
			if eval.exceedsIncremental(limit) {
				r.stats.Pruned++
				return r
			}
		}
	}
	rec(fixed)
	return r
}

// searchOrdersHeuristic runs the above-budget path: deterministic priority
// seeds and random samples refined by adjacent-swap climbing. Candidates
// are scored with value(); an improvement over the best so far has its
// orders copied.
func searchOrdersHeuristic(w *plan.Weighted, opts Options, eval orderEval) (Score, error) {
	var best Orders
	var bestVal rat.Rat
	found := false
	consider := func(o Orders, val rat.Rat) {
		if !found || val.Less(bestVal) {
			best.set(o)
			bestVal, found = val, true
		}
	}
	climb := func(cur Orders) {
		val, err := eval.value(cur)
		if err != nil {
			return
		}
		consider(cur, val)
		// Adjacent-swap hill climbing.
		for pass := 0; pass < opts.LocalSearchPasses; pass++ {
			improved := false
			for v := 0; v < w.N(); v++ {
				for _, side := range [][]int{cur.In[v], cur.Out[v]} {
					for i := 0; i+1 < len(side); i++ {
						side[i], side[i+1] = side[i+1], side[i]
						nv, err := eval.value(cur)
						if err == nil && nv.Less(val) {
							val = nv
							improved = true
							consider(cur, nv)
						} else {
							side[i], side[i+1] = side[i+1], side[i]
						}
					}
				}
			}
			if !improved {
				break
			}
		}
	}
	for _, seed := range heuristicOrderSeeds(w) {
		climb(seed.clone())
	}
	// Random restarts: sample order assignments, then climb from the best
	// sample found.
	if opts.RandomSamples > 0 {
		rng := rand.New(rand.NewSource(opts.Seed))
		var bestSample Orders
		var bestSampleVal rat.Rat
		haveSample := false
		for s := 0; s < opts.RandomSamples; s++ {
			cand := DefaultOrders(w)
			for v := 0; v < w.N(); v++ {
				rng.Shuffle(len(cand.In[v]), func(i, j int) {
					cand.In[v][i], cand.In[v][j] = cand.In[v][j], cand.In[v][i]
				})
				rng.Shuffle(len(cand.Out[v]), func(i, j int) {
					cand.Out[v][i], cand.Out[v][j] = cand.Out[v][j], cand.Out[v][i]
				})
			}
			val, err := eval.value(cand)
			if err != nil {
				continue
			}
			consider(cand, val)
			if !haveSample || val.Less(bestSampleVal) {
				bestSample, bestSampleVal, haveSample = cand.clone(), val, true
			}
		}
		if haveSample {
			climb(bestSample)
		}
	}
	if !found {
		return Score{}, fmt.Errorf("orchestrate: no feasible order assignment found")
	}
	return Score{Orders: best, Value: bestVal, Exact: false}, nil
}
