package orchestrate

// The order search.
//
// Choosing per-server receive/send orders is the NP-hard inner loop of
// every plan-level search (Theorem 1 / Prop. 2 / Prop. 3). Below the
// exhaustive budget the orders are fixed slot by slot (one slot per server
// side with ≥ 2 communications, in server order) and each slot decision is
// bounded: an admissible relaxation of the model's event graph — fixed
// sides contribute their exact chains, open sides only the constraints
// every permutation implies — is rebuilt into the evaluator's reusable
// graph, and the subtree is cut when it admits no value at most the best
// kept so far. Ties are enumerated (the period evaluator's feasibility
// check is inherently strict), so the search keeps exactly the candidate
// the flat product enumeration keeps: the first strictly-best one. It
// stops outright once the best reaches the model's static lower bound —
// nothing can beat the floor.
//
// A caller's Limit (score.go) is the prune threshold until the first
// complete assignment is kept, and an assignment above it is never kept:
// the search returns the same optimum and orders when the optimum is
// within the limit, and a not-below Score (a cut-off) when the bounds rule
// every assignment out. A floor above the limit is a cut-off before any
// search, on either path; the heuristic path is otherwise unlimited.
//
// Each evaluator owns its scratch and reuses it across assignments: the
// period evaluators a resettable event graph and a begin-time buffer, the
// one-port latency evaluator pointer-free integer arrays (or, when the
// plan's durations do not fit its integer lane, an event graph too).
// Complete assignments are scored with value() (no operation list), and a
// candidate that improves the best only has its orders copied.
//
// The heuristic path (above MaxExhaustive: priority seeds, adjacent-swap
// climbing, random samples) scores candidates with value() too. Neither
// path builds a schedule: the search returns the winning orders as a Score
// and Score.Materialise rebuilds the list (score.go).

import (
	"fmt"

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
	// CutOffs counts searches that ended not-below their Limit: 0 or 1 for
	// one search, a sum once aggregated over a solve's candidates.
	CutOffs int64
	// BoundEdgesBuilt, BoundEdgesFlat, FilterCertified and FilterFallback
	// are inert: nothing writes or reads them. They counted the work of an
	// incremental bound and its float pre-filter, both gone, and remain
	// only because bench/plancold.go:399-402 sums them and bench/ is not
	// edited outside a benchmark change.
	BoundEdgesBuilt int64
	BoundEdgesFlat  int64
	FilterCertified int64
	FilterFallback  int64
}

// orderEval is the model-specific machinery of the order search (it owns
// scratch):
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
}

// slotRef is one permutable server side; side aliases the search Orders'
// slice, so permuting it permutes the orders in place.
type slotRef struct {
	server int
	out    bool
	side   []int
}

// collectSlots lists the permutable sides of o in enumeration order: server
// by server, In before Out, only sides with at least two communications.
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

// boundMinSuffix gates prefix bounding: a bound costs about one relaxed
// evaluation, so it only runs where a successful prune cuts at least this
// many completions.
const boundMinSuffix = 4

// searchOrders minimizes the model evaluator over order assignments:
// exhaustively (pruned, see the file comment) when the combination count
// fits the budget, otherwise seeds + adjacent-swap local search. The
// evaluator's floor and build, the construction that materialises the
// winning orders, are recorded in the returned Score; a floor above limit
// is a cut-off before either path runs.
func searchOrders(w *plan.Weighted, opts Options, eval orderEval, build construction, limit Limit) (Score, error) {
	opts = opts.withDefaults()
	bound := eval.floor()
	if limit.excludes(bound) {
		if opts.Stats != nil {
			*opts.Stats = Stats{CutOffs: 1}
		}
		return cutOff(limit), nil
	}
	var s Score
	var err error
	if orderCombinations(w, opts.MaxExhaustive) <= opts.MaxExhaustive {
		s, err = searchOrdersExhaustive(w, opts, eval, limit)
	} else {
		if opts.Stats != nil {
			*opts.Stats = Stats{}
		}
		s, err = searchOrdersHeuristic(w, eval)
	}
	if !s.NotBelow() {
		s.LowerBound, s.build = bound, build
	}
	return s, err
}

// searchOrdersExhaustive runs the pruned exact search. Exact is always true
// on this path: pruning is admissible (it never cuts a candidate strictly
// better than a value already proved achievable, nor one within limit), so
// the minimum over the searched family is preserved — and the returned
// orders are the ones the flat enumeration would keep. With no assignment
// kept under a limit the outcome is a cut-off.
func searchOrdersExhaustive(w *plan.Weighted, opts Options, eval orderEval, limit Limit) (Score, error) {
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

	var st Stats
	var best Orders
	var bestVal rat.Rat
	found, stopped := false, false
	var rec func(si int)
	rec = func(si int) {
		if si == len(slots) {
			st.Evaluated++
			val, err := eval.value(orders)
			if err != nil || limit.excludes(val) || (found && !val.Less(bestVal)) {
				return
			}
			best.set(orders)
			bestVal, found = val, true
			// Early exit: every remaining candidate is ≥ the static floor =
			// the best, and ties never replace it.
			stopped = !bestVal.Greater(floor)
			return
		}
		permute(slots[si].side, 0, func() bool {
			setDecided(si, true)
			// A subtree whose bound exceeds the best (before the first,
			// the limit) STRICTLY cannot hold a candidate the search would
			// keep; one that ties is enumerated.
			if (found || limit.ok) && suffix[si] >= boundMinSuffix {
				st.Prefixes++
				threshold := limit.v
				if found {
					threshold = bestVal
				}
				if eval.exceeds(orders, decIn, decOut, threshold) {
					st.Pruned++
				} else {
					rec(si + 1)
				}
			} else {
				rec(si + 1)
			}
			setDecided(si, false)
			return !stopped
		})
	}
	rec(0)
	cut := !found && limit.ok
	if cut {
		st.CutOffs = 1
	}
	if opts.Stats != nil {
		*opts.Stats = st
	}
	switch {
	case cut:
		return cutOff(limit), nil
	case !found:
		return Score{}, fmt.Errorf("orchestrate: no feasible order assignment found")
	}
	return Score{Orders: best, Value: bestVal, Exact: true}, nil
}

// localSearchPasses bounds the adjacent-swap climbing passes of the
// heuristic path per seed.
const localSearchPasses = 8

// searchOrdersHeuristic runs the above-budget path: deterministic priority
// seeds refined by adjacent-swap climbing. Candidates are scored with
// value(); an improvement over the best so far has its orders copied.
func searchOrdersHeuristic(w *plan.Weighted, eval orderEval) (Score, error) {
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
		for pass := 0; pass < localSearchPasses; pass++ {
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
	if !found {
		return Score{}, fmt.Errorf("orchestrate: no feasible order assignment found")
	}
	return Score{Orders: best, Value: bestVal, Exact: false}, nil
}
