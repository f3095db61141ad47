package orchestrate

// The order-search suite: equivalence with the flat enumeration, bound
// admissibility on partial assignments, and the search counters.

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/oplist"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/rat"
)

// searchCase is one (plan, entry point) pair of the equivalence suite.
type searchCase struct {
	name string
	run  func(w *plan.Weighted, opts Options) (Result, error)
	with func(w *plan.Weighted, o Orders) (*oplist.List, error)
	val  func(l *oplist.List) rat.Rat
}

func searchCases() []searchCase {
	return []searchCase{
		{
			name: "inorder-period",
			run:  InOrderPeriod,
			with: InOrderPeriodWithOrders,
			val:  func(l *oplist.List) rat.Rat { return l.Lambda() },
		},
		{
			name: "outorder-period",
			run:  OutOrderPeriod,
			with: func(w *plan.Weighted, o Orders) (*oplist.List, error) {
				l, _, err := newOutOrderEval(w).list(o)
				return l, err
			},
			val: func(l *oplist.List) rat.Rat { return l.Lambda() },
		},
		{
			name: "oneport-latency",
			run:  OnePortLatency,
			with: OnePortLatencyWithOrders,
			val:  func(l *oplist.List) rat.Rat { return l.Latency() },
		},
	}
}

// forEachOrders is the flat enumeration: every order combination, slot by
// slot in collectSlots order, invoking fn with a reused Orders value (fn
// must not retain it). fn returns false to stop.
func forEachOrders(w *plan.Weighted, fn func(Orders) bool) {
	orders := DefaultOrders(w)
	slots := collectSlots(orders)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(slots) {
			return fn(orders)
		}
		cont := true
		permute(slots[i].side, 0, func() bool {
			cont = rec(i + 1)
			return cont
		})
		return cont
	}
	rec(0)
}

// naiveBest is the pre-fast-path reference: score every order assignment
// through the full WithOrders constructor and keep the first strictly-best
// feasible one.
func naiveBest(w *plan.Weighted, c searchCase) (*oplist.List, bool) {
	var best *oplist.List
	var bestVal rat.Rat
	forEachOrders(w, func(o Orders) bool {
		l, err := c.with(w, o)
		if err != nil {
			return true
		}
		if v := c.val(l); best == nil || v.Less(bestVal) {
			best, bestVal = l, v
		}
		return true
	})
	return best, best != nil
}

// listsIdentical compares two schedules operation by operation.
func listsIdentical(a, b *oplist.List) bool {
	w := a.Plan()
	if !a.Lambda().Equal(b.Lambda()) {
		return false
	}
	for v := 0; v < w.N(); v++ {
		if !a.CalcBegin(v).Equal(b.CalcBegin(v)) {
			return false
		}
	}
	for ei := range w.Edges() {
		if !a.CommBegin(ei).Equal(b.CommBegin(ei)) || !a.CommEnd(ei).Equal(b.CommEnd(ei)) {
			return false
		}
	}
	return true
}

// searchTestPlans yields a mix of paper and random plans whose order
// spaces are exhaustively searchable yet non-trivial; maxCombos bounds
// the ground-truth enumeration the caller can afford.
func searchTestPlans(t *testing.T, maxCombos int) []*plan.Weighted {
	t.Helper()
	plans := []*plan.Weighted{paperex.Fig1Graph().Weighted()}
	if OrderCombinations(paperex.B3Weighted(), maxCombos) <= maxCombos {
		plans = append(plans, paperex.B3Weighted())
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := gen.NewRand(seed)
		var w *plan.Weighted
		if seed%2 == 0 {
			app := gen.App(rng, 3+rng.Intn(4), gen.Mixed)
			w = gen.DAGPlan(rng, app, 0.5).Weighted()
		} else {
			w = gen.Weighted(rng, 3+rng.Intn(4), 0.5)
		}
		if c := OrderCombinations(w, maxCombos); c < 2 || c > maxCombos {
			continue
		}
		plans = append(plans, w)
	}
	return plans
}

// TestPrunedSearchMatchesFlatEnumeration pins the search's equivalence:
// the pruned exhaustive search returns the bit-identical Result
// (value, schedule, Exact) the pre-fast-path flat product scan kept, on
// every entry point.
func TestPrunedSearchMatchesFlatEnumeration(t *testing.T) {
	for pi, w := range searchTestPlans(t, 720) {
		for _, c := range searchCases() {
			want, ok := naiveBest(w, c)
			res, err := c.run(w, Options{})
			if !ok {
				if err == nil {
					t.Fatalf("plan %d %s: naive found nothing but search returned %s", pi, c.name, res.Value)
				}
				continue
			}
			if err != nil {
				t.Fatalf("plan %d %s: %v", pi, c.name, err)
			}
			if !res.Exact {
				t.Fatalf("plan %d %s: search must be exhaustive (%d combinations)", pi, c.name, OrderCombinations(w, 4096))
			}
			if !res.Value.Equal(c.val(want)) {
				t.Fatalf("plan %d %s: pruned value %s != flat enumeration %s", pi, c.name, res.Value, c.val(want))
			}
			if !listsIdentical(res.List, want) {
				t.Fatalf("plan %d %s: pruned schedule differs from the flat enumeration's winner", pi, c.name)
			}
		}
	}
}

// TestPrefixBoundAdmissible checks the pruning bounds against ground
// truth: whenever exceeds(partial, limit) claims every completion lies
// strictly above limit, no completion's true value may be ≤ limit. The
// partial assignments replayed here are exactly the ones the search
// visits: the first k slots fixed (in enumeration order), the rest open.
// At k = len(slots) the bound must also be tight.
func TestPrefixBoundAdmissible(t *testing.T) {
	evals := []struct {
		name string
		mk   func(w *plan.Weighted) orderEval
	}{
		{"inorder", func(w *plan.Weighted) orderEval { return newInOrderEval(w) }},
		{"outorder", func(w *plan.Weighted) orderEval { return newOutOrderEval(w) }},
		{"oneport", func(w *plan.Weighted) orderEval { return newOnePortEval(w) }},
	}
	for pi, w := range searchTestPlans(t, 120) {
		for _, ev := range evals {
			bound := ev.mk(w)
			scorer := ev.mk(w)
			orders := DefaultOrders(w)
			slots := collectSlots(orders)
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
			// Fix slots one by one (each in a deterministic non-natural
			// permutation) and verify the bound at every prefix depth.
			for k := 0; k <= len(slots); k++ {
				if k > 0 {
					s := slots[k-1]
					// rotate the side by one: a fixed, non-trivial choice
					side := s.side
					first := side[0]
					copy(side, side[1:])
					side[len(side)-1] = first
					if s.out {
						decOut[s.server] = true
					} else {
						decIn[s.server] = true
					}
				}
				// Ground truth: the best completion value over the open slots.
				var bestVal rat.Rat
				found := false
				var complete func(si int)
				complete = func(si int) {
					if si == len(slots) {
						if v, err := scorer.value(orders); err == nil {
							if !found || v.Less(bestVal) {
								bestVal, found = v, true
							}
						}
						return
					}
					permute(slots[si].side, 0, func() bool {
						complete(si + 1)
						return true
					})
				}
				complete(k)
				if !found {
					// Every completion infeasible: exceeds may claim anything.
					continue
				}
				if bound.exceeds(orders, decIn, decOut, bestVal) {
					t.Fatalf("plan %d %s prefix %d: bound claims every completion > %s, but one achieves it",
						pi, ev.name, k, bestVal)
				}
				// At a leaf every side is decided and the bound is the value
				// itself: any limit below it is exceeded. This pins that the
				// graph of a complete assignment (no per-server self-loops)
				// loses no constraint.
				if below := bestVal.Mul(rat.New(999, 1000)); k == len(slots) && bestVal.Sign() > 0 &&
					!bound.exceeds(orders, decIn, decOut, below) {
					t.Fatalf("plan %d %s: leaf bound admits %s below the value %s", pi, ev.name, below, bestVal)
				}
			}
		}
	}
}

// TestSearchStatsAndPruning exercises the counters on an instance the
// probe established prunes hard (seed 2: 1728 combinations): the pruned
// search must both cut subtrees and score strictly fewer assignments than
// the flat product, while still certifying the flat enumeration's value.
func TestSearchStatsAndPruning(t *testing.T) {
	rng := gen.NewRand(2)
	app := gen.App(rng, 3+rng.Intn(4), gen.Mixed)
	w := gen.DAGPlan(rng, app, 0.6).Weighted()
	combos := OrderCombinations(w, 1<<30)
	if combos < 100 {
		t.Fatalf("probe instance degenerated: %d combinations", combos)
	}
	var st Stats
	res, err := InOrderPeriod(w, Options{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("order space (%d) must be searched exhaustively", combos)
	}
	if st.Pruned == 0 {
		t.Fatal("expected pruned subtrees on this instance")
	}
	if st.Evaluated >= int64(combos) {
		t.Fatalf("evaluated %d, want strictly fewer than the %d-combination product", st.Evaluated, combos)
	}
	naive, ok := naiveBest(w, searchCases()[0])
	if !ok || !res.Value.Equal(naive.Lambda()) {
		t.Fatalf("pruned value %s disagrees with the flat enumeration", res.Value)
	}
	t.Logf("%d combinations, %d prefixes bounded, %d pruned, %d evaluated",
		combos, st.Prefixes, st.Pruned, st.Evaluated)

	// An instance whose first candidate already meets the per-server floor
	// (probe seed 27 under OUTORDER) must stop after one evaluation.
	rng = gen.NewRand(27)
	app = gen.App(rng, 3+rng.Intn(4), gen.Mixed)
	fw := gen.DAGPlan(rng, app, 0.6).Weighted()
	var fst Stats
	fres, err := OutOrderPeriod(fw, Options{Stats: &fst})
	if err != nil {
		t.Fatal(err)
	}
	if !fres.Value.Equal(fw.PeriodLowerBound(plan.OutOrder)) {
		t.Fatalf("probe instance degenerated: value %s != floor %s", fres.Value, fw.PeriodLowerBound(plan.OutOrder))
	}
	if fst.Evaluated != 1 {
		t.Fatalf("floor early exit expected after 1 evaluation, got %d", fst.Evaluated)
	}
}

// TestHeuristicPathStatsReset pins that the heuristic path zeroes the
// caller's Stats instead of leaving stale exhaustive counters around.
func TestHeuristicPathStatsReset(t *testing.T) {
	w := paperex.B2Graph().Weighted()
	st := Stats{Evaluated: 99}
	res, err := InOrderPeriod(w, Options{MaxExhaustive: 1, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("budget 1 must take the heuristic path")
	}
	if st != (Stats{}) {
		t.Fatalf("heuristic path left stale stats %+v", st)
	}
}
