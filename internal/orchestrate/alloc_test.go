package orchestrate

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
)

// Allocation-regression guards on the order-search hot path. The budgets
// are measured steady-state numbers with ~1.5x headroom, not aspirations:
// the patch+bound cycle legitimately allocates O(segment edges) because
// rebuilding a server's segment converts its exact delays to float
// enclosures, but repeat bound queries against an unchanged graph must
// stay near-free, and value() — scratch reuse in the event graph, Howard's
// policy iteration and Tarjan — must stay exactly zero-alloc on every
// model. If one of these trips, an inner-loop change started allocating
// per evaluation instead of per patch.

// allocEvalSetup mirrors runOrderShard's state machine up to "slot 0
// decided": everything decided except the permutable slots, then the
// first slot's side flipped to decided so patch(slot0) is the hot cycle.
func allocEvalSetup(t *testing.T, e orderEval, w interface {
	N() int
}, orders Orders) (slot0 int, decIn, decOut []bool) {
	t.Helper()
	slots := collectSlots(orders)
	if len(slots) == 0 {
		t.Fatal("generated plan has no permutable slots")
	}
	decIn = make([]bool, w.N())
	decOut = make([]bool, w.N())
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
	e.prepare(orders, decIn, decOut, nil)
	s0 := slots[0]
	if s0.out {
		decOut[s0.server] = true
	} else {
		decIn[s0.server] = true
	}
	return s0.server, decIn, decOut
}

func TestOrderEvalAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	w := gen.Weighted(gen.NewRand(5), 6, 0.6)
	cases := []struct {
		name       string
		eval       orderEval
		patchBound float64 // patch + exceedsIncremental cycle
		value      float64 // value() on full orders
	}{
		// Measured: inorder 98/0, outorder 98/0, oneport 222/0 — value() is
		// one ratio-only MCR (or one longest-path pass) on reused scratch.
		{"inorder", newInOrderEval(w), 150, 0},
		{"outorder", newOutOrderEval(w), 150, 0},
		{"oneport", newOnePortEval(w), 330, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orders := DefaultOrders(w)
			slot0, decIn, decOut := allocEvalSetup(t, tc.eval, w, orders)
			limit := tc.eval.floor().Mul(rat.New(3, 2))
			for i := 0; i < 3; i++ {
				tc.eval.patch(slot0, orders, decIn, decOut)
				tc.eval.exceedsIncremental(limit)
			}
			got := testing.AllocsPerRun(200, func() {
				tc.eval.patch(slot0, orders, decIn, decOut)
				tc.eval.exceedsIncremental(limit)
			})
			if got > tc.patchBound {
				t.Errorf("patch+exceedsIncremental: %.2f allocs/run, budget %.0f", got, tc.patchBound)
			}
			got = testing.AllocsPerRun(200, func() {
				if _, err := tc.eval.value(orders); err != nil {
					t.Fatalf("value: %v", err)
				}
			})
			if got > tc.value {
				t.Errorf("value: %.2f allocs/run, budget %.0f", got, tc.value)
			}
		})
	}
}

// TestRepeatBoundAllocBudget pins the repeat-query path: bounding the same
// decided state again without an intervening patch reuses every cached
// segment weight, so the only allocations left are the float enclosure of
// the query limit itself (measured 10-12).
func TestRepeatBoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	w := gen.Weighted(gen.NewRand(5), 6, 0.6)
	e := newInOrderEval(w)
	orders := DefaultOrders(w)
	decIn := make([]bool, w.N())
	decOut := make([]bool, w.N())
	e.prepare(orders, decIn, decOut, nil)

	limit := e.floor().Mul(rat.New(3, 2))
	e.exceedsIncremental(limit)
	if got := testing.AllocsPerRun(200, func() { e.exceedsIncremental(limit) }); got > 20 {
		t.Errorf("repeat exceedsIncremental, fixed limit: %.2f allocs/run, budget 20", got)
	}

	l2 := e.floor().Mul(rat.New(5, 4))
	e.seg.FeasibleAt(l2)
	if got := testing.AllocsPerRun(200, func() { e.seg.FeasibleAt(l2) }); got > 20 {
		t.Errorf("segmented repeat FeasibleAt, same lambda: %.2f allocs/run, budget 20", got)
	}

	alt := [2]rat.Rat{l2, limit}
	i := 0
	if got := testing.AllocsPerRun(200, func() { e.seg.FeasibleAt(alt[i%2]); i++ }); got > 20 {
		t.Errorf("segmented FeasibleAt, alternating lambda: %.2f allocs/run, budget 20", got)
	}
}

// TestScoringAllocBudget pins the value-first candidate path: scoring a
// candidate graph builds no operation list. An oplist.List costs four
// allocations (the struct and its three time vectors), so each budget is
// the measured count plus three — deliberately less headroom than one
// list, unlike the 1.5x budgets above: a change that puts the list back on
// the candidate path trips it. Measured: overlap period 0, tree latency 4,
// one-port latency on a sparse DAG 239 (evaluator and event-graph set-up).
func TestScoringAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	rng := gen.NewRand(11)
	app := gen.App(rng, 6, gen.Mixed)
	forest := gen.ForestPlan(rng, app).Weighted()
	// A sparse DAG: a few order combinations, so the search scores a handful
	// of assignments and the count stays small enough to see one list.
	var dagPlan *plan.Weighted
	for dagPlan == nil {
		if w := gen.DAGPlan(rng, app, 0.2).Weighted(); !isForestShaped(w) && orderCombinations(w, 4) <= 4 {
			dagPlan = w
		}
	}
	cases := []struct {
		name   string
		budget float64
		score  func() (Score, error)
	}{
		{"overlap-period/forest", 3, func() (Score, error) { return scorePeriod(forest, plan.Overlap, Options{}) }},
		{"tree-latency/forest", 7, func() (Score, error) { return scoreLatency(forest, plan.InOrder, Options{}) }},
		{"one-port-latency/dag", 242, func() (Score, error) { return scoreLatency(dagPlan, plan.InOrder, Options{}) }},
	}
	for _, tc := range cases {
		got := testing.AllocsPerRun(100, func() {
			if _, err := tc.score(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs per scoring, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// TestMaxCycleRatioAllocBudget pins the reused-graph MCR: once the scratch
// has grown to the graph, a ratio-only query allocates nothing.
func TestMaxCycleRatioAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	w := gen.Weighted(gen.NewRand(5), 6, 0.6)
	g := buildInOrderGraph(w, DefaultOrders(w))
	if _, err := g.MaxCycleRatio(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { g.MaxCycleRatio() }); got > 0 {
		t.Errorf("MaxCycleRatio on a warm graph: %.2f allocs/run, budget 0", got)
	}
}
