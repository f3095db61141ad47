package orchestrate

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
)

// Allocation-regression guards on the order-search hot path. The scoring
// budgets are measured steady-state numbers with a little headroom, not
// aspirations; the inner loop — value() and the prefix bound exceeds() on a
// warm evaluator: scratch reuse in the event graph, Howard's policy
// iteration, Tarjan and the longest-path relaxation — must stay exactly
// zero-alloc on every model. If one of these trips, an inner-loop change
// started allocating per evaluation.

// allocEvals returns one evaluator per order-search model on w.
func allocEvals(w *plan.Weighted) []struct {
	name string
	eval orderEval
} {
	return []struct {
		name string
		eval orderEval
	}{
		{"inorder", newInOrderEval(w)},
		{"outorder", newOutOrderEval(w)},
		{"oneport", newOnePortEval(w)},
	}
}

func TestOrderEvalAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	w := gen.Weighted(gen.NewRand(5), 6, 0.6)
	for _, tc := range allocEvals(w) {
		t.Run(tc.name, func(t *testing.T) {
			orders := DefaultOrders(w)
			tc.eval.value(orders)
			got := testing.AllocsPerRun(200, func() {
				if _, err := tc.eval.value(orders); err != nil {
					t.Fatalf("value: %v", err)
				}
			})
			if got > 0 {
				t.Errorf("value: %.2f allocs/run, budget 0", got)
			}
		})
	}
}

// TestBoundAllocBudget pins the prefix bound the search runs after fixing
// its first slot: rebuilding the relaxed graph into the evaluator's warm
// scratch and relaxing it allocates nothing, at a limit the bound prunes
// and at one it does not.
func TestBoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	w := gen.Weighted(gen.NewRand(5), 6, 0.6)
	for _, tc := range allocEvals(w) {
		t.Run(tc.name, func(t *testing.T) {
			orders := DefaultOrders(w)
			slots := collectSlots(orders)
			if len(slots) == 0 {
				t.Fatal("generated plan has no permutable slots")
			}
			decIn := make([]bool, w.N())
			decOut := make([]bool, w.N())
			for v := range decIn {
				decIn[v], decOut[v] = true, true
			}
			for _, s := range slots[1:] {
				if s.out {
					decOut[s.server] = false
				} else {
					decIn[s.server] = false
				}
			}
			limits := [2]rat.Rat{tc.eval.floor().Mul(rat.New(1, 2)), tc.eval.floor().Mul(rat.New(4, 1))}
			if !tc.eval.exceeds(orders, decIn, decOut, limits[0]) || tc.eval.exceeds(orders, decIn, decOut, limits[1]) {
				t.Fatal("the limits do not bracket the bound")
			}
			i := 0
			got := testing.AllocsPerRun(200, func() {
				tc.eval.exceeds(orders, decIn, decOut, limits[i%2])
				i++
			})
			if got > 0 {
				t.Errorf("warm exceeds: %.2f allocs/run, budget 0", got)
			}
		})
	}
}

// TestScoringAllocBudget pins the value-first candidate path: scoring a
// candidate graph builds no operation list. An oplist.List costs four
// allocations (the struct and its three time vectors), so each budget is
// the measured count plus three — deliberately less headroom than one
// list: a change that puts the list back on the candidate path trips it.
// Measured: overlap period 0, tree latency 4,
// one-port latency on a sparse DAG 46 (evaluator and event-graph set-up).
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
		{"one-port-latency/dag", 49, func() (Score, error) { return scoreLatency(dagPlan, plan.InOrder, Options{}) }},
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
