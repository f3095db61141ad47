package orchestrate

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
)

// Allocation-regression guards on the order-search hot path. The scoring
// budgets are measured steady-state numbers with a little headroom, not
// aspirations; the inner loop — value() and the prefix bound exceeds() on a
// warm evaluator: scratch reuse in the event graph, Howard's policy
// iteration, Tarjan and the longest-path relaxation, and the one-port
// integer lane's Kahn pass — must stay exactly zero-alloc on every model
// and on both one-port lanes. If one of these trips, an inner-loop change
// started allocating per evaluation.

// allocEval is one row of the warm-evaluator guards: an order-search
// evaluator and the plan it scores.
type allocEval struct {
	name string
	w    *plan.Weighted
	eval orderEval
}

// allocEvals returns one evaluator per order-search model on a gen plan,
// plus the one-port latency evaluator on a planted plan whose durations
// overflow the integer lane, so that both lanes are guarded.
func allocEvals(t *testing.T) []allocEval {
	w := gen.Weighted(gen.NewRand(5), 6, 0.6)
	wide := overflowPlans(t)["lcm"]
	oneport, fallback := newOnePortEval(w), newOnePortEval(wide)
	if oneport.lane == nil || fallback.lane != nil {
		t.Fatalf("one-port lanes: gen plan on the integer lane %v, planted plan %v; want true, false",
			oneport.lane != nil, fallback.lane != nil)
	}
	return []allocEval{
		{"inorder", w, newInOrderEval(w)},
		{"outorder", w, newOutOrderEval(w)},
		{"oneport", w, oneport},
		{"oneport-fallback", wide, fallback},
	}
}

func TestOrderEvalAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, tc := range allocEvals(t) {
		t.Run(tc.name, func(t *testing.T) {
			orders := DefaultOrders(tc.w)
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
	for _, tc := range allocEvals(t) {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.w
			orders := DefaultOrders(w)
			slots := collectSlots(orders)
			if len(slots) == 0 {
				t.Fatal("plan has no permutable slots")
			}
			decIn, decOut := openFlags(w, slots)
			setSide(decIn, decOut, slots[0], true)
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
// Measured: overlap period 0,
// one-port latency on a sparse DAG 11 (evaluator and integer-lane set-up;
// 35 while every server's order list was an allocation of its own, 46 on
// the event graph the lane replaced). A one-port latency scoring
// whose floor exceeds its limit builds only the evaluator's struct and its
// scaled durations, and its budget is exactly those two. Tree latency's
// budget is exactly its three slices — rest[] with the path bound the same
// pass computes, the orders and their backing array — one fewer than
// while its LowerBound called LatencyPathBound, which allocates a vector
// of its own.
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
	belowFloor := AtMost(dagPlan.LatencyPathBound().Mul(rat.New(1, 2)))
	cases := []struct {
		name   string
		budget float64
		score  func() (Score, error)
	}{
		{"overlap-period/forest", 3, func() (Score, error) { return ScorePeriod(forest, plan.Overlap, Options{}, NoLimit) }},
		{"tree-latency/forest", 3, func() (Score, error) { return ScoreLatency(forest, plan.InOrder, Options{}, NoLimit) }},
		{"one-port-latency/dag", 14, func() (Score, error) { return ScoreLatency(dagPlan, plan.InOrder, Options{}, NoLimit) }},
		{"one-port-latency/dag/below-floor", 2, func() (Score, error) { return ScoreLatency(dagPlan, plan.InOrder, Options{}, belowFloor) }},
	}
	for _, tc := range cases {
		if s, err := tc.score(); err != nil || s.NotBelow() != strings.HasSuffix(tc.name, "below-floor") {
			t.Fatalf("%s: scored %+v, %v", tc.name, s, err)
		}
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
// has grown to the graph, a ratio-only query on a warm INORDER evaluator's
// complete graph allocates nothing.
func TestMaxCycleRatioAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	w := gen.Weighted(gen.NewRand(5), 6, 0.6)
	e := newInOrderEval(w)
	e.build(DefaultOrders(w), nil, nil)
	if _, err := e.g.MaxCycleRatio(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { e.g.MaxCycleRatio() }); got > 0 {
		t.Errorf("MaxCycleRatio on a warm graph: %.2f allocs/run, budget 0", got)
	}
}

// TestCutOffSearchAllocBudget pins the cut-off path of the exhaustive
// order search: on a warm INORDER period evaluator and a warm one-port
// latency evaluator, a search under a limit — at the optimum, where it
// returns the optimum, and at 0.9 × it, where it ends in a cut-off —
// allocates no more than the unlimited search, whose count (the orders,
// slot and flag set-up plus one copy of the best orders per improvement)
// stays within its budget: measured 10 on both, plus three (34 while every
// server's order list was an allocation of its own).
func TestCutOffSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	w := gen.Weighted(gen.NewRand(5), 6, 0.6)
	opts := Options{MaxExhaustive: 4096}
	for _, tc := range []struct {
		name   string
		eval   orderEval
		budget float64
	}{
		{"inorder-period", newInOrderEval(w), 13},
		{"oneport-latency", newOnePortEval(w), 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if c := orderCombinations(w, opts.MaxExhaustive); c > opts.MaxExhaustive || c < 4 {
				t.Fatalf("%d order combinations: not an exhaustive search worth bounding", c)
			}
			s0, err := searchOrdersExhaustive(w, opts, tc.eval, NoLimit)
			if err != nil {
				t.Fatal(err)
			}
			count := func(limit Limit) float64 {
				return testing.AllocsPerRun(50, func() {
					if _, err := searchOrdersExhaustive(w, opts, tc.eval, limit); err != nil {
						t.Fatal(err)
					}
				})
			}
			unlimited := count(NoLimit)
			if unlimited > tc.budget {
				t.Errorf("unlimited search: %.0f allocs, budget %.0f", unlimited, tc.budget)
			}
			for _, limit := range []Limit{AtMost(s0.Value), AtMost(s0.Value.Mul(rat.New(9, 10)))} {
				if got := count(limit); got > unlimited {
					t.Errorf("search under %v: %.0f allocs, unlimited %.0f", limit.v, got, unlimited)
				}
			}
		})
	}
}

// TestMaterialiseAllocBudget pins Score.Materialise on a fixed 7-service
// plan whose OUTORDER winner is the pipelined template: each template's
// event graph is built and solved once, and the schedule's bottleneck is
// the critical cycle of that one MCR call. Measured 44 (INORDER) and 95
// (OUTORDER), the budgets; 89 and 161 while the bottleneck labels rebuilt
// a second graph from orders re-read off the list's begin times.
func TestMaterialiseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	rng := gen.NewRand(7)
	w := gen.DAGPlan(rng, gen.App(rng, 7, gen.Mixed), 0.5).Weighted()
	for _, tc := range []struct {
		m      plan.Model
		budget float64
	}{{plan.InOrder, 44}, {plan.OutOrder, 95}} {
		s, err := ScorePeriod(w, tc.m, Options{MaxExhaustive: 4096}, NoLimit)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Materialise(w)
		if err != nil || len(res.Bottleneck) == 0 {
			t.Fatalf("%s: materialised %v, %v: want a cycle-bound schedule", tc.m, res.Bottleneck, err)
		}
		if tc.m == plan.OutOrder && res.List.Validate(plan.InOrder) == nil {
			t.Fatalf("OUTORDER winner is INORDER-valid: the pipelined path goes unmeasured")
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := s.Materialise(w); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs per Materialise, budget %.0f", tc.m, got, tc.budget)
		}
	}
}
