package solve

// The premise of the DAG search's reduced tree (bnb.go): wherever the
// orchestration is exact, dropping a plan edge that another path implies
// never raises the score. Its corollary, that the full family's first best
// DAG is reduced, is checked on the differential corpus (agreeWithOracle).

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
)

// TestRedundantEdgeNeverHelps is the premise as a seeded property over gen
// instances of 3 to 5 services, every profile, with and without precedence:
// for every transitively redundant edge e of a random DAG plan G, under
// every model and objective, Score(G − e) ≤ Score(G) wherever both scorings
// are exact (exactOrchestration and Sched.Exact), at the search's default
// order-search cap and at the differential suite's smaller one. The
// heuristic pairs (OUTORDER period, OVERLAP latency, an order space above
// the cap) carry no such guarantee: their violations are counted and
// logged, not failed.
func TestRedundantEdgeNeverHelps(t *testing.T) {
	profiles := []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding, gen.Neutral}
	seeds := 150
	if testing.Short() {
		seeds = 4
	}
	edges, exact, heuristic, violations := 0, 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		rng := gen.NewRand(int64(9100 + seed))
		n, p := 3+seed%3, profiles[seed%len(profiles)]
		for _, prec := range []bool{false, true} {
			app := gen.App(rng, n, p)
			if prec {
				app = gen.AppWithPrecedence(rng, n, p, 0.3)
			}
			eg := gen.DAGPlan(rng, app, 0.5+0.5*rng.Float64())
			g := eg.Graph()
			reduced, err := g.TransitiveReduction()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range g.Edges() {
				if reduced.HasEdge(e[0], e[1]) {
					continue
				}
				h := g.Clone()
				h.RemoveEdge(e[0], e[1])
				less, err := plan.FromGraph(app, h)
				if err != nil {
					t.Fatalf("seed %d: %s without its implied edge %v: %v", seed, eg, e, err)
				}
				edges++
				for _, opts := range []Options{{}, {Orch: smallOrch()}} {
					for _, m := range plan.Models {
						for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
							full, err := Reevaluate(eg, m, obj, opts)
							if err != nil {
								t.Fatal(err)
							}
							cut, err := Reevaluate(less, m, obj, opts)
							if err != nil {
								t.Fatal(err)
							}
							certain := exactOrchestration(m, obj) && full.Sched.Exact && cut.Sched.Exact
							if certain {
								exact++
							} else {
								heuristic++
							}
							if !cut.Value.Greater(full.Value) {
								continue
							}
							who := fmt.Sprintf("seed %d %s/%s cap %d: %s scores %s, without its implied edge %v %s",
								seed, m, obj, opts.withDefaults().Orch.MaxExhaustive, eg, full.Value, e, cut.Value)
							if certain {
								t.Errorf("%s: an exact scoring rose", who)
								continue
							}
							violations++
							t.Logf("heuristic violation: %s", who)
						}
					}
				}
			}
		}
	}
	if edges == 0 {
		t.Fatal("the corpus drew no plan with an implied edge")
	}
	t.Logf("%d implied edges: %d exact comparisons, %d heuristic with %d violations", edges, exact, heuristic, violations)
}
