package solve

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

func smallOrch() orchestrate.Options {
	return orchestrate.Options{MaxExhaustive: 256, LocalSearchPasses: 2}
}

// --- E6/E7: the chain greedies match brute force over all n! chains ---

func TestGreedyChainPeriodMatchesExactChain(t *testing.T) {
	profiles := []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding}
	for seed := int64(0); seed < 12; seed++ {
		for _, p := range profiles {
			app := gen.App(gen.NewRand(seed), 6, p)
			for _, m := range plan.Models {
				greedy := ChainPeriodValue(app, GreedyChainOrder(app, m), m)
				var best rat.Rat
				first := true
				forEachChain(app.N(), func(order []int) {
					v := ChainPeriodValue(app, order, m)
					if first || v.Less(best) {
						best, first = v, false
					}
				})
				if !greedy.Equal(best) {
					t.Fatalf("seed %d profile %s model %s: greedy %s != optimal %s",
						seed, p, m, greedy, best)
				}
			}
		}
	}
}

func TestGreedyLatencyChainMatchesExactChain(t *testing.T) {
	profiles := []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding}
	for seed := int64(20); seed < 32; seed++ {
		for _, p := range profiles {
			app := gen.App(gen.NewRand(seed), 6, p)
			greedy := ChainLatencyValue(app, GreedyLatencyChainOrder(app))
			var best rat.Rat
			first := true
			forEachChain(app.N(), func(order []int) {
				v := ChainLatencyValue(app, order)
				if first || v.Less(best) {
					best, first = v, false
				}
			})
			if !greedy.Equal(best) {
				t.Fatalf("seed %d profile %s: greedy %s != optimal %s", seed, p, greedy, best)
			}
		}
	}
}

// The closed-form chain values must agree with full orchestration.
func TestChainValuesAgreeWithOrchestration(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := gen.NewRand(seed)
		app := gen.App(rng, 2+rng.Intn(4), gen.Mixed)
		order := rng.Perm(app.N())
		eg, err := plan.ChainFromOrder(app, order)
		if err != nil {
			t.Fatal(err)
		}
		w := eg.Weighted()
		for _, m := range plan.Models {
			res, err := orchestrate.Period(w, m, smallOrch())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Value.Equal(ChainPeriodValue(app, order, m)) {
				t.Fatalf("seed %d %s: orchestrated %s != formula %s",
					seed, m, res.Value, ChainPeriodValue(app, order, m))
			}
		}
		lat, err := orchestrate.Latency(w, plan.InOrder, smallOrch())
		if err != nil {
			t.Fatal(err)
		}
		if !lat.Value.Equal(ChainLatencyValue(app, order)) {
			t.Fatalf("seed %d: latency %s != formula %s", seed, lat.Value, ChainLatencyValue(app, order))
		}
	}
}

// --- E9: Prop. 4 — forests suffice for MINPERIOD without precedence ---

func TestProp4ForestOptimalEqualsDAGOptimal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		app := gen.App(gen.NewRand(seed), 4, gen.Mixed)
		for _, m := range []plan.Model{plan.Overlap, plan.InOrder} {
			forest, err := MinPeriod(app, m, Options{Method: BranchBound, Family: FamilyForest, Orch: smallOrch()})
			if err != nil {
				t.Fatal(err)
			}
			dagSol, err := MinPeriod(app, m, Options{Method: BranchBound, Family: FamilyDAG, Orch: smallOrch()})
			if err != nil {
				t.Fatal(err)
			}
			if !forest.Value.Equal(dagSol.Value) {
				t.Fatalf("seed %d %s: forest optimum %s != DAG optimum %s",
					seed, m, forest.Value, dagSol.Value)
			}
			if !forest.Exact {
				t.Fatalf("seed %d %s: forest search must be exact for MINPERIOD", seed, m)
			}
		}
	}
}

func TestExactForestBeatsOrMatchesChains(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		app := gen.App(gen.NewRand(seed), 5, gen.Filtering)
		for _, m := range plan.Models {
			forest, err := MinPeriod(app, m, Options{Method: BranchBound, Family: FamilyForest, Orch: smallOrch()})
			if err != nil {
				t.Fatal(err)
			}
			chain, err := MinPeriod(app, m, Options{Method: BranchBound, Family: FamilyChain, Orch: smallOrch()})
			if err != nil {
				t.Fatal(err)
			}
			if forest.Value.Greater(chain.Value) {
				t.Fatalf("seed %d %s: forest optimum %s worse than chain optimum %s",
					seed, m, forest.Value, chain.Value)
			}
		}
	}
}

func TestMinPeriodAutoIsExactOnSmallInstances(t *testing.T) {
	app := gen.App(gen.NewRand(3), 5, gen.Mixed)
	sol, err := MinPeriod(app, plan.Overlap, Options{Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Exact {
		t.Fatal("auto method must be exact at n=5 under OVERLAP")
	}
	if err := sol.Sched.List.Validate(plan.Overlap); err != nil {
		t.Fatal(err)
	}
	if !sol.Graph.IsForest() {
		t.Fatal("optimal MINPERIOD plan should be reported from the forest family")
	}
}

func TestHillClimbNeverWorseThanGreedyChain(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		app := gen.App(gen.NewRand(seed), 7, gen.Filtering)
		for _, m := range []plan.Model{plan.Overlap, plan.InOrder} {
			greedy, err := MinPeriod(app, m, Options{Method: GreedyChain, Orch: smallOrch()})
			if err != nil {
				t.Fatal(err)
			}
			hc, err := MinPeriod(app, m, Options{Method: HillClimb, Orch: smallOrch(), Restarts: 1, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if hc.Value.Greater(greedy.Value) {
				t.Fatalf("seed %d %s: hill climb %s worse than its greedy seed %s",
					seed, m, hc.Value, greedy.Value)
			}
		}
	}
}

func TestHillClimbFindsForestWhenChainIsBad(t *testing.T) {
	// Miniature of the paper's B.1 counter-example: two cheap filters and
	// six expensive expanders. Chaining everything inflates downstream
	// volumes; the optimum splits the expanders across the two filters.
	services := []workflow.Service{
		{Cost: rat.I(4), Selectivity: rat.New(1, 2)},
		{Cost: rat.I(4), Selectivity: rat.New(1, 2)},
	}
	for i := 0; i < 6; i++ {
		services = append(services, workflow.Service{Cost: rat.I(8), Selectivity: rat.I(4)})
	}
	app := workflow.MustNew(services, nil)
	chain, err := MinPeriod(app, plan.Overlap, Options{Method: GreedyChain, Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := MinPeriod(app, plan.Overlap, Options{Method: HillClimb, Orch: smallOrch(), Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !hc.Value.Less(chain.Value) {
		t.Fatalf("hill climb %s should beat the chain %s on this instance", hc.Value, chain.Value)
	}
}

func TestMinLatencySmall(t *testing.T) {
	app := gen.App(gen.NewRand(11), 4, gen.Filtering)
	sol, err := MinLatency(app, plan.InOrder, Options{Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	chainVal := ChainLatencyValue(app, GreedyLatencyChainOrder(app))
	if sol.Value.Greater(chainVal) {
		t.Fatalf("optimal latency %s worse than greedy chain %s", sol.Value, chainVal)
	}
	for _, m := range plan.Models {
		if err := sol.Sched.List.Validate(m); err != nil {
			t.Fatalf("latency schedule invalid under %s: %v", m, err)
		}
	}
}

func TestExactDAGHonorsPrecedence(t *testing.T) {
	app := workflow.MustNew([]workflow.Service{
		{Cost: rat.I(2), Selectivity: rat.New(1, 2)},
		{Cost: rat.I(3), Selectivity: rat.One},
		{Cost: rat.I(1), Selectivity: rat.Two},
	}, [][2]int{{2, 0}}) // C3 must precede C1
	sol, err := MinPeriod(app, plan.Overlap, Options{Method: BranchBound, Family: FamilyDAG, Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := sol.Graph.Graph().ClosureContains(app.Precedence())
	if err != nil || !ok {
		t.Fatalf("returned plan violates precedence (ok=%v err=%v)", ok, err)
	}
}

func TestAutoWithPrecedenceUsesDAGSearch(t *testing.T) {
	app := workflow.MustNew([]workflow.Service{
		{Cost: rat.I(2), Selectivity: rat.New(1, 2)},
		{Cost: rat.I(3), Selectivity: rat.One},
	}, [][2]int{{0, 1}})
	sol, err := MinPeriod(app, plan.InOrder, Options{Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Graph == nil || !sol.Graph.Graph().HasEdge(0, 1) {
		// With one constraint and two services every valid plan contains
		// the edge 0->1 (directly or transitively; with 2 nodes, directly).
		t.Fatal("plan must contain the precedence edge")
	}
}

func TestGreedyChainRejectsPrecedence(t *testing.T) {
	app := workflow.MustNew([]workflow.Service{
		{Cost: rat.One, Selectivity: rat.One},
		{Cost: rat.One, Selectivity: rat.One},
	}, [][2]int{{0, 1}})
	if _, err := MinPeriod(app, plan.Overlap, Options{Method: GreedyChain}); err == nil {
		t.Fatal("greedy chain must reject precedence-constrained instances")
	}
}

// TestSizeGuards pins the exact search's default caps at their boundary:
// each family rejects the first size above its cap before searching, and
// MaxExactN replaces the cap in both directions.
func TestSizeGuards(t *testing.T) {
	for _, tc := range []struct {
		family Family
		limit  int
	}{{FamilyChain, 12}, {FamilyForest, 7}, {FamilyDAG, 5}} {
		over := gen.App(gen.NewRand(1), tc.limit+1, gen.Mixed)
		if _, err := MinPeriod(over, plan.Overlap, Options{Method: BranchBound, Family: tc.family}); err == nil {
			t.Errorf("%s: n=%d must exceed the default cap %d", tc.family, tc.limit+1, tc.limit)
		}
	}
	app := gen.App(gen.NewRand(1), 13, gen.Filtering)
	if _, err := MinPeriod(app, plan.Overlap, Options{Method: BranchBound, Family: FamilyChain, MaxExactN: 13}); err != nil {
		t.Errorf("MaxExactN=13 must admit a 13-service chain search: %v", err)
	}
	if _, err := MinPeriod(app, plan.Overlap, Options{Method: BranchBound, Family: FamilyChain, MaxExactN: 3}); err == nil {
		t.Error("MaxExactN=3 must reject n=13")
	}
}

func TestBiCriteria(t *testing.T) {
	app := gen.App(gen.NewRand(5), 4, gen.Filtering)
	// The unconstrained minimal latency and period give the anchors.
	latOpt, err := MinLatency(app, plan.InOrder, Options{Method: BranchBound, Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	perOpt, err := MinPeriod(app, plan.InOrder, Options{Method: BranchBound, Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	// Loose bound: the bi-criteria latency can reach close to the optimum.
	loose, err := BiCriteria(app, plan.InOrder, latOpt.Value.MulInt(10), Options{Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Value.Less(latOpt.Value) {
		t.Fatalf("bi-criteria latency %s beats the unconstrained optimum %s", loose.Value, latOpt.Value)
	}
	// Tight bound at the optimal period must still be feasible.
	tight, err := BiCriteria(app, plan.InOrder, perOpt.Value, Options{Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Value.Less(loose.Value) {
		t.Fatal("tightening the period bound cannot improve latency")
	}
	// Infeasible bound.
	if _, err := BiCriteria(app, plan.InOrder, rat.New(1, 100), Options{Orch: smallOrch()}); err == nil {
		t.Fatal("absurd period bound must be infeasible")
	}
}

func TestMethodAndObjectiveStrings(t *testing.T) {
	names := map[Method]string{
		Auto: "auto", GreedyChain: "greedy-chain", HillClimb: "hill-climb", BranchBound: "branch-bound",
		// The retired enumeration constants carry no name a parser accepts.
		ExactForest: "Method(4)", ExactDAG: "Method(5)", Method(42): "Method(42)",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if PeriodObjective.String() != "period" || LatencyObjective.String() != "latency" {
		t.Error("objective names wrong")
	}
}

func TestBiCriteriaLargeInstanceStructuredCandidates(t *testing.T) {
	// n > exact threshold exercises the structured-candidate branch
	// (parallel plan, greedy chains, k-strided sub-chains).
	app := gen.App(gen.NewRand(9), 9, gen.Filtering)
	per, err := MinPeriod(app, plan.Overlap, Options{Method: GreedyChain, Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := BiCriteria(app, plan.Overlap, per.Value.MulInt(3), Options{Orch: smallOrch()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Sched.List.Validate(plan.Overlap); err != nil {
		t.Fatal(err)
	}
	if _, err := BiCriteria(app, plan.Overlap, rat.New(1, 1000), Options{Orch: smallOrch()}); err == nil {
		t.Fatal("absurd bound must be infeasible")
	}
	withPrec := gen.AppWithPrecedence(gen.NewRand(2), 5, gen.Mixed, 0.5)
	if _, err := BiCriteria(withPrec, plan.Overlap, rat.I(100), Options{}); err == nil {
		t.Fatal("BiCriteria must reject precedence-constrained instances")
	}
}

func TestHillClimbDAGWithPrecedence(t *testing.T) {
	app := gen.AppWithPrecedence(gen.NewRand(4), 6, gen.Filtering, 0.25)
	if !app.HasPrecedence() {
		t.Skip("seed produced no precedence constraints")
	}
	for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
		var sol Solution
		var err error
		if obj == PeriodObjective {
			sol, err = MinPeriod(app, plan.InOrder, Options{Method: HillClimb, Orch: smallOrch()})
		} else {
			sol, err = MinLatency(app, plan.InOrder, Options{Method: HillClimb, Orch: smallOrch()})
		}
		if err != nil {
			t.Fatal(err)
		}
		ok, err := sol.Graph.Graph().ClosureContains(app.Precedence())
		if err != nil || !ok {
			t.Fatalf("%s: hill-climbed plan violates precedence", obj)
		}
		if err := sol.Sched.List.Validate(plan.InOrder); err != nil {
			t.Fatalf("%s: %v", obj, err)
		}
	}
}

func TestMinLatencyHillClimbBeatsOrMatchesParallel(t *testing.T) {
	app := gen.App(gen.NewRand(6), 7, gen.Expanding)
	parallel, err := plan.Parallel(app)
	if err != nil {
		t.Fatal(err)
	}
	base, err := orchestrate.Latency(parallel.Weighted(), plan.InOrder, smallOrch())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := MinLatency(app, plan.InOrder, Options{Method: HillClimb, Orch: smallOrch(), Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value.Greater(base.Value) {
		t.Fatalf("hill climb %s worse than its parallel seed %s", sol.Value, base.Value)
	}
}

// TestMinPeriodKeepsHowardCyclingCandidate pins an 8-service INORDER
// instance (the canonical form of a plan-cold draw) whose best graph found
// by the climb is 297/50. Its schedule's event graph made Howard's policy
// iteration cycle until its cap while the MCR anchored cycles at the walk's
// entry node; the search then dropped the graph and answered 603/100.
func TestMinPeriodKeepsHowardCyclingCandidate(t *testing.T) {
	data, err := os.ReadFile("testdata/inorder8_howard_cycling.json")
	if err != nil {
		t.Fatal(err)
	}
	var app workflow.App
	if err := json.Unmarshal(data, &app); err != nil {
		t.Fatal(err)
	}
	sol := solveOnce(t, &app, plan.InOrder, PeriodObjective, Options{Workers: 1})
	if want := rat.New(297, 50); !sol.Value.Equal(want) {
		t.Fatalf("MinPeriod = %s on %s, want %s", sol.Value, sol.Graph, want)
	}
	if err := sol.Sched.List.Validate(plan.InOrder); err != nil {
		t.Fatal(err)
	}
}
