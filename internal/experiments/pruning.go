package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/solve"
	"repro/internal/texttab"
)

// E15Pruning measures the pruning effectiveness of the branch-and-bound
// searches: for each structural family it runs the bounded search on one
// instance and reports the evaluation reduction (candidates orchestrated or
// closed-form-evaluated vs the family's full candidate count, i.e. what a
// blind enumeration scores, next to the size of the tree the search walks:
// the whole family for chains and forests, its transitively reduced
// members for DAGs), checking that the certified value is no worse
// than the greedy chain's. That the bounded search returns the blind
// enumeration's Solution is pinned by the differential suite of
// internal/solve, which owns the enumeration. The last row is the scale
// payoff: a chain instance with 12! ≈ 4.8e8 candidates, certified in a few
// dozen expansions.
//
// The searches run on one worker so the reported node counters are
// reproducible: with more workers the result is still identical, but the
// pruning counters depend on goroutine timing.
func E15Pruning(budget int) Report {
	tab := texttab.New("family", "n", "objective", "blind candidates", "searched family", "expanded", "evaluated", "evals kept", "certified ≤ greedy")
	ok := true
	orch := orchestrate.Options{MaxExhaustive: 128}

	type pcase struct {
		family solve.Family
		n      int
		seed   int64
		obj    solve.Objective
		m      plan.Model
		blind  int64 // full candidate count of the family at this n
		tree   int64 // the members the search's tree reaches
	}
	factorial := func(n int) int64 {
		f := int64(1)
		for i := int64(2); i <= int64(n); i++ {
			f *= i
		}
		return f
	}
	forests := func(n int) int64 { // labeled rooted forests: (n+1)^(n-1)
		f := int64(1)
		for i := 0; i < n-1; i++ {
			f *= int64(n + 1)
		}
		return f
	}
	dags := [...]int64{1, 1, 3, 25, 543, 29281}   // labeled DAGs on n nodes
	reduced := [...]int64{1, 1, 3, 19, 219, 4231} // transitively reduced ones (labeled posets)

	cases := []pcase{
		{solve.FamilyChain, 7, 31, solve.PeriodObjective, plan.InOrder, factorial(7), factorial(7)},
		{solve.FamilyChain, 7, 32, solve.LatencyObjective, plan.InOrder, factorial(7), factorial(7)},
		{solve.FamilyForest, 5, 33, solve.PeriodObjective, plan.Overlap, forests(5), forests(5)},
		{solve.FamilyDAG, 4, 34, solve.LatencyObjective, plan.InOrder, dags[4], reduced[4]},
	}
	if budget > 1 {
		cases = append(cases,
			pcase{solve.FamilyForest, 6, 35, solve.PeriodObjective, plan.InOrder, forests(6), forests(6)},
		)
	}
	// The certification row: no blind enumeration finishes 12! chains.
	cases = append(cases, pcase{solve.FamilyChain, 12, 42, solve.PeriodObjective, plan.InOrder, factorial(12), factorial(12)})

	for _, c := range cases {
		app := gen.App(gen.NewRand(c.seed), c.n, profileFor(c.seed))
		minimize, greedy := solve.MinPeriod, solve.ChainPeriodValue(app, solve.GreedyChainOrder(app, c.m), c.m)
		if c.obj == solve.LatencyObjective {
			minimize, greedy = solve.MinLatency, solve.ChainLatencyValue(app, solve.GreedyLatencyChainOrder(app))
		}
		var ef solve.Effort
		sol, err := minimize(app, c.m, solve.Options{
			Method: solve.BranchBound, Family: c.family,
			Orch: orch, Restarts: 1, Workers: 1, Effort: &ef,
		})
		if err != nil {
			return fail("E15", "pruning effectiveness", err)
		}
		st := ef.Search
		// Every family contains the chains, so its optimum cannot exceed
		// the best chain's; and pruning must cut the candidates scored at
		// least tenfold.
		certOK := !sol.Value.Greater(greedy) && st.Evaluated > 0 && st.Evaluated*10 < c.blind
		ok = ok && certOK
		digits := 3
		if c.n == 12 {
			digits = 6 // 1 of 12! rounds to 0 at three
		}
		tab.Row(c.family, c.n, c.obj, c.blind, c.tree, st.Expanded, st.Evaluated,
			fmt.Sprintf("%.*f%%", digits, 100*float64(st.Evaluated)/float64(c.blind)), mark(certOK))
	}

	return Report{
		ID: "E15", Title: "Branch-and-bound pruning effectiveness vs blind enumeration", Table: tab, OK: ok,
		Notes: []string{
			"'blind candidates' is the family's full candidate count (n! chains, (n+1)^(n-1) forests, labeled DAGs) — what a blind enumeration scores; 'evaluated' counts the candidates branch-and-bound actually scored after lower-bound pruning.",
			"'searched family' is what the search's tree can reach: every chain and forest, but only the transitively reduced DAGs (219 of the 543 on 4 nodes). An edge another path implies changes no data volume and only adds a communication, and the tree's order puts every DAG after its reduction, so wherever dropping such an edge never raises the score the first best DAG is already reduced; the differential suite checks the answers against the blind enumeration of all labeled DAGs.",
			"Every row checks that the certified optimum is no worse than the greedy chain's value (a chain is a forest is a DAG). That branch-and-bound returns the blind enumeration's Solution bit for bit is pinned by the differential suite in internal/solve, where the enumeration now lives as the test oracle.",
			"The n=12 chain row is beyond any blind enumeration: the optimum is certified against the greedy-chain incumbent with a ~1e-4% evaluation fraction.",
			"A period search also stops where a shard's best meets the instance's period floor, a lower bound on every plan's period: no later leaf can beat that value, so the period rows count the nodes up to the first leaf at the floor wherever the optimum meets it.",
			"Counters come from Workers: 1 runs; parallel runs return the identical Solution but timing-dependent counters.",
		},
	}
}
