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
// instance and reports the evaluation reduction (candidates orchestrated vs
// the family's full candidate count, i.e. what a blind enumeration scores,
// next to the size of the tree the search walks: the whole family for
// forests, its transitively reduced members for DAGs), checking that the
// certified value is no worse than the greedy chain's. That the bounded
// search returns the blind enumeration's Solution is pinned by the
// differential suite of internal/solve, which owns the enumeration. The
// period rows are instances whose optimum lies strictly above the period
// floor (TestE15PeriodRowsAboveFloor in internal/solve), so the searches
// cannot stop at the floor and the counters show the bounds at work.
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
		{solve.FamilyForest, 5, 54, solve.PeriodObjective, plan.Overlap, forests(5), forests(5)},
		{solve.FamilyDAG, 4, 34, solve.LatencyObjective, plan.InOrder, dags[4], reduced[4]},
	}
	if budget > 1 {
		cases = append(cases,
			pcase{solve.FamilyForest, 6, 48, solve.PeriodObjective, plan.InOrder, forests(6), forests(6)},
		)
	}

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
		tab.Row(c.family, c.n, c.obj, c.blind, c.tree, st.Expanded, st.Evaluated,
			fmt.Sprintf("%.3f%%", 100*float64(st.Evaluated)/float64(c.blind)), mark(certOK))
	}

	return Report{
		ID: "E15", Title: "Branch-and-bound pruning effectiveness vs blind enumeration", Table: tab, OK: ok,
		Notes: []string{
			"'blind candidates' is the family's full candidate count ((n+1)^(n-1) forests, labeled DAGs) — what a blind enumeration scores; 'evaluated' counts the candidates branch-and-bound actually scored after lower-bound pruning.",
			"'searched family' is what the search's tree can reach: every forest, but only the transitively reduced DAGs (219 of the 543 on 4 nodes). An edge another path implies changes no data volume and only adds a communication, and the tree's order puts every DAG after its reduction, so wherever dropping such an edge never raises the score the first best DAG is already reduced; the differential suite checks the answers against the blind enumeration of all labeled DAGs.",
			"Every row checks that the certified optimum is no worse than the greedy chain's value (a chain is a forest is a DAG). That branch-and-bound returns the blind enumeration's Solution bit for bit is pinned by the differential suite in internal/solve, where the enumeration now lives as the test oracle.",
			"No row searches chains: the greedy chain is optimal among chains in O(n log n) (Prop. 8 and 16), and it seeds every row's incumbent.",
			"A period search also stops where a shard's best meets the instance's period floor, a lower bound on every plan's period. The period rows are instances whose optimum lies strictly above that floor, so no shard stops early and the counters measure the lower bounds' pruning alone.",
			"Counters come from Workers: 1 runs; parallel runs return the identical Solution but timing-dependent counters.",
		},
	}
}
