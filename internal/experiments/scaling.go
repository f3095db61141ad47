package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/solve"
	"repro/internal/texttab"
)

// e13Scaling runs the production path (hill-climbing plan search plus
// heuristic orchestration, all schedules fully validated) at growing
// instance sizes and reports how far its periods stay from the per-model
// lower bounds; its wall-clock cost is the repository benchmark's. The
// paper gives no algorithms beyond the polynomial special cases; this
// experiment characterizes the heuristics a user of this library actually
// runs. The inner plan searches are bounded to solverWorkers (1 under the
// parallel harness, which owns the parallelism budget).
func e13Scaling(budget, solverWorkers int) Report {
	sizes := []int{10, 20, 40}
	if budget > 1 {
		sizes = append(sizes, 80)
	}
	tab := texttab.New("services", "model", "period / lower bound", "valid")
	ok := true
	for _, n := range sizes {
		app := gen.App(gen.NewRand(int64(n)), n, gen.Filtering)
		for _, m := range []plan.Model{plan.Overlap, plan.InOrder} {
			sol, err := solve.MinPeriod(app, m, solve.Options{
				Method:   solve.HillClimb,
				Restarts: 1,
				Workers:  solverWorkers,
				Orch:     orchestrate.Options{MaxExhaustive: 64, LocalSearchPasses: 2},
			})
			if err != nil {
				ok = false
				tab.Row(n, m, "error: "+err.Error(), "-")
				continue
			}
			valid := sol.Sched.List.Validate(m) == nil
			ok = ok && valid
			lb := sol.Graph.Weighted().PeriodLowerBound(m)
			tab.Row(n, m, fmt.Sprintf("%.4f", sol.Value.Div(lb).Float64()), mark(valid))
		}
	}
	return Report{
		ID: "E13", Title: "Scalability of the heuristic pipeline", Table: tab, OK: ok,
		Notes: []string{
			"Ratio is the achieved period over the winning plan's own per-server lower bound (1.0 = provably tight for that graph).",
			"Every emitted schedule is checked by the exact Appendix-A validator. Wall time is not a column: the repository benchmark (bench/) measures the plan search's cost.",
		},
	}
}

// e14BiCriteria traces the period/latency trade-off frontier the paper's
// conclusion poses as future work: minimal achievable latency under a
// sweep of period bounds, on a fixed filtering workload under INORDER. The
// inner plan searches are bounded to solverWorkers (1 under the parallel
// harness, which owns the parallelism budget).
func e14BiCriteria(budget, solverWorkers int) Report {
	app := gen.App(gen.NewRand(77), 6, gen.Filtering)
	opts := solve.Options{Orch: orchestrate.Options{MaxExhaustive: 128}, Workers: solverWorkers}
	perOpt, err := solve.MinPeriod(app, plan.InOrder, opts)
	if err != nil {
		return fail("E14", "bi-criteria frontier", err)
	}
	// The frontier's asymptote: the bi-criteria search with an effectively
	// unbounded period is the latency optimum over the same plan family,
	// so the monotonicity checks are self-consistent.
	latOpt, err := solve.BiCriteria(app, plan.InOrder, perOpt.Value.MulInt(1000), opts)
	if err != nil {
		return fail("E14", "bi-criteria frontier", err)
	}
	tab := texttab.New("period bound", "best latency", "plan shape")
	ok := true
	steps := 4 * budget
	prev := latOpt.Value.MulInt(1000) // sentinel: effectively +inf
	for i := 0; i <= steps; i++ {
		bound := perOpt.Value.MulInt(int64(steps + i)).Div(rat.I(int64(steps)))
		sol, err := solve.BiCriteria(app, plan.InOrder, bound, opts)
		if err != nil {
			tab.Row(bound.Decimal(3), "infeasible", "-")
			ok = false
			continue
		}
		// Monotonicity: relaxing the bound never hurts latency.
		if sol.Value.Greater(prev) {
			ok = false
		}
		prev = sol.Value
		shape := "forest"
		switch {
		case sol.Graph.IsChain():
			shape = "chain"
		case sol.Graph.Graph().EdgeCount() == 0:
			shape = "parallel"
		}
		if sol.Value.Less(latOpt.Value) {
			ok = false // cannot beat the unconstrained optimum
		}
		tab.Row(bound.Decimal(3), sol.Value.Decimal(3), shape)
	}
	return Report{
		ID: "E14", Title: "Bi-criteria frontier: latency under a period bound", Table: tab, OK: ok,
		Notes: []string{
			"The paper's conclusion poses this as future work; the frontier is monotone and anchored at the unconstrained optima.",
			fmt.Sprintf("Unconstrained anchors: period %s, latency %s.", perOpt.Value.Decimal(3), latOpt.Value.Decimal(3)),
		},
	}
}
