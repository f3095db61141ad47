package experiments

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/texttab"
	"repro/internal/workflow"
)

// e20App is the fixed data-plane instance: five filtering services with
// mild selectivities, so even the last service in the plan still sees
// thousands of tuples at the largest stream budget (the estimators need
// samples to converge).
func e20App() (*workflow.App, error) {
	return workflow.New([]workflow.Service{
		{Name: "S1", Cost: rat.I(2), Selectivity: rat.New(1, 2)},
		{Name: "S2", Cost: rat.One, Selectivity: rat.New(3, 5)},
		{Name: "S3", Cost: rat.I(3), Selectivity: rat.New(7, 10)},
		{Name: "S4", Cost: rat.New(1, 2), Selectivity: rat.New(4, 5)},
		{Name: "S5", Cost: rat.I(4), Selectivity: rat.New(9, 10)},
	}, nil)
}

// E20DataPlane measures the data plane (internal/exec) end to end:
// how fast the online selectivity estimators converge on the declared
// values as the stream grows, and — with an injected cost drift — how
// many tuples the closed loop needs to detect the drift, PATCH the
// instance and hot-swap to the re-planned schedule.
func E20DataPlane(budget int) Report {
	app, err := e20App()
	if err != nil {
		return fail("E20", "data plane", err)
	}
	mkPlanner := func() (*exec.Local, func()) {
		srv := service.New(service.Config{Workers: 1})
		return &exec.Local{Server: srv, Params: service.Request{
			Model: plan.Overlap, Objective: solve.PeriodObjective,
		}}, srv.Close
	}

	tab := texttab.New("phase", "tuples", "measurement", "value", "check")
	ok := true
	ctx := context.Background()

	// Phase 1: convergence. No drift injected (the stream follows the
	// declared selectivities), drift control silenced; the worst-case
	// relative estimation error over all services must shrink with the
	// stream and end within 10% of declared.
	budgets := []uint64{512, 2048, 8192}
	if budget > 1 {
		budgets = append(budgets, 32768)
	}
	var last rat.Rat
	for _, n := range budgets {
		planner, close := mkPlanner()
		ex, err := exec.New(exec.Config{
			App: app, Planner: planner, Seed: 7,
			Threshold: rat.I(1 << 20), // never re-plan
		})
		if err != nil {
			close()
			return fail("E20", "data plane", err)
		}
		report, err := ex.Run(ctx, n)
		close()
		if err != nil {
			return fail("E20", "data plane", err)
		}
		worst := rat.Zero
		for _, s := range report.Services {
			err := s.EmpSelectivity.Sub(s.DeclSelectivity).Div(s.DeclSelectivity).Abs()
			worst = rat.Max(worst, err)
		}
		last = worst
		tab.Row("converge", n, "max |emp-decl|/decl", worst.Decimal(4), "-")
	}
	convOK := last.Less(rat.New(1, 10))
	ok = ok && convOK
	tab.Row("converge", budgets[len(budgets)-1], "final error < 1/10", last.Decimal(4), mark(convOK))

	// Phase 2: re-plan latency. The stream head's true cost is 4x its
	// declared value; the controller must detect it after one round of
	// samples, PATCH exactly once and hot-swap to the schedule a direct
	// solve of the drifted instance produces.
	driftCost := rat.I(8)
	planner, close := mkPlanner()
	defer close()
	ex, err := exec.New(exec.Config{
		App: app, Planner: planner, Seed: 7,
		Window: 512, MinSamples: 256, Threshold: rat.New(1, 4),
		Truth: map[string]exec.Truth{"S1": {Cost: &driftCost}},
	})
	if err != nil {
		return fail("E20", "data plane", err)
	}
	report, err := ex.Run(ctx, 4096)
	if err != nil {
		return fail("E20", "data plane", err)
	}
	patchOK := report.Patches == 1 && report.Swaps == 1 && len(report.Episodes) == 1
	ok = ok && patchOK
	tab.Row("re-plan", report.Tuples, "controller patches", report.Patches, mark(patchOK))
	if len(report.Episodes) == 1 {
		ep := report.Episodes[0]
		// The swap lands on a round boundary, within the first two
		// rounds (the service clears the min-samples gate no later than
		// one full window after the stream starts).
		latencyOK := ep.Tuple > 0 && ep.Tuple <= 1024 && ep.Tuple%512 == 0
		ok = ok && latencyOK
		tab.Row("re-plan", ep.Tuple, "detection latency (tuples)", ep.Tuple, mark(latencyOK))
		tab.Row("re-plan", report.Tuples, "objective value",
			fmt.Sprintf("%s -> %s", ep.OldValue, ep.NewValue), "-")
	}

	// The hot-swapped plan must be the plan of the drifted instance.
	direct, err := planner.Plan(ctx, report.App, "")
	if err != nil {
		return fail("E20", "data plane", err)
	}
	swapOK := direct.Hash == report.Hash && direct.Value.Equal(report.Value)
	ok = ok && swapOK
	tab.Row("re-plan", report.Tuples, "swapped == direct solve", direct.Value, mark(swapOK))

	return Report{
		ID: "E20", Title: "Data plane: estimator convergence and closed-loop re-plan latency", Table: tab, OK: ok,
		Notes: []string{
			"Convergence rows stream the declared instance (no drift) with re-planning silenced and report the worst relative selectivity-estimation error across all five services; Bernoulli noise shrinks as 1/sqrt(samples), and services deep in the plan see fewer tuples, so the error is dominated by the most-filtered service.",
			"The re-plan phase injects a 4x cost drift on S1: per-tuple cost measurement is exact, so the controller fires deterministically at the first round boundary where S1 clears the min-samples gate (tuple 1024 — S1 is not first in the plan, so it needs a second window of survivors), PATCHes once, and hot-swaps.",
			"'swapped == direct solve' re-plans the PATCHed instance directly and requires the same plan hash and objective value the executor ended on — the closed loop lands exactly where a from-scratch plan of measured reality lands.",
			"Fixed seed: every row is bit-reproducible across runs and -workers settings.",
			"Tuples/s is wall-clock and therefore not a row here; the repository benchmark's `exec-stream` workload measures it (bench/README.md): 29.6 M tuples/s end to end on the 2-CPU sandbox — 38 ns/tuple serial, 119 ns/tuple pipelined — since the executor compiles each adopted plan into a stage program and runs it 64 tuples at a time (DESIGN §8), from 1.51 M tuples/s (650 / 1730 ns/tuple) with the per-tuple loops.",
		},
	}
}
