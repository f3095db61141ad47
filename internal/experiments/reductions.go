package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/reduction"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/texttab"
)

// E10Reductions machine-checks the NP-hardness gadgets on small instances:
// YES instances reach the decision bound K, NO instances stay above it.
func E10Reductions() Report {
	tab := texttab.New("gadget", "instance", "bound K", "measured", "verdict")
	ok := true
	row := func(name, inst string, k, v rat.Rat, want string, good bool) {
		ok = ok && good
		tab.Row(name, inst, k, v, fmt.Sprintf("%s %s", want, mark(good)))
	}

	// Prop 2/3: one-port period orchestration (Figure 9 gadget).
	{
		r := reduction.RandomYes(gen.NewRand(3), 3)
		lam1, lam2, _ := r.Solve()
		g, err := reduction.NewOrchPeriodGadget(r)
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		l, err := orchestrate.InOrderPeriodWithOrders(g.Graph.Weighted(), g.WitnessOrders(lam1, lam2))
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		row("Prop 2 (period, one-port)", "YES n=3", g.K, l.Lambda(), "== K", l.Lambda().Equal(g.K))

		no, _ := reduction.NoInstance(4)
		gn, err := reduction.NewOrchPeriodGadget(no)
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		res, err := orchestrate.InOrderPeriod(gn.Graph.Weighted(), orchestrate.Options{MaxExhaustive: 1, LocalSearchPasses: 4})
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		row("Prop 2 (period, one-port)", "NO n=4", gn.K, res.Value, "> K", res.Value.Greater(gn.K))
	}

	// Prop 9: fork-join latency orchestration (Figure 12 gadget).
	{
		r := reduction.RandomYes(gen.NewRand(5), 3)
		g, err := reduction.NewForkJoinLatencyGadget(r)
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		res, err := orchestrate.OnePortLatency(g.Graph.Weighted(), orchestrate.Options{MaxExhaustive: 2000})
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		row("Prop 9 (latency, given graph)", "YES n=3", g.K, res.Value, "== K", res.Value.Equal(g.K))

		no, _ := reduction.NoInstance(4)
		gn, err := reduction.NewForkJoinLatencyGadget(no)
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		resNo, err := orchestrate.OnePortLatency(gn.Graph.Weighted(), orchestrate.Options{MaxExhaustive: 2000})
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		row("Prop 9 (latency, given graph)", "NO n=4", gn.K, resNo.Value, "> K", resNo.Value.Greater(gn.K))
	}

	// Prop 5: MINPERIOD-OVERLAP gadget.
	{
		r := reduction.RandomYes(gen.NewRand(7), 4)
		lam1, lam2, _ := r.Solve()
		g, err := reduction.NewMinPeriodOverlapGadget(r)
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		eg, err := g.WitnessPlan(lam1, lam2)
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		res, err := orchestrate.OverlapPeriod(eg.Weighted())
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		row("Prop 5 (MINPERIOD-OVERLAP)", "YES n=4 witness", g.K, res.Value, "== K", res.Value.Equal(g.K))

		wrong, err := g.WitnessPlan([]int{1, 2, 3, 4}, []int{4, 3, 2, 1})
		if err == nil {
			if resW, err := orchestrate.OverlapPeriod(wrong.Weighted()); err == nil {
				good := resW.Value.Greater(g.K) || lamMatches(r, []int{1, 2, 3, 4}, []int{4, 3, 2, 1})
				row("Prop 5 (MINPERIOD-OVERLAP)", "wrong matching", g.K, resW.Value, "> K", good)
			}
		}
	}

	// Prop 13: MINLATENCY gadget (fork-join witness).
	{
		r := reduction.RandomYes(gen.NewRand(9), 3)
		g, err := reduction.NewMinLatencyGadget(r)
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		fj, err := g.ForkJoinPlan()
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		res, err := orchestrate.OnePortLatency(fj.Weighted(), orchestrate.Options{MaxExhaustive: 2000})
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		row("Prop 13 (MINLATENCY)", "YES n=3 fork-join", g.K, res.Value, "<= K", res.Value.Leq(g.K))

		no, _ := reduction.NoInstance(4)
		gn, err := reduction.NewMinLatencyGadget(no)
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		fjn, err := gn.ForkJoinPlan()
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		resNo, err := orchestrate.OnePortLatency(fjn.Weighted(), orchestrate.Options{MaxExhaustive: 2000})
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		row("Prop 13 (MINLATENCY)", "NO n=4 fork-join", gn.K, resNo.Value, "> K", resNo.Value.Greater(gn.K))
	}

	// Prop 17: the 2-Partition forest gadget — reproduction finding.
	notes := []string{
		"Prop 2/9 checked exactly (witness schedules and exhaustive order search); Prop 5/13 on the YES witness plans plus NO fork-joins.",
		"Prop 17 (2-Partition forest gadget): with the printed constants the gadget does NOT separate YES from NO in exact arithmetic —",
		"under the full §2 cost model the empty chain always wins (each chain communication costs ≈1 to save O(x/A)),",
		"and under the proof's own communication-free chain formula latency is monotone in the chained sum.",
		"See reduction.TestProp17DiscrepancyFinding; recorded as a discrepancy, not counted against reproduction.",
	}
	{
		yes := reduction.TwoPartition{X: []int64{1, 2, 3, 4}}
		g, err := reduction.NewForestLatencyGadget(yes)
		if err != nil {
			return fail("E10", "reduction gadgets", err)
		}
		full := []bool{true, true, true, true}
		empty := []bool{false, false, false, false}
		lFull, err1 := g.SubsetLatency(full)
		lEmpty, err2 := g.SubsetLatency(empty)
		if err1 == nil && err2 == nil {
			tab.Row("Prop 17 (2-Partition, forests)", "full-model chains", g.K.Decimal(6),
				fmt.Sprintf("empty=%s full=%s", lEmpty.Decimal(6), lFull.Decimal(6)), "discrepancy (see notes)")
		}
	}
	return Report{ID: "E10", Title: "NP-hardness gadgets, machine-checked", Table: tab, OK: ok, Notes: notes}
}

func lamMatches(r reduction.RN3DM, lam1, lam2 []int) bool {
	for i := range lam1 {
		if lam1[i]+lam2[i] != r.A[i] {
			return false
		}
	}
	return true
}

// E11HeuristicQuality compares the polynomial/heuristic solvers against the
// exact forest optimum for MINPERIOD on random instances.
func E11HeuristicQuality(budget int) Report { return e11HeuristicQuality(budget, 0) }

// e11HeuristicQuality bounds the inner plan searches to solverWorkers
// (1 under the parallel harness, which owns the parallelism budget).
func e11HeuristicQuality(budget, solverWorkers int) Report {
	trials := 6 * budget
	n := 5
	opts := solve.Options{Orch: orchestrate.Options{MaxExhaustive: 128}, Workers: solverWorkers}
	type agg struct {
		sumRatio float64
		worst    float64
		exactHit int
	}
	stats := map[string]*agg{"greedy-chain": {}, "hill-climb": {}}
	models := []plan.Model{plan.Overlap, plan.InOrder}
	count := 0
	for seed := int64(0); seed < int64(trials); seed++ {
		app := gen.App(gen.NewRand(seed+500), n, profileFor(seed))
		for _, m := range models {
			exact, err := solve.MinPeriod(app, m, exactOver(opts, solve.FamilyForest))
			if err != nil {
				continue
			}
			count++
			for name, method := range map[string]solve.Method{
				"greedy-chain": solve.GreedyChain,
				"hill-climb":   solve.HillClimb,
			} {
				o := withMethod(opts, method)
				o.Restarts = 2
				sol, err := solve.MinPeriod(app, m, o)
				if err != nil {
					continue
				}
				ratio := sol.Value.Div(exact.Value).Float64()
				s := stats[name]
				s.sumRatio += ratio
				if ratio > s.worst {
					s.worst = ratio
				}
				if sol.Value.Equal(exact.Value) {
					s.exactHit++
				}
			}
		}
	}
	tab := texttab.New("method", "mean ratio to optimum", "worst ratio", "optimum found")
	for _, name := range []string{"greedy-chain", "hill-climb"} {
		s := stats[name]
		tab.Row(name,
			fmt.Sprintf("%.4f", s.sumRatio/float64(count)),
			fmt.Sprintf("%.4f", s.worst),
			fmt.Sprintf("%d/%d", s.exactHit, count))
	}
	return Report{
		ID: "E11", Title: "Heuristic quality vs exact forest optimum (MINPERIOD)", Table: tab, OK: true,
		Notes: []string{
			fmt.Sprintf("%d random 5-service instances × {OVERLAP, INORDER}; exact = branch-and-bound over forests (Prop 4).", trials),
			"The chain greedy is optimal among chains only; hill climbing searches the forest family.",
		},
	}
}

// E12ModelGaps measures the period ordering OVERLAP ≤ OUTORDER ≤ INORDER on
// random plans and confirms the self-timed simulation reaches the
// analytical period.
func E12ModelGaps(budget int) Report {
	trials := 20 * budget
	okOrder, okSim, simTried := 0, 0, 0
	var sumOutOvl, sumInoOut float64
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := gen.NewRand(seed + 900)
		var w *plan.Weighted
		if seed%2 == 0 {
			app := gen.App(rng, 3+rng.Intn(4), gen.Mixed)
			w = gen.DAGPlan(rng, app, 0.4).Weighted()
		} else {
			w = gen.Weighted(rng, 3+rng.Intn(4), 0.4)
		}
		ovl, err1 := orchestrate.OverlapPeriod(w)
		ino, err2 := orchestrate.InOrderPeriod(w, orchestrate.Options{MaxExhaustive: 256})
		out, err3 := orchestrate.OutOrderPeriod(w, orchestrate.Options{MaxExhaustive: 256})
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if ovl.Value.Leq(out.Value) && out.Value.Leq(ino.Value) {
			okOrder++
		}
		sumOutOvl += out.Value.Div(ovl.Value).Float64()
		sumInoOut += ino.Value.Div(out.Value).Float64()

		// Natural orders can deadlock (circular rendezvous wait); such
		// order assignments are rejected analytically and operationally
		// alike, so only feasible ones enter the convergence count.
		orders := orchestrate.DefaultOrders(w)
		analytic, err := orchestrate.InOrderPeriodWithOrders(w, orders)
		if err != nil {
			continue
		}
		simTried++
		tr, err := sim.SelfTimedInOrder(w, orders, 200)
		if err != nil {
			continue
		}
		if tr.ConvergedTo(analytic.Lambda(), 40) {
			okSim++
		}
	}
	tab := texttab.New("property", "measured", "expected")
	tab.Row("P(OVERLAP) ≤ P(OUTORDER) ≤ P(INORDER)", fmt.Sprintf("%d/%d", okOrder, trials), "always")
	tab.Row("mean P(OUTORDER)/P(OVERLAP)", fmt.Sprintf("%.3f", sumOutOvl/float64(trials)), "≥ 1")
	tab.Row("mean P(INORDER)/P(OUTORDER)", fmt.Sprintf("%.3f", sumInoOut/float64(trials)), "≥ 1")
	tab.Row("self-timed period == event-graph MCR", fmt.Sprintf("%d/%d feasible-order cases", okSim, simTried), "always")
	return Report{
		ID: "E12", Title: "Model power ordering and self-timed convergence", Table: tab,
		OK: okOrder == trials && okSim == simTried && simTried > 0,
		Notes: []string{
			"The multi-port overlap model strictly dominates one-port; out-of-order execution recovers part of the gap.",
			"The discrete-event self-timed execution converges to the maximum cycle ratio, confirming the event-graph analysis operationally.",
		},
	}
}
