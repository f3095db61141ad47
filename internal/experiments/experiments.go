// Package experiments regenerates every quantitative artifact of the paper
// (the §2.3 worked example, the three counter-examples of Appendix B, the
// polynomial special cases, the structural theorem, and the NP-hardness
// gadgets) plus the simulation studies its framework implies (heuristic
// quality, model gaps, self-timed convergence). cmd/filterexp renders the
// reports; the root benchmarks time each experiment; EXPERIMENTS.md records
// paper-vs-measured values produced here.
package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/paperex"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/solve"
	"repro/internal/texttab"
	"repro/internal/workflow"
)

// Report is one experiment's outcome.
type Report struct {
	ID    string
	Title string
	Table *texttab.Table
	// Notes carry commentary: what the paper claims, what was measured,
	// discrepancies.
	Notes []string
	// OK is false when a paper claim failed to reproduce.
	OK bool
}

// All runs every experiment on the shared worker pool with the default
// worker count (runtime.NumCPU) and returns the reports in experiment
// order. Budget scales the expensive sweeps (1 = fast smoke run, 2 = the
// full EXPERIMENTS.md configuration).
func All(budget int) []Report {
	return AllWorkers(budget, 0)
}

// AllWorkers is All with an explicit worker bound (0 = runtime.NumCPU(),
// 1 = serial). The bound is the harness's whole parallelism budget: the
// experiments fan out across the pool while their inner plan searches run
// serially (Workers: 1), so workers = 1 is end-to-end serial and larger
// counts never nest pools or oversubscribe the CPUs. The experiments are
// mutually independent and deterministic, so report order, verdicts and
// measured values do not depend on the worker count (the one exception is
// E13's informational wall-time column, which reports real elapsed time).
func AllWorkers(budget, workers int) []Report {
	runs := []func() Report{
		E1Fig1,
		E2ChainVsForest,
		E3MultiportLatency,
		E4MultiportPeriod,
		func() Report { return E5OverlapOrchestration(budget) },
		func() Report { return E6ChainPeriodGreedy(budget) },
		func() Report { return E7ChainLatencyGreedy(budget) },
		func() Report { return E8TreeLatency(budget) },
		func() Report { return e9ForestStructure(budget, 1) },
		E10Reductions,
		func() Report { return e11HeuristicQuality(budget, 1) },
		func() Report { return E12ModelGaps(budget) },
		func() Report { return e13Scaling(budget, 1) },
		func() Report { return e14BiCriteria(budget, 1) },
		func() Report { return E15Pruning(budget) },
		func() Report { return e16CacheAmortization(budget, 1) },
		func() Report { return e17StoreCluster(budget, 1) },
		func() Report { return E18OrderPruning(budget) },
		func() Report { return E19IncrementalBound(budget) },
		func() Report { return E20DataPlane(budget) },
	}
	return par.Map(workers, len(runs), func(i int) Report { return runs[i]() })
}

// Smoke runs only the fixed, fast experiments (the worked example, the
// three counter-examples and the NP-hardness gadgets — no random sweeps):
// the sub-second subset that `go test -short` exercises.
func Smoke() []Report {
	return []Report{
		E1Fig1(),
		E2ChainVsForest(),
		E3MultiportLatency(),
		E4MultiportPeriod(),
		E10Reductions(),
	}
}

// E1Fig1 reproduces the §2.3 worked example: optimal period per model and
// the shared optimal latency on the Figure 1 execution graph.
func E1Fig1() Report {
	eg := paperex.Fig1Graph()
	w := eg.Weighted()
	tab := texttab.New("quantity", "paper", "measured", "match")
	ok := true
	check := func(name string, want rat.Rat, got rat.Rat) {
		match := got.Equal(want)
		ok = ok && match
		tab.Row(name, want, got, mark(match))
	}
	ovl, err := orchestrate.OverlapPeriod(w)
	if err != nil {
		return fail("E1", "Fig. 1 worked example", err)
	}
	ino, err := orchestrate.InOrderPeriod(w, orchestrate.Options{})
	if err != nil {
		return fail("E1", "Fig. 1 worked example", err)
	}
	out, err := orchestrate.OutOrderPeriod(w, orchestrate.Options{})
	if err != nil {
		return fail("E1", "Fig. 1 worked example", err)
	}
	lat, err := orchestrate.OnePortLatency(w, orchestrate.Options{})
	if err != nil {
		return fail("E1", "Fig. 1 worked example", err)
	}
	mlat, err := orchestrate.OverlapLatency(w, orchestrate.Options{})
	if err != nil {
		return fail("E1", "Fig. 1 worked example", err)
	}
	check("period OVERLAP", rat.I(4), ovl.Value)
	check("period OUTORDER", rat.I(7), out.Value)
	check("period INORDER", rat.New(23, 3), ino.Value)
	check("latency one-port", rat.I(21), lat.Value)
	check("latency multi-port", rat.I(21), mlat.Value)
	return Report{
		ID: "E1", Title: "§2.3 worked example (Figure 1)", Table: tab, OK: ok,
		Notes: []string{
			"Optimal values per model on the fixed execution graph of Fig. 1.",
			"The INORDER optimum 23/3 distributes idle time across C1, C4, C5 exactly as the paper derives.",
		},
	}
}

// E2ChainVsForest reproduces counter-example B.1: with communication costs
// the optimal MINPERIOD plan is no longer a chain.
func E2ChainVsForest() Report {
	chain := paperex.B1ChainFanGraph()
	opt := paperex.B1OptimalGraph()
	tab := texttab.New("plan", "no-comm max Ccomp", "OVERLAP period", "paper")
	chainRes, err := orchestrate.OverlapPeriod(chain.Weighted())
	if err != nil {
		return fail("E2", "counter-example B.1", err)
	}
	optRes, err := orchestrate.OverlapPeriod(opt.Weighted())
	if err != nil {
		return fail("E2", "counter-example B.1", err)
	}
	maxComp := func(eg *plan.ExecGraph) rat.Rat {
		m := rat.Zero
		for v := 0; v < eg.N(); v++ {
			m = rat.Max(m, eg.Ccomp(v))
		}
		return m
	}
	tab.Row("chain C1→C2 + fan (no-comm optimal)", maxComp(chain).Decimal(2), chainRes.Value.Decimal(4), "≈200")
	tab.Row("two fans C1→C3..C102, C2→C103..C202 (Fig. 4)", maxComp(opt).Decimal(2), optRes.Value.Decimal(2), "100")
	ok := optRes.Value.Equal(rat.I(100)) &&
		chainRes.Value.Equal(rat.I(200).Mul(rat.New(9999, 10000).PowInt(2)))
	return Report{
		ID: "E2", Title: "B.1: communication costs break the chain structure", Table: tab, OK: ok,
		Notes: []string{
			"Without communication both plans keep every computation ≤ 100, and chaining the two filters is optimal.",
			"With OVERLAP communication, C2's 200 outgoing copies cost 199.960002; splitting into two fans restores period 100.",
		},
	}
}

// E3MultiportLatency reproduces counter-example B.2: multi-port latency 20
// strictly beats every one-port schedule on the Figure 5 bipartite graph.
func E3MultiportLatency() Report {
	w := paperex.B2Graph().Weighted()
	shared, err := orchestrate.OverlapLatencyShared(w)
	if err != nil {
		return fail("E3", "counter-example B.2", err)
	}
	onePort, err := orchestrate.OnePortLatency(w, orchestrate.Options{})
	if err != nil {
		return fail("E3", "counter-example B.2", err)
	}
	witness := paperex.B2OnePort21List()
	bestOnePort := rat.Min(onePort.Value, witness.Latency())
	witnessOK := witness.Validate(plan.InOrder) == nil && witness.Latency().Equal(rat.I(21))
	tab := texttab.New("model", "latency", "paper")
	tab.Row("multi-port (bandwidth sharing)", shared.Latency(), "20")
	tab.Row("one-port (validated witness)", bestOnePort, "> 20")
	ok := shared.Latency().Equal(rat.I(20)) && bestOnePort.Greater(rat.I(20)) && witnessOK
	return Report{
		ID: "E3", Title: "B.2: one-port vs multi-port latency (Figure 5)", Table: tab, OK: ok,
		Notes: []string{
			"Multi-port executes the 6×6 communication phase in exactly 6 time units by bandwidth sharing; the paper proves no one-port schedule can.",
			"The one-port value 21 is a hand-constructed, validator-checked schedule (paperex.B2OnePort21List); with the paper's >20 bound it is the exact one-port optimum.",
			"The result holds for traditional workflows (σ ≡ 1) as well — the volumes, not the selectivities, drive it.",
		},
	}
}

// E4MultiportPeriod reproduces counter-example B.3: multi-port period 12 is
// unreachable for one-port schedules on the Figure 6 graph.
func E4MultiportPeriod() Report {
	w := paperex.B3Weighted()
	ovl, err := orchestrate.OverlapPeriod(w)
	if err != nil {
		return fail("E4", "counter-example B.3", err)
	}
	onePort, err := orchestrate.OutOrderPeriod(w, orchestrate.Options{})
	if err != nil {
		return fail("E4", "counter-example B.3", err)
	}
	tab := texttab.New("model", "period", "paper")
	tab.Row("multi-port (Theorem 1)", ovl.Value, "12")
	tab.Row("one-port OUTORDER (best found)", onePort.Value, "> 12")
	ok := ovl.Value.Equal(rat.I(12)) && onePort.Value.Greater(rat.I(12))
	return Report{
		ID: "E4", Title: "B.3: one-port vs multi-port period (Figure 6)", Table: tab, OK: ok,
		Notes: []string{
			"The instance is the paper's traditional-workflow reading: unit computations, sender volumes 3/3/4/2.",
			"Note the filtering reading of B.3 would give right-side computations of cost 72 > 12, contradicting the stated optimum; see DESIGN.md.",
		},
	}
}

// E5OverlapOrchestration verifies Theorem 1 empirically: the constructed
// OVERLAP schedule meets max_k Cexec(k) on every random execution graph.
func E5OverlapOrchestration(budget int) Report {
	trials := 200 * budget
	okCount := 0
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := gen.NewRand(seed)
		var w *plan.Weighted
		if seed%2 == 0 {
			app := gen.App(rng, 3+rng.Intn(8), gen.Mixed)
			w = gen.DAGPlan(rng, app, 0.35).Weighted()
		} else {
			w = gen.Weighted(rng, 3+rng.Intn(8), 0.35)
		}
		res, err := orchestrate.OverlapPeriod(w)
		if err == nil && res.Value.Equal(w.PeriodLowerBound(plan.Overlap)) {
			okCount++
		}
	}
	tab := texttab.New("random execution graphs", "period == max Cexec", "paper")
	tab.Row(trials, fmt.Sprintf("%d/%d", okCount, trials), "always (Thm 1)")
	return Report{
		ID: "E5", Title: "Theorem 1: OVERLAP period orchestration is polynomial and tight", Table: tab,
		OK: okCount == trials,
		Notes: []string{
			"Every constructed schedule passes the Appendix-A multi-port validator and meets the lower bound exactly.",
		},
	}
}

// E6ChainPeriodGreedy verifies Prop. 8: the greedy chain equals exhaustive
// chain search for MINPERIOD under all three models.
func E6ChainPeriodGreedy(budget int) Report {
	trials := 60 * budget
	n := 6
	matches := map[plan.Model]int{}
	for seed := int64(0); seed < int64(trials); seed++ {
		app := gen.App(gen.NewRand(seed), n, profileFor(seed))
		for _, m := range plan.Models {
			greedy := solve.ChainPeriodValue(app, solve.GreedyChainOrder(app, m), m)
			best := bestChainPeriod(app, m)
			if greedy.Equal(best) {
				matches[m]++
			}
		}
	}
	tab := texttab.New("model", "greedy == optimal chain", "paper")
	for _, m := range plan.Models {
		tab.Row(m, fmt.Sprintf("%d/%d", matches[m], trials), "always (Prop 8)")
	}
	ok := true
	for _, m := range plan.Models {
		ok = ok && matches[m] == trials
	}
	return Report{
		ID: "E6", Title: "Prop. 8: greedy chain is period-optimal among chains", Table: tab, OK: ok,
		Notes: []string{fmt.Sprintf("Random instances with %d services, brute force over all %d! chains.", n, n)},
	}
}

// E7ChainLatencyGreedy verifies Prop. 16: sorting by decreasing
// (1−σ)/(1+c) is latency-optimal among chains.
func E7ChainLatencyGreedy(budget int) Report {
	trials := 60 * budget
	n := 6
	match := 0
	for seed := int64(0); seed < int64(trials); seed++ {
		app := gen.App(gen.NewRand(seed+1000), n, profileFor(seed))
		greedy := solve.ChainLatencyValue(app, solve.GreedyLatencyChainOrder(app))
		if greedy.Equal(bestChainLatency(app)) {
			match++
		}
	}
	tab := texttab.New("instances", "greedy == optimal chain", "paper")
	tab.Row(trials, fmt.Sprintf("%d/%d", match, trials), "always (Prop 16)")
	return Report{
		ID: "E7", Title: "Prop. 16: greedy chain is latency-optimal among chains", Table: tab,
		OK: match == trials,
	}
}

// E8TreeLatency verifies Prop. 12 / Algorithm 1: the O(n log n) tree
// algorithm matches exhaustive order search on random forests.
func E8TreeLatency(budget int) Report {
	trials := 40 * budget
	match, skipped := 0, 0
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := gen.NewRand(seed)
		app := gen.App(rng, 3+rng.Intn(4), gen.Filtering)
		w := gen.ForestPlan(rng, app).Weighted()
		tree, err := orchestrate.TreeLatency(w)
		if err != nil {
			skipped++
			continue
		}
		ex, err := orchestrate.OnePortLatency(w, orchestrate.Options{MaxExhaustive: 50000})
		if err != nil || !ex.Exact {
			skipped++
			continue
		}
		if tree.Value.Equal(ex.Value) {
			match++
		}
	}
	tab := texttab.New("random forests", "Algorithm 1 == exhaustive", "skipped (too wide)", "paper")
	tab.Row(trials, fmt.Sprintf("%d/%d", match, trials-skipped), skipped, "always (Prop 12)")
	return Report{
		ID: "E8", Title: "Prop. 12 / Algorithm 1: tree latency in O(n log n)", Table: tab,
		OK: match == trials-skipped,
	}
}

// E9ForestStructure verifies Prop. 4: the forest-restricted optimum equals
// the unrestricted (DAG) optimum for MINPERIOD without precedence.
func E9ForestStructure(budget int) Report { return e9ForestStructure(budget, 0) }

// e9ForestStructure bounds the inner plan searches to solverWorkers
// (1 under the parallel harness, which owns the parallelism budget).
func e9ForestStructure(budget, solverWorkers int) Report {
	trials := 4 * budget
	matches := map[plan.Model]int{}
	models := []plan.Model{plan.Overlap, plan.InOrder}
	opts := solve.Options{Orch: orchestrate.Options{MaxExhaustive: 256}, Workers: solverWorkers}
	for seed := int64(0); seed < int64(trials); seed++ {
		app := gen.App(gen.NewRand(seed), 4, gen.Mixed)
		for _, m := range models {
			f, err1 := solve.MinPeriod(app, m, exactOver(opts, solve.FamilyForest))
			d, err2 := solve.MinPeriod(app, m, exactOver(opts, solve.FamilyDAG))
			if err1 == nil && err2 == nil && f.Value.Equal(d.Value) {
				matches[m]++
			}
		}
	}
	tab := texttab.New("model", "forest opt == DAG opt", "paper")
	for _, m := range models {
		tab.Row(m, fmt.Sprintf("%d/%d", matches[m], trials), "always (Prop 4)")
	}
	ok := true
	for _, m := range models {
		ok = ok && matches[m] == trials
	}
	return Report{
		ID: "E9", Title: "Prop. 4: some optimal MINPERIOD plan is a forest", Table: tab, OK: ok,
		Notes: []string{"Exact (branch-and-bound) optimum over all 125 forests vs over all 543 DAGs on 4 services."},
	}
}

// --- helpers ---

func mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func fail(id, title string, err error) Report {
	return Report{ID: id, Title: title, OK: false,
		Table: texttab.New("error").Row(err),
		Notes: []string{"experiment aborted"}}
}

func profileFor(seed int64) gen.Profile {
	switch seed % 3 {
	case 0:
		return gen.Filtering
	case 1:
		return gen.Mixed
	default:
		return gen.Expanding
	}
}

func withMethod(o solve.Options, m solve.Method) solve.Options {
	o.Method = m
	return o
}

// exactOver asks for the exact optimum of one structural family.
func exactOver(o solve.Options, f solve.Family) solve.Options {
	o.Method, o.Family = solve.BranchBound, f
	return o
}

// bestChainPeriod brute-forces the optimal chain period over all n! orders.
func bestChainPeriod(app *workflow.App, m plan.Model) rat.Rat {
	var best rat.Rat
	first := true
	permutations(app.N(), func(order []int) {
		v := solve.ChainPeriodValue(app, order, m)
		if first || v.Less(best) {
			best, first = v, false
		}
	})
	return best
}

// bestChainLatency brute-forces the optimal chain latency.
func bestChainLatency(app *workflow.App) rat.Rat {
	var best rat.Rat
	first := true
	permutations(app.N(), func(order []int) {
		v := solve.ChainLatencyValue(app, order)
		if first || v.Less(best) {
			best, first = v, false
		}
	})
	return best
}

// permutations enumerates all orders of 0..n-1.
func permutations(n int, fn func([]int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(order)
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			rec(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	rec(0)
}
