// Package experiments regenerates the paper's artifacts (the §2.3 worked
// example, the three counter-examples of Appendix B and the NP-hardness
// gadgets) plus the measurement tables its framework implies (heuristic
// quality, model gaps, pruning, the data plane). The polynomial results
// (Theorem 1, Props. 4, 8, 12 and 16) are property tests in the packages
// they speak about, orchestrate and solve. Every report is a pure
// function of its seeds: no wall-clock number appears in one (those are
// the repository benchmark's, bench/), so EXPERIMENTS.md is the budget-2
// rendering byte for byte, and TestExperimentsMatchRecord holds it there.
// cmd/filterexp prints the reports; the root benchmarks time E1–E4 and
// E10–E12.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/paperex"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/solve"
	"repro/internal/texttab"
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

// Markdown renders r as one EXPERIMENTS.md section: a "### " heading with
// the verdict, the table, the notes as quoted lines, and a blank line.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s (%s)\n\n%s\n", r.ID, r.Title, r.status(), r.Table.Markdown())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

// String renders r as aligned text for a terminal.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s [%s]\n%s", r.ID, r.Title, r.status(), r.Table.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	b.WriteByte('\n')
	return b.String()
}

func (r Report) status() string {
	if r.OK {
		return "reproduced"
	}
	return "FAILED"
}

// AllWorkers runs every experiment on the shared worker pool and returns
// the reports in experiment order. Budget scales the expensive sweeps
// (1 = fast smoke run, 2 = the full EXPERIMENTS.md configuration); workers
// bounds the pool (0 = runtime.NumCPU(), 1 = serial). The bound is the
// harness's whole parallelism budget: the experiments fan out across the
// pool while their inner plan searches run serially (Workers: 1), so
// workers = 1 is end-to-end serial and larger counts never nest pools or
// oversubscribe the CPUs. The experiments are
// mutually independent and deterministic, so report order, verdicts and
// measured values do not depend on the worker count.
func AllWorkers(budget, workers int) []Report {
	runs := []func() Report{
		E1Fig1,
		E2ChainVsForest,
		E3MultiportLatency,
		E4MultiportPeriod,
		E10Reductions,
		func() Report { return E11HeuristicQuality(budget, 1) },
		func() Report { return E12ModelGaps(budget) },
		func() Report { return e13Scaling(budget, 1) },
		func() Report { return e14BiCriteria(budget, 1) },
		func() Report { return E15Pruning(budget) },
		func() Report { return E18OrderPruning(budget) },
		func() Report { return E20DataPlane(budget) },
	}
	return par.Map(workers, len(runs), func(i int) Report { return runs[i]() })
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
