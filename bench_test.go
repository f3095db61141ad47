// Benchmarks, one per experiment of the reproduction (see DESIGN.md §4 and
// EXPERIMENTS.md). Each benchmark regenerates the corresponding paper
// artifact end to end, so the timings measure the full pipeline: instance
// construction, plan/schedule search, exact validation.
package filtering_test

import (
	"testing"

	filtering "repro"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/solve"
)

func benchReport(b *testing.B, run func() experiments.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if r := run(); !r.OK {
			b.Fatalf("%s failed to reproduce:\n%s", r.ID, r.Table.String())
		}
	}
}

func BenchmarkE1Fig1Example(b *testing.B) {
	benchReport(b, experiments.E1Fig1)
}

func BenchmarkE2ChainVsForest(b *testing.B) {
	benchReport(b, experiments.E2ChainVsForest)
}

func BenchmarkE3MultiportLatency(b *testing.B) {
	benchReport(b, experiments.E3MultiportLatency)
}

func BenchmarkE4MultiportPeriod(b *testing.B) {
	benchReport(b, experiments.E4MultiportPeriod)
}

func BenchmarkE5OverlapOrchestration(b *testing.B) {
	benchReport(b, func() experiments.Report { return experiments.E5OverlapOrchestration(1) })
}

func BenchmarkE6ChainPeriodGreedy(b *testing.B) {
	benchReport(b, func() experiments.Report { return experiments.E6ChainPeriodGreedy(1) })
}

func BenchmarkE7ChainLatencyGreedy(b *testing.B) {
	benchReport(b, func() experiments.Report { return experiments.E7ChainLatencyGreedy(1) })
}

func BenchmarkE8TreeLatency(b *testing.B) {
	benchReport(b, func() experiments.Report { return experiments.E8TreeLatency(1) })
}

func BenchmarkE9ForestStructure(b *testing.B) {
	benchReport(b, func() experiments.Report { return experiments.E9ForestStructure(1) })
}

func BenchmarkE10Reductions(b *testing.B) {
	benchReport(b, experiments.E10Reductions)
}

func BenchmarkE11HeuristicQuality(b *testing.B) {
	benchReport(b, func() experiments.Report { return experiments.E11HeuristicQuality(1) })
}

func BenchmarkE12ModelGaps(b *testing.B) {
	benchReport(b, func() experiments.Report { return experiments.E12ModelGaps(1) })
}

// --- component benchmarks: the building blocks users pay for ---

// BenchmarkTheorem1Construction times the polynomial OVERLAP period
// orchestration (schedule construction + full multi-port validation) on the
// 202-service B.1 instance.
func BenchmarkTheorem1Construction(b *testing.B) {
	w := paperex.B1OptimalGraph().Weighted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := orchestrate.OverlapPeriod(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInOrderMCR times one event-graph period computation (Howard MCR
// + earliest schedule + validation) on the Figure 1 instance.
func BenchmarkInOrderMCR(b *testing.B) {
	w := paperex.Fig1Graph().Weighted()
	orders := orchestrate.DefaultOrders(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := orchestrate.InOrderPeriodWithOrders(w, orders); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInOrderMCRLarge scales the event-graph machinery (Howard MCR +
// potentials + validation) to a 100-service random forest, whose single-
// predecessor structure is deadlock-free under any order assignment.
func BenchmarkInOrderMCRLarge(b *testing.B) {
	rng := gen.NewRand(1)
	app := gen.App(rng, 100, gen.Mixed)
	w := gen.ForestPlan(rng, app).Weighted()
	orders := orchestrate.DefaultOrders(w)
	if _, err := orchestrate.InOrderPeriodWithOrders(w, orders); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := orchestrate.InOrderPeriodWithOrders(w, orders); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyChain times the polynomial Prop-8 chain construction on
// 1000 services.
func BenchmarkGreedyChain(b *testing.B) {
	app := gen.App(gen.NewRand(2), 1000, gen.Filtering)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := solve.GreedyChainOrder(app, plan.InOrder)
		_ = solve.ChainPeriodValue(app, order, plan.InOrder)
	}
}

// BenchmarkTreeLatencyAlgorithm times Algorithm 1 on a 500-node random
// forest.
func BenchmarkTreeLatencyAlgorithm(b *testing.B) {
	rng := gen.NewRand(3)
	app := gen.App(rng, 500, gen.Filtering)
	w := gen.ForestPlan(rng, app).Weighted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := orchestrate.TreeLatency(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfTimedSimulation times the discrete-event executor for 200
// data sets of a 12-service pipeline.
func BenchmarkSelfTimedSimulation(b *testing.B) {
	w := paperex.B2Graph().Weighted()
	orders := orchestrate.DefaultOrders(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SelfTimedInOrder(w, orders, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBranchBoundChain12 times the scale payoff of the exact search:
// certifying the chain optimum at n=12, whose 12! candidates no blind
// enumeration finishes. (Everything timed end to end or per layer — cold
// plan search, the two order searches — is the repository benchmark's,
// bench/.)
func BenchmarkBranchBoundChain12(b *testing.B) {
	app := gen.App(gen.NewRand(42), 12, gen.Filtering)
	opts := solve.Options{
		Method:  solve.BranchBound,
		Family:  solve.FamilyChain,
		Workers: 1,
		Orch:    orchestrate.Options{MaxExhaustive: 64},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve.MinPeriod(app, plan.InOrder, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerEndToEnd times the full public-API pipeline (plan search
// + orchestration + validation) on an 8-service instance.
func BenchmarkPlannerEndToEnd(b *testing.B) {
	app := filtering.RandomApp(4, 8, filtering.Filtering)
	planner := filtering.NewPlanner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.MinimizePeriod(app, filtering.Overlap); err != nil {
			b.Fatal(err)
		}
	}
}
