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
	"repro/internal/workflow"
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
	benchReport(b, func() experiments.Report { return experiments.E9ForestStructure(1, 0) })
}

func BenchmarkE10Reductions(b *testing.B) {
	benchReport(b, experiments.E10Reductions)
}

func BenchmarkE11HeuristicQuality(b *testing.B) {
	benchReport(b, func() experiments.Report { return experiments.E11HeuristicQuality(1, 0) })
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

// BenchmarkBranchBound times the exact search per expanded node, one
// family per sub-benchmark at its size cap: chains at n = 12 (12!
// candidates, which no blind enumeration finishes), forests at n = 7 and
// DAGs at n = 5, without and with precedence. ns/node is the whole solve
// (incumbent seeding and orchestration included) over the Search.Expanded
// of its Options.Effort, and leaves/op its Search.Evaluated, the graphs
// scored per solve. Read the two together: a cut that removes cheap nodes,
// as the DAG tree's transitive-reduction cut does, can raise ns/node while
// the solve gets faster.
// (Everything timed end to end or per layer — cold plan search, the two
// order searches — is the repository benchmark's, bench/.)
func BenchmarkBranchBound(b *testing.B) {
	for _, c := range []struct {
		name   string
		family solve.Family
		app    *workflow.App
	}{
		{"chain-n12", solve.FamilyChain, gen.App(gen.NewRand(42), 12, gen.Filtering)},
		{"forest-n7", solve.FamilyForest, gen.App(gen.NewRand(7), 7, gen.Filtering)},
		{"dag-n5", solve.FamilyDAG, gen.App(gen.NewRand(5), 5, gen.Mixed)},
		{"dag-n5-prec", solve.FamilyDAG, gen.AppWithPrecedence(gen.NewRand(5), 5, gen.Mixed, 0.4)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ef solve.Effort
			opts := solve.Options{
				Method:  solve.BranchBound,
				Family:  c.family,
				Workers: 1,
				Orch:    orchestrate.Options{MaxExhaustive: 64},
				Effort:  &ef,
			}
			var nodes, leaves int64
			for b.Loop() {
				if _, err := solve.MinPeriod(c.app, plan.InOrder, opts); err != nil {
					b.Fatal(err)
				}
				nodes += ef.Search.Expanded
				leaves += ef.Search.Evaluated
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			b.ReportMetric(float64(leaves)/float64(b.N), "leaves/op")
		})
	}
}

// BenchmarkMinPeriodEndToEnd times the full public-API pipeline (plan
// search + orchestration + validation) on an 8-service instance.
func BenchmarkMinPeriodEndToEnd(b *testing.B) {
	app := filtering.RandomApp(4, 8, filtering.Filtering)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := filtering.MinPeriod(app, filtering.Overlap, filtering.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
