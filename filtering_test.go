package filtering_test

import (
	"strings"
	"testing"

	filtering "repro"
	"repro/internal/paperex"
)

// TestFacadeQuickstart exercises the package-documentation workflow through
// the public API only.
func TestFacadeQuickstart(t *testing.T) {
	app := filtering.Uniform(5, filtering.Int(4), filtering.Int(1))
	sol, err := filtering.MinPeriod(app, filtering.Overlap, filtering.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Graph == nil || sol.Sched.List == nil {
		t.Fatal("incomplete solution")
	}
	if !sol.Value.Equal(filtering.Int(4)) {
		t.Fatalf("optimal OVERLAP period = %s, want 4 (parallel plan)", sol.Value)
	}
	tr, err := filtering.Replay(sol.Sched.List, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Gap(1).Equal(sol.Value) {
		t.Fatal("replayed gap differs from period")
	}
}

func TestFacadeGraphAndSchedule(t *testing.T) {
	app := filtering.Uniform(5, filtering.Int(4), filtering.Int(1))
	eg, err := filtering.BuildGraph(app, [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 4}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range filtering.Models {
		sched, err := filtering.Period(eg, m, filtering.OrchestrateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if sched.Value.Sign() <= 0 {
			t.Fatalf("%s: bad period", m)
		}
	}
	lat, err := filtering.Latency(eg, filtering.InOrder, filtering.OrchestrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Value.Equal(filtering.Int(21)) {
		t.Fatalf("latency = %s, want 21", lat.Value)
	}
}

func TestFacadeSolversAndBiCriteria(t *testing.T) {
	app := filtering.RandomApp(1, 4, filtering.Filtering)
	per, err := filtering.MinPeriod(app, filtering.InOrder, filtering.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := filtering.MinLatency(app, filtering.InOrder, filtering.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bi, err := filtering.BiCriteria(app, filtering.InOrder, per.Value.MulInt(2), filtering.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bi.Value.Less(lat.Value) {
		t.Fatal("bi-criteria beats unconstrained latency optimum")
	}
}

func TestFacadeRationals(t *testing.T) {
	r, err := filtering.ParseRat("23/3")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(filtering.NewRat(23, 3)) {
		t.Fatal("rational constructors disagree")
	}
}

func TestFacadeComplexityMatrix(t *testing.T) {
	if len(filtering.ComplexityMatrix()) != 12 {
		t.Fatal("complexity matrix must have 12 entries")
	}
}

func TestMatrixShape(t *testing.T) {
	m := filtering.ComplexityMatrix()
	polys, nps := 0, 0
	for _, c := range m {
		switch c.Class {
		case "polynomial":
			polys++
		case "NP-hard":
			nps++
		default:
			t.Fatalf("unknown class %q", c.Class)
		}
		if c.Implementation == "" || c.Reference == "" {
			t.Fatal("entry missing implementation or reference")
		}
		// The minimization rows name the search that runs, not the blind
		// enumerations it replaced.
		if c.Problem == "minimization" && !strings.Contains(c.Implementation, "branch-and-bound") {
			t.Errorf("%s: implementation %q does not name the exact search", c, c.Implementation)
		}
	}
	// The paper's headline: 11 of the 12 variants are NP-hard; only
	// OVERLAP period orchestration is polynomial.
	if polys != 1 || nps != 11 {
		t.Fatalf("polys=%d nps=%d, want 1/11", polys, nps)
	}
	if len(filtering.PolynomialCases()) == 0 {
		t.Fatal("no polynomial cases listed")
	}
	if s := m[0].String(); !strings.Contains(s, "OVERLAP") || !strings.Contains(s, "polynomial") {
		t.Fatalf("String() = %q", s)
	}
}

func TestPlannerEndToEnd(t *testing.T) {
	app := paperex.Fig1App()
	for _, m := range filtering.Models {
		sol, err := filtering.MinPeriod(app, m, filtering.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := sol.Sched.List.Validate(m); err != nil {
			t.Fatalf("%s: invalid schedule: %v", m, err)
		}
		// Five uniform unit-selectivity services: the parallel plan gives
		// the global optimum (cost 4 dominates); sanity-check the value.
		if sol.Value.Greater(filtering.Int(21)) {
			t.Fatalf("%s: period %s absurd", m, sol.Value)
		}
	}
	sol, err := filtering.MinLatency(app, filtering.InOrder, filtering.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The parallel plan has latency 1+4+1 = 6; nothing can beat computing
	// at least one service plus its I/O.
	if !sol.Value.Equal(filtering.Int(6)) {
		t.Fatalf("latency optimum = %s, want 6", sol.Value)
	}
}

func TestPlannerOrchestrate(t *testing.T) {
	eg := paperex.Fig1Graph()
	res, err := filtering.Period(eg, filtering.InOrder, filtering.OrchestrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(filtering.NewRat(23, 3)) {
		t.Fatalf("INORDER period = %s, want 23/3", res.Value)
	}
	lat, err := filtering.Latency(eg, filtering.OutOrder, filtering.OrchestrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Value.Equal(filtering.Int(21)) {
		t.Fatalf("latency = %s, want 21", lat.Value)
	}
}

func TestPlannerEvaluatePlan(t *testing.T) {
	eg := paperex.Fig1Graph()
	res, err := filtering.Period(eg, filtering.Overlap, filtering.OrchestrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.List.Validate(filtering.Overlap); err != nil {
		t.Fatal(err)
	}
	period, latency := res.List.Period(), res.List.Latency()
	if !period.Equal(filtering.Int(4)) || latency.Less(period) {
		t.Fatalf("period=%s latency=%s", period, latency)
	}
	// The Theorem-1 list is not INORDER-valid (stretched comms).
	if err := res.List.Validate(filtering.InOrder); err == nil {
		t.Fatal("stretched multi-port list must fail one-port validation")
	}
}

func TestFacadeAppValidation(t *testing.T) {
	_, err := filtering.NewApp([]filtering.Service{
		{Cost: filtering.Int(-1), Selectivity: filtering.Int(1)},
	}, nil)
	if err == nil {
		t.Fatal("negative cost accepted")
	}
	app, err := filtering.NewApp([]filtering.Service{
		{Name: "scan", Cost: filtering.Int(2), Selectivity: filtering.NewRat(1, 2)},
		{Name: "rank", Cost: filtering.Int(3), Selectivity: filtering.Int(1)},
	}, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := filtering.ChainGraph(app, []int{1, 0}); err == nil {
		t.Fatal("chain violating precedence accepted")
	}
	if _, err := filtering.ParallelGraph(app); err == nil {
		t.Fatal("parallel plan violating precedence accepted")
	}
}

func TestFacadeWeightedWorkflow(t *testing.T) {
	// A three-stage traditional pipeline with explicit volumes.
	one := filtering.Int(1)
	w, err := filtering.NewWeighted(
		[]string{"src", "xform", "sink"},
		[]filtering.Rat{filtering.Int(2), filtering.Int(3), filtering.Int(2)},
		[]filtering.CommEdge{
			{From: filtering.InNode, To: 0},
			{From: 0, To: 1},
			{From: 1, To: 2},
			{From: 2, To: filtering.OutNode},
		},
		[]filtering.Rat{one, filtering.Int(2), one, one},
	)
	if err != nil {
		t.Fatal(err)
	}
	per, err := filtering.PeriodOf(w, filtering.InOrder, filtering.OrchestrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Chain bound: xform has Cin+Ccomp+Cout = 2+3+1 = 6.
	if !per.Value.Equal(filtering.Int(6)) {
		t.Fatalf("period = %s, want 6", per.Value)
	}
	lat, err := filtering.LatencyOf(w, filtering.Overlap, filtering.OrchestrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Path: 1 + 2 + 2 + 3 + 1 + 2 + 1 = 12.
	if !lat.Value.Equal(filtering.Int(12)) {
		t.Fatalf("latency = %s, want 12", lat.Value)
	}
	if _, err := filtering.NewWeighted(nil, []filtering.Rat{one}, nil, nil); err == nil {
		t.Fatal("node without communications accepted")
	}
}

func TestFacadeBottleneckReporting(t *testing.T) {
	app := filtering.Uniform(5, filtering.Int(4), filtering.Int(1))
	eg, err := filtering.BuildGraph(app, [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 4}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := filtering.Period(eg, filtering.InOrder, filtering.OrchestrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Bottleneck) == 0 {
		t.Fatal("INORDER schedule must expose its critical cycle")
	}
}
