package experiments

import "testing"

func checkReports(t *testing.T, reports []Report) {
	t.Helper()
	for _, r := range reports {
		if r.Table == nil || r.ID == "" || r.Title == "" {
			t.Fatalf("%s: malformed report", r.ID)
		}
		if !r.OK {
			t.Errorf("%s (%s) failed:\n%s", r.ID, r.Title, r.Table.String())
		}
	}
}

// TestAllExperimentsPass runs the full harness at smoke budget and requires
// every paper claim to reproduce (the Prop 17 discrepancy is recorded in
// notes, not in OK). Under -short the expensive random sweeps are gated
// off and only the fixed sub-second experiments run (see TestSmoke); the
// full budget-1 harness remains the long-mode/CI configuration.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweeps are gated behind long mode; -short runs TestSmokeExperimentsPass")
	}
	checkReports(t, All(1))
}

// TestSmokeExperimentsPass always runs the fixed fast experiments, so even
// `go test -short` verifies the paper's worked example, counter-examples
// and gadgets end to end.
func TestSmokeExperimentsPass(t *testing.T) {
	checkReports(t, Smoke())
}

// TestAllWorkersPreservesOrderAndResults runs the harness with a forced
// multi-worker pool and requires the canonical report order and verdicts.
// (Each experiment is individually deterministic up to E13's informational
// wall-time column — seeded RNGs throughout —
// and solver-level 1-vs-N bitwise determinism is pinned exhaustively in
// internal/solve; what concurrency could break here is the report order and
// cross-experiment interference, which is what this test watches.)
func TestAllWorkersPreservesOrderAndResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full harness; long mode only")
	}
	reports := AllWorkers(1, 4)
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E20"}
	if len(reports) != len(want) {
		t.Fatalf("got %d reports, want %d", len(reports), len(want))
	}
	for i, r := range reports {
		if r.ID != want[i] {
			t.Errorf("report %d: ID %s, want %s", i, r.ID, want[i])
		}
		if !r.OK {
			t.Errorf("%s (%s) failed under the parallel harness:\n%s", r.ID, r.Title, r.Table.String())
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := E1Fig1()
	if r.Table.String() == "" || r.Table.Markdown() == "" {
		t.Fatal("empty render")
	}
	if !r.OK {
		t.Fatal("E1 must reproduce")
	}
}
