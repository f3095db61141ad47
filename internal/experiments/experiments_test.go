package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// regenerate rewrites EXPERIMENTS.md from the harness, keeping the header
// above its first "### " heading. Run it from the repository root.
const regenerate = `{ sed '/^### /,$d' EXPERIMENTS.md; go run ./cmd/filterexp -md -budget 2; } > EXPERIMENTS.md.new && mv EXPERIMENTS.md.new EXPERIMENTS.md`

// recordSections splits EXPERIMENTS.md from its first "### " heading on
// into sections keyed by experiment ID, each running up to the next
// heading. It also returns that whole tail.
func recordSections(t *testing.T) (map[string]string, string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(data), "\n### ")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md has no ### heading")
	}
	tail := string(data[start+1:])
	sections := map[string]string{}
	for rest := tail; rest != ""; {
		sec := rest
		if next := strings.Index(rest, "\n### "); next >= 0 {
			sec = rest[:next+1]
		}
		sections[strings.Fields(sec)[1]] = sec
		rest = rest[len(sec):]
	}
	return sections, tail
}

// TestExperimentsMatchRecord pins EXPERIMENTS.md to the harness: from its
// first "### " heading to the end the file must equal the budget-2
// rendering byte for byte, and every paper claim must reproduce (the
// Prop 17 discrepancy is recorded in notes, not in OK). Under -short only
// the fixed sub-second smoke experiments run, each compared with its own
// section of the file.
func TestExperimentsMatchRecord(t *testing.T) {
	sections, tail := recordSections(t)
	reports := smoke()
	if !testing.Short() {
		reports = AllWorkers(2, 0)
	}
	var rendered strings.Builder
	for _, r := range reports {
		if !r.OK {
			t.Errorf("%s (%s) failed:\n%s", r.ID, r.Title, r.Table.String())
		}
		md := r.Markdown()
		rendered.WriteString(md)
		if sections[r.ID] != md {
			t.Errorf("%s differs from EXPERIMENTS.md\n--- recorded:\n%s--- rendered:\n%s", r.ID, sections[r.ID], md)
		}
	}
	if !testing.Short() && !t.Failed() && rendered.String() != tail {
		t.Errorf("EXPERIMENTS.md holds %d sections, the harness renders %d (or their order differs)", len(sections), len(reports))
	}
	if t.Failed() {
		t.Logf("if the change is meant, regenerate EXPERIMENTS.md from the repository root with `make experiments`, which runs:\n\t%s", regenerate)
	}
}

// TestSmokeExperimentsPass always runs the fixed fast experiments, so even
// `go test -short` verifies the paper's worked example, counter-examples
// and gadgets end to end.
func TestSmokeExperimentsPass(t *testing.T) {
	checkReports(t, smoke())
}

// smoke runs only the fixed, fast experiments (the worked example, the
// three counter-examples and the NP-hardness gadgets — no random sweeps):
// the sub-second subset that `go test -short` exercises.
func smoke() []Report {
	return []Report{
		E1Fig1(),
		E2ChainVsForest(),
		E3MultiportLatency(),
		E4MultiportPeriod(),
		E10Reductions(),
	}
}

// TestAllWorkersPreservesOrderAndResults runs the harness with a forced
// multi-worker pool and requires the canonical report order and verdicts.
// (Each experiment is individually deterministic — seeded RNGs throughout —
// and solver-level 1-vs-N bitwise determinism is pinned exhaustively in
// internal/solve; what concurrency could break here is the report order and
// cross-experiment interference, which is what this test watches.)
func TestAllWorkersPreservesOrderAndResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full harness; long mode only")
	}
	reports := AllWorkers(1, 4)
	want := []string{"E1", "E2", "E3", "E4", "E10", "E11", "E12", "E13", "E14", "E15", "E18", "E20"}
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
