package solve

// The solve-level orchestration-memo suite: a memo hit must be
// indistinguishable from recomputing, and the memo must actually fire on
// the searches that revisit candidate graphs.

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/plan"
)

// TestMemoDoesNotChangeSolutions pins the memo invariant of
// Options.Memo: with the memo disabled, defaulted, or shared explicitly,
// every method returns the bit-identical Solution.
func TestMemoDoesNotChangeSolutions(t *testing.T) {
	plain := gen.App(gen.NewRand(31), 4, gen.Mixed)
	withPrec := gen.AppWithPrecedence(gen.NewRand(8), 4, gen.Filtering, 0.3)
	type tcase struct {
		name   string
		method Method
		family Family // exact-<family>: the exact search over that family
		prec   bool
	}
	for _, tc := range []tcase{
		{"exact-forest", BranchBound, FamilyForest, false},
		{"exact-dag", BranchBound, FamilyDAG, false},
		{"hill-climb", HillClimb, FamilyAuto, false},
		{"branch-bound", BranchBound, FamilyAuto, false},
		{"branch-bound/precedence", BranchBound, FamilyAuto, true},
	} {
		app := plain
		if tc.prec {
			app = withPrec
		}
		for _, m := range plan.Models {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, m, obj), func(t *testing.T) {
					base := Options{Method: tc.method, Family: tc.family, Orch: smallOrch(), Restarts: 2, Seed: 7, Workers: 1}
					bare := base
					bare.NoMemo = true
					want := describeSolution(solveOnce(t, app, m, obj, bare))
					memoized := describeSolution(solveOnce(t, app, m, obj, base))
					if memoized != want {
						t.Fatalf("default memo diverged from memo-less solve:\n--- no memo ---\n%s\n--- memo ---\n%s", want, memoized)
					}
					shared := base
					shared.Memo = orchestrate.NewMemo(0)
					got := describeSolution(solveOnce(t, app, m, obj, shared))
					if got != want {
						t.Fatalf("explicit memo diverged from memo-less solve:\n--- no memo ---\n%s\n--- memo ---\n%s", want, got)
					}
				})
			}
		}
	}
}

// TestMemoHitsAcrossSearchPhases pins the point of the memo: the
// branch-and-bound search seeds its incumbent with greedy-chain and
// hill-climb solutions whose graphs the enumeration then reaches again, so
// a solve-shared memo must serve hits.
func TestMemoHitsAcrossSearchPhases(t *testing.T) {
	app := gen.App(gen.NewRand(31), 5, gen.Mixed)
	memo := orchestrate.NewMemo(0)
	opts := Options{Method: BranchBound, Family: FamilyForest, Orch: smallOrch(), Restarts: 2, Workers: 1, Memo: memo}
	if _, err := MinPeriod(app, plan.InOrder, opts); err != nil {
		t.Fatal(err)
	}
	if memo.Hits() == 0 {
		t.Fatalf("expected memo hits across search phases, got %s", memo)
	}
	if memo.Len() == 0 || memo.Misses() == 0 {
		t.Fatalf("implausible memo counters: %s", memo)
	}
	t.Logf("branch-and-bound forest solve: %s", memo)
}

// TestMemoKeySeparatesProblems guards the memo key: two different models
// (or objectives) on the same weighted plan must never share an entry.
func TestMemoKeySeparatesProblems(t *testing.T) {
	app := gen.App(gen.NewRand(3), 4, gen.Filtering)
	memo := orchestrate.NewMemo(0)
	opts := Options{Method: BranchBound, Family: FamilyForest, Orch: smallOrch(), Workers: 1, Memo: memo}
	ino, err := MinPeriod(app, plan.InOrder, opts)
	if err != nil {
		t.Fatal(err)
	}
	ovl, err := MinPeriod(app, plan.Overlap, opts)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := MinLatency(app, plan.InOrder, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Model power ordering and the period/latency gap both collapse if the
	// memo conflates the keys.
	if ovl.Value.Greater(ino.Value) {
		t.Fatalf("overlap %s > inorder %s: memo key conflated models", ovl.Value, ino.Value)
	}
	if lat.Value.Less(ino.Value) {
		t.Fatalf("latency %s < period %s on the same instance: memo key conflated objectives", lat.Value, ino.Value)
	}
	// And each must equal its memo-less answer.
	for _, m := range []plan.Model{plan.InOrder, plan.Overlap} {
		bare, err := MinPeriod(app, m, Options{Method: BranchBound, Family: FamilyForest, Orch: smallOrch(), Workers: 1, NoMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := MinPeriod(app, m, Options{Method: BranchBound, Family: FamilyForest, Orch: smallOrch(), Workers: 1, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		if describeSolution(shared) != describeSolution(bare) {
			t.Fatalf("%s: memo-shared solve diverged from memo-less", m)
		}
	}
}
