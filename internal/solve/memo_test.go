package solve

// The solve-level orchestration-memo suite: a memo hit must be
// indistinguishable from recomputing, and the memo must actually fire on
// the searches that revisit candidate graphs.

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
)

// TestMemoDoesNotChangeSolutions pins the memo invariant: with the
// per-solve memo on or off, every method returns the bit-identical
// Solution.
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
					bare.noMemo = true
					want := describeSolution(solveOnce(t, app, m, obj, bare))
					if got := describeSolution(solveOnce(t, app, m, obj, base)); got != want {
						t.Fatalf("memoized solve diverged from memo-less solve:\n--- no memo ---\n%s\n--- memo ---\n%s", want, got)
					}
				})
			}
		}
	}
}

// TestMemoHitsAcrossSearchPhases pins the point of the memo: from six
// services up the branch-and-bound search seeds its incumbent with
// greedy-chain and hill-climb solutions whose graphs the enumeration then
// reaches again, so the solve's memo must serve hits. A seed at the period
// floor ends the seeding, so the instance's greedy chain must be above its
// floor for the climb seed to run.
func TestMemoHitsAcrossSearchPhases(t *testing.T) {
	app := gen.App(gen.NewRand(33), climbSeedMinN, gen.Mixed)
	floor := periodFloor(app, plan.InOrder)
	if greedy := ChainPeriodValue(app, GreedyChainOrder(app, plan.InOrder), plan.InOrder); atFloor(&floor, greedy) {
		t.Fatalf("the greedy chain meets the period floor %s: no climb seed runs", floor)
	}
	var ef Effort
	opts := Options{Method: BranchBound, Family: FamilyForest, Orch: smallOrch(), Restarts: 2, Workers: 1, Effort: &ef}
	if _, err := MinPeriod(app, plan.InOrder, opts); err != nil {
		t.Fatal(err)
	}
	hits, evals := ef.MemoHits, ef.Evals
	if hits == 0 || hits >= evals {
		t.Fatalf("implausible memo counters: %d hits of %d orchestrations", hits, evals)
	}
	t.Logf("branch-and-bound forest solve: %d memo hits of %d orchestrations", hits, evals)
}
