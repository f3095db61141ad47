package oplist

import (
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
)

// TestValidateAllocBudget pins the cost of validating a VALID list, which
// is what every schedule a search keeps goes through: the one-port checks
// reuse one operation buffer across servers and format no labels (those are
// built on the error path only), so the count is a handful of slice
// growths however many operations the plan has. Measured on Figure 1
// (budgets are 1.5x): INORDER 3, OUTORDER 6 (two passes over the servers),
// OVERLAP 18 (C1 and C5 have two full-rate communications on one port, so
// their breakpoint sweeps run).
func TestValidateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	l := fig1Latency(t)
	for _, tc := range []struct {
		m      plan.Model
		budget float64
	}{{plan.InOrder, 5}, {plan.OutOrder, 9}, {plan.Overlap, 27}} {
		if err := l.Validate(tc.m); err != nil {
			t.Fatalf("%s: %v", tc.m, err)
		}
		if got := testing.AllocsPerRun(200, func() { l.Validate(tc.m) }); got > tc.budget {
			t.Errorf("Validate(%s) of a valid list: %.1f allocs/run, budget %.0f", tc.m, got, tc.budget)
		}
	}
}

// TestConflictErrorsNameOperations keeps the labels that moved to the
// error path: a one-port conflict still names the server and both
// operations.
func TestConflictErrorsNameOperations(t *testing.T) {
	// C1 sends to C2 and to C3 at the same time.
	w := plan.MustNewWeighted(nil,
		[]rat.Rat{rat.One, rat.One, rat.One},
		[]plan.Edge{{From: plan.In, To: 0}, {From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: plan.Out}, {From: 2, To: plan.Out}},
		[]rat.Rat{rat.One, rat.One, rat.One, rat.One, rat.One})
	l := New(w, rat.I(100))
	l.SetCalc(0, rat.One)
	l.SetComm(0, rat.Zero)
	l.SetComm(1, rat.I(2))
	l.SetComm(2, rat.I(2))
	l.SetCalc(1, rat.I(3))
	l.SetCalc(2, rat.I(3))
	l.SetComm(3, rat.I(4))
	l.SetComm(4, rat.I(4))
	for _, m := range []plan.Model{plan.InOrder, plan.OutOrder} {
		err := l.Validate(m)
		if err == nil {
			t.Fatalf("%s: simultaneous sends accepted", m)
		}
		for _, want := range []string{"server C1", "comm(0->1)", "comm(0->2)"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %s", m, err, want)
			}
		}
	}
	// A computation overlapping a communication names the computation.
	l.SetComm(2, rat.I(3))
	l.SetCalc(2, rat.I(4))
	l.SetComm(4, rat.I(5))
	l.SetCalc(0, rat.New(3, 2))
	l.SetLambda(rat.I(100))
	if err := l.validateOutOrder(); err == nil || !strings.Contains(err.Error(), "calc(C1)") {
		t.Errorf("calc/comm conflict: %v", err)
	}
}
