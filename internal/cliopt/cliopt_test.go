package cliopt

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/solve"
)

func TestModel(t *testing.T) {
	cases := map[string]plan.Model{
		"overlap": plan.Overlap, "INORDER": plan.InOrder, "OutOrder": plan.OutOrder,
	}
	for in, want := range cases {
		got, err := Model(in)
		if err != nil || got != want {
			t.Errorf("Model(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := Model("bogus"); err == nil {
		t.Error("bogus model accepted")
	}
}

func TestObjective(t *testing.T) {
	cases := map[string]solve.Objective{
		"period": solve.PeriodObjective, "Latency": solve.LatencyObjective,
	}
	for in, want := range cases {
		got, err := Objective(in)
		if err != nil || got != want {
			t.Errorf("Objective(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := Objective("bogus"); err == nil {
		t.Error("bogus objective accepted")
	}
}

func TestMethod(t *testing.T) {
	cases := map[string]solve.Method{
		"auto": solve.Auto, "greedy-chain": solve.GreedyChain, "hill-climb": solve.HillClimb,
		"bnb": solve.BranchBound, "Branch-Bound": solve.BranchBound,
	}
	for in, want := range cases {
		got, err := Method(in)
		if err != nil || got != want {
			t.Errorf("Method(%q) = %v, %v", in, got, err)
		}
	}
	// The blind enumerations are no longer methods: their names fail like
	// any unknown one.
	for _, in := range []string{"bogus", "exact-chain", "exact-forest", "exact-dag"} {
		if _, err := Method(in); err == nil || err.Error() != fmt.Sprintf("unknown method %q", in) {
			t.Errorf("Method(%q) error = %v, want unknown method", in, err)
		}
	}
}

func TestFamily(t *testing.T) {
	cases := map[string]solve.Family{
		"auto": solve.FamilyAuto, "Forest": solve.FamilyForest, "DAG": solve.FamilyDAG,
	}
	for in, want := range cases {
		got, err := Family(in)
		if err != nil || got != want {
			t.Errorf("Family(%q) = %v, %v", in, got, err)
		}
	}
	// The chain family is retired (its optimum is GreedyChain's): its name
	// fails like any unknown one.
	for _, in := range []string{"bogus", "chain"} {
		if _, err := Family(in); err == nil || err.Error() != fmt.Sprintf("unknown family %q (want auto, forest or dag)", in) {
			t.Errorf("Family(%q) error = %v, want unknown family", in, err)
		}
	}
}

// TestRoundTrips pins the contract that every parser accepts the String()
// form of every value it can return, so reports and requests interoperate.
func TestRoundTrips(t *testing.T) {
	for _, m := range plan.Models {
		if got, err := Model(m.String()); err != nil || got != m {
			t.Errorf("Model(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, o := range []solve.Objective{solve.PeriodObjective, solve.LatencyObjective} {
		if got, err := Objective(o.String()); err != nil || got != o {
			t.Errorf("Objective(%q) = %v, %v", o.String(), got, err)
		}
	}
	for _, m := range []solve.Method{solve.Auto, solve.GreedyChain, solve.HillClimb, solve.BranchBound} {
		if got, err := Method(m.String()); err != nil || got != m {
			t.Errorf("Method(%q) = %v, %v", m.String(), got, err)
		}
	}
	// The two inert constants (see their comment in solve) round-trip to
	// nothing.
	for _, m := range []solve.Method{solve.ExactForest, solve.ExactDAG} {
		if got, err := Method(m.String()); err == nil {
			t.Errorf("Method(%q) = %v, want an error", m.String(), got)
		}
	}
	for _, f := range []solve.Family{solve.FamilyAuto, solve.FamilyForest, solve.FamilyDAG} {
		if got, err := Family(f.String()); err != nil || got != f {
			t.Errorf("Family(%q) = %v, %v", f.String(), got, err)
		}
	}
}
