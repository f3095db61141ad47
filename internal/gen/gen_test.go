package gen

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
)

func TestAppProfiles(t *testing.T) {
	rng := NewRand(1)
	cases := []struct {
		p        Profile
		loOK     func(s rat.Rat) bool
		expected string
	}{
		{Filtering, func(s rat.Rat) bool { return s.Less(rat.One) && s.Sign() > 0 }, "filtering"},
		{Expanding, func(s rat.Rat) bool { return s.Greater(rat.One) }, "expanding"},
		{Mixed, func(s rat.Rat) bool { return s.Geq(rat.New(1, 2)) && s.Leq(rat.I(2)) }, "mixed"},
		{Neutral, func(s rat.Rat) bool { return s.Equal(rat.One) }, "neutral"},
	}
	for _, c := range cases {
		if c.p.String() != c.expected {
			t.Errorf("Profile name = %q, want %q", c.p.String(), c.expected)
		}
		app := App(rng, 30, c.p)
		if app.N() != 30 {
			t.Fatalf("N = %d", app.N())
		}
		for i := 0; i < app.N(); i++ {
			if !c.loOK(app.Selectivity(i)) {
				t.Errorf("%s: selectivity %s out of band", c.p, app.Selectivity(i))
			}
			if app.Cost(i).Less(rat.One) || app.Cost(i).Greater(rat.I(10)) {
				t.Errorf("cost %s out of [1,10]", app.Cost(i))
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := App(NewRand(42), 10, Mixed)
	b := App(NewRand(42), 10, Mixed)
	for i := 0; i < 10; i++ {
		if !a.Cost(i).Equal(b.Cost(i)) || !a.Selectivity(i).Equal(b.Selectivity(i)) {
			t.Fatal("same seed must generate identical applications")
		}
	}
}

func TestAppWithPrecedence(t *testing.T) {
	rng := NewRand(7)
	app := AppWithPrecedence(rng, 12, Filtering, 0.3)
	if !app.HasPrecedence() {
		t.Fatal("expected precedence constraints at density 0.3")
	}
	if !app.Precedence().IsAcyclic() {
		t.Fatal("precedence graph must be acyclic")
	}
}

func TestDAGPlanHonorsPrecedence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := NewRand(seed)
		app := AppWithPrecedence(rng, 8, Mixed, 0.2)
		eg := DAGPlan(rng, app, 0.3)
		if _, err := plan.FromGraph(app, eg.Graph()); err != nil {
			t.Fatalf("seed %d: plan does not honor precedence: %v", seed, err)
		}
	}
}

func TestForestPlanShape(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := NewRand(seed)
		app := App(rng, 10, Filtering)
		eg := ForestPlan(rng, app)
		if !eg.IsForest() {
			t.Fatalf("seed %d: not a forest", seed)
		}
	}
}

func TestForestPlanRejectsPrecedence(t *testing.T) {
	rng := NewRand(3)
	app := AppWithPrecedence(rng, 5, Mixed, 0.9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ForestPlan(rng, app)
}

func TestChainPlanShape(t *testing.T) {
	rng := NewRand(5)
	app := App(rng, 7, Filtering)
	eg, err := plan.ChainFromOrder(app, rng.Perm(app.N()))
	if err != nil {
		t.Fatal(err)
	}
	if !eg.IsChain() {
		t.Fatal("not a chain")
	}
}

func TestWeightedShape(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := NewRand(seed)
		w := Weighted(rng, 8, 0.3)
		if w.N() != 8 {
			t.Fatalf("N = %d", w.N())
		}
		for v := 0; v < w.N(); v++ {
			if len(w.InEdges(v)) == 0 || len(w.OutEdges(v)) == 0 {
				t.Fatalf("seed %d: node %d missing virtual comm", seed, v)
			}
		}
		if w.PeriodLowerBound(plan.Overlap).Sign() <= 0 {
			t.Fatal("degenerate plan")
		}
	}
}
