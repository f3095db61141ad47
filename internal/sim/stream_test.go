package sim

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// TestTupleHashGoldens pins the verdict hash bit-for-bit. The executor's
// determinism contract (fixed seed ⇒ identical verdicts across runs,
// workers, and machines) makes this function part of the wire-level
// behavior: changing it silently would change every measured selectivity,
// so any change must break this test deliberately.
func TestTupleHashGoldens(t *testing.T) {
	goldens := []struct {
		seed  uint64
		name  string
		tuple uint64
		want  uint64
	}{
		{0, "", 0, 14087677454934409008},
		{1, "C1", 0, 3171853099896201835},
		{1, "C1", 1, 17504047275386016899},
		{1, "C2", 0, 7781931822814771976},
		{42, "C1", 0, 11416054335621976338},
		{1, "C1", 1 << 40, 2664679742599864127},
	}
	for _, g := range goldens {
		if got := TupleHash(g.seed, g.name, g.tuple); got != g.want {
			t.Errorf("TupleHash(%d, %q, %d) = %d, want %d", g.seed, g.name, g.tuple, got, g.want)
		}
		// The split the executor's compiled tuple loop relies on: the
		// name half computed once, the tuple half per verdict.
		if got := Finalise(NameHash(g.seed, g.name), g.tuple); got != g.want {
			t.Errorf("Finalise(NameHash(%d, %q), %d) = %d, want %d", g.seed, g.name, g.tuple, got, g.want)
		}
	}
	// The three inputs are all live: perturbing any one moves the hash.
	base := TupleHash(1, "C1", 7)
	if TupleHash(2, "C1", 7) == base || TupleHash(1, "C9", 7) == base || TupleHash(1, "C1", 8) == base {
		t.Error("hash insensitive to one of (seed, name, tuple)")
	}
}

// TestThresholdEdges checks the exact selectivity→threshold conversion,
// including the clamped edges the verdict special-cases.
func TestThresholdEdges(t *testing.T) {
	cases := []struct {
		sel  rat.Rat
		want uint64
	}{
		{rat.Zero, 0},
		{rat.New(-1, 2), 0},
		{rat.One, ^uint64(0)},
		{rat.I(3), ^uint64(0)},
		{rat.New(1, 2), 1 << 63},
		{rat.New(1, 4), 1 << 62},
		{rat.New(1, 3), 6148914691236517205}, // floor(2^64 / 3)
	}
	for _, c := range cases {
		if got := Threshold(c.sel); got != c.want {
			t.Errorf("Threshold(%s) = %d, want %d", c.sel, got, c.want)
		}
	}
	// Threshold 0 never passes; threshold max always passes, regardless of
	// the hash value.
	if Verdict(1, "x", 0, 0) {
		t.Error("selectivity 0 passed a tuple")
	}
	if !Verdict(1, "x", 0, ^uint64(0)) {
		t.Error("selectivity ≥ 1 dropped a tuple")
	}
}

// TestBernoulliConvergesToSelectivity is the statistical contract: the
// deterministic per-tuple verdicts behave like independent Bernoulli
// draws, so the pass rate over a long stream converges to the selectivity.
// 100k tuples put the standard error near 0.0014; a 0.01 tolerance is ~7σ.
func TestBernoulliConvergesToSelectivity(t *testing.T) {
	const n = 100000
	for _, sel := range []rat.Rat{rat.New(1, 10), rat.New(1, 4), rat.New(1, 2), rat.New(9, 10)} {
		threshold := Threshold(sel)
		passed := 0
		for tuple := uint64(0); tuple < n; tuple++ {
			if Verdict(7, "svc", tuple, threshold) {
				passed++
			}
		}
		got := float64(passed) / n
		want := sel.Float64()
		if diff := got - want; diff > 0.01 || diff < -0.01 {
			t.Errorf("selectivity %s: empirical pass rate %.4f", sel, got)
		}
	}
}

// TestReferenceStreamSemantics pins the oracle's counter semantics on a
// diamond a→{b,c}: In counts tuples whose ancestors all passed, Out the
// subset passed, and Emitted the tuples alive at EVERY exit.
func TestReferenceStreamSemantics(t *testing.T) {
	app := workflow.MustNew([]workflow.Service{
		{Name: "a", Cost: rat.One, Selectivity: rat.New(1, 2)},
		{Name: "b", Cost: rat.One, Selectivity: rat.New(2, 3)},
		{Name: "c", Cost: rat.One, Selectivity: rat.New(3, 4)},
	}, nil)
	eg, err := plan.Build(app, [][2]int{{0, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	c := ReferenceStream(app, eg, 1, 0, n, nil)

	if c.In["a"] != n {
		t.Fatalf("entry service saw %d tuples, want %d", c.In["a"], n)
	}
	// b and c gate on a alone: both see exactly a's survivors.
	if c.In["b"] != c.Out["a"] || c.In["c"] != c.Out["a"] {
		t.Fatalf("In[b]=%d In[c]=%d, want both = Out[a]=%d", c.In["b"], c.In["c"], c.Out["a"])
	}
	// Emitted requires survival at both exits: recompute it from the
	// verdicts directly.
	var want uint64
	tb, tc := Threshold(app.Selectivity(1)), Threshold(app.Selectivity(2))
	ta := Threshold(app.Selectivity(0))
	for tuple := uint64(0); tuple < n; tuple++ {
		if Verdict(1, "a", tuple, ta) && Verdict(1, "b", tuple, tb) && Verdict(1, "c", tuple, tc) {
			want++
		}
	}
	if c.Emitted != want {
		t.Fatalf("Emitted = %d, want %d", c.Emitted, want)
	}
	if c.Emitted >= c.Out["b"] || c.Emitted >= c.Out["c"] {
		t.Fatalf("Emitted %d not strictly filtered below single exits (b: %d, c: %d)",
			c.Emitted, c.Out["b"], c.Out["c"])
	}

	// Streams are position-independent and composable: [0,n) equals
	// [0,k) + [k,n) counter-for-counter.
	const k = 1000
	head := ReferenceStream(app, eg, 1, 0, k, nil)
	tail := ReferenceStream(app, eg, 1, k, n-k, nil)
	for _, name := range []string{"a", "b", "c"} {
		if head.In[name]+tail.In[name] != c.In[name] || head.Out[name]+tail.Out[name] != c.Out[name] {
			t.Fatalf("segment counters for %s do not compose", name)
		}
	}
	if head.Emitted+tail.Emitted != c.Emitted {
		t.Fatal("segment Emitted does not compose")
	}
}

// TestReferenceStreamTruthOverride: the truth map redirects a service's
// verdicts without touching the declared instance — the mechanism behind
// filterexec -drift.
func TestReferenceStreamTruthOverride(t *testing.T) {
	app := workflow.MustNew([]workflow.Service{
		{Name: "a", Cost: rat.One, Selectivity: rat.New(1, 2)},
		{Name: "b", Cost: rat.One, Selectivity: rat.New(1, 2)},
	}, nil)
	eg, err := plan.Build(app, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2048
	blocked := ReferenceStream(app, eg, 1, 0, n, map[string]rat.Rat{"a": rat.Zero})
	if blocked.Out["a"] != 0 || blocked.In["b"] != 0 || blocked.Emitted != 0 {
		t.Fatalf("truth 0 leaked tuples: %+v", blocked)
	}
	open := ReferenceStream(app, eg, 1, 0, n, map[string]rat.Rat{"a": rat.One})
	if open.Out["a"] != n || open.In["b"] != n {
		t.Fatalf("truth 1 dropped tuples: %+v", open)
	}
	// b keeps its declared behavior either way.
	declared := ReferenceStream(app, eg, 1, 0, n, nil)
	if open.In["b"] == declared.In["b"] && open.Out["b"] != declared.Out["b"] {
		t.Fatal("override of a changed b's verdicts")
	}
}
