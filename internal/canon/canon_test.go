package canon

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/solve"
	"repro/internal/workflow"
)

func mustCanon(t *testing.T, app *workflow.App) *Instance {
	t.Helper()
	in, err := Canonicalize(app)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestGoldenHashes pins the content hash of fixed instances. These values
// are the wire-visible cache keys of the planning service: a change here is
// a cache-busting format change and must come with a hashVersion bump.
func TestGoldenHashes(t *testing.T) {
	chain := workflow.MustNew([]workflow.Service{
		{Name: "A", Cost: rat.I(4), Selectivity: rat.New(1, 2)},
		{Name: "B", Cost: rat.I(2), Selectivity: rat.I(2)},
		{Name: "C", Cost: rat.I(1), Selectivity: rat.I(1)},
	}, [][2]int{{0, 1}, {1, 2}})
	uniform := workflow.Uniform(5, rat.I(4), rat.I(1))

	golden := map[string]*workflow.App{
		"2d549eefabad0267b7f5e4e754557aa596f504b880f4db12efe31bd9799f7fb2": chain,
		"acaaca716360898a7fca1c2e095665908ac421ef10b2d092f5a3ab47f47570a7": uniform,
	}
	seen := map[string]bool{}
	for want, app := range golden {
		in := mustCanon(t, app)
		if in.Hash() != want {
			t.Errorf("hash drifted: got %s want %s — a format change must bump hashVersion", in.Hash(), want)
		}
		if seen[in.Hash()] {
			t.Errorf("distinct instances collided on %s", in.Hash())
		}
		seen[in.Hash()] = true
	}
}

// TestHashHexShape sanity-checks the hash format (64 lowercase hex chars).
func TestHashHexShape(t *testing.T) {
	in := mustCanon(t, workflow.Uniform(3, rat.I(1), rat.I(1)))
	if len(in.Hash()) != 64 || strings.ToLower(in.Hash()) != in.Hash() {
		t.Fatalf("unexpected hash shape %q", in.Hash())
	}
}

// TestServicePermutationInvariance: listing the same services in any order
// yields the same canonical app and hash, and every name keeps its cost and
// selectivity (names are identity).
func TestServicePermutationInvariance(t *testing.T) {
	services := []workflow.Service{
		{Name: "X", Cost: rat.I(3), Selectivity: rat.New(1, 3)},
		{Name: "Y", Cost: rat.I(1), Selectivity: rat.New(1, 2)},
		{Name: "Z", Cost: rat.I(2), Selectivity: rat.I(2)},
	}
	// Precedence X → Z expressed against each listing's indices.
	orig := workflow.MustNew(services, [][2]int{{0, 2}})
	permuted := workflow.MustNew(
		[]workflow.Service{services[2], services[0], services[1]},
		[][2]int{{1, 0}})

	a, b := mustCanon(t, orig), mustCanon(t, permuted)
	if a.Hash() != b.Hash() {
		t.Fatalf("permuted listings hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	for i := 0; i < orig.N(); i++ {
		want := orig.Service(i)
		j := a.App().IndexOf(want.Name)
		if j < 0 {
			t.Fatalf("canonical app lost service %s", want.Name)
		}
		if got := a.App().Service(j); !got.Cost.Equal(want.Cost) || !got.Selectivity.Equal(want.Selectivity) {
			t.Errorf("canonicalization broke name identity: %s is %s/%s, want %s/%s",
				want.Name, got.Cost, got.Selectivity, want.Cost, want.Selectivity)
		}
	}
}

// TestRationalNormalization: equal rationals in different representations
// (2/4 vs 1/2 vs decimal 0.5) canonicalize identically.
func TestRationalNormalization(t *testing.T) {
	half1 := workflow.MustNew([]workflow.Service{
		{Name: "S", Cost: rat.New(2, 4), Selectivity: rat.New(6, 4)},
	}, nil)
	half2 := workflow.MustNew([]workflow.Service{
		{Name: "S", Cost: rat.MustParse("0.5"), Selectivity: rat.MustParse("3/2")},
	}, nil)
	if a, b := mustCanon(t, half1), mustCanon(t, half2); a.Hash() != b.Hash() {
		t.Fatalf("equal rationals hash differently: %s vs %s", a.Hash(), b.Hash())
	}
}

// TestPrecedenceClosureInvariance: edge sets with the same transitive
// closure are the same constraint set, so they must hash identically —
// while genuinely different closures must not.
func TestPrecedenceClosureInvariance(t *testing.T) {
	services := []workflow.Service{
		{Name: "A", Cost: rat.I(1), Selectivity: rat.New(1, 2)},
		{Name: "B", Cost: rat.I(2), Selectivity: rat.New(1, 3)},
		{Name: "C", Cost: rat.I(3), Selectivity: rat.New(1, 5)},
	}
	reduced := workflow.MustNew(services, [][2]int{{0, 1}, {1, 2}})
	withTransitive := workflow.MustNew(services, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	none := workflow.MustNew(services, nil)

	a, b, c := mustCanon(t, reduced), mustCanon(t, withTransitive), mustCanon(t, none)
	if a.Hash() != b.Hash() {
		t.Errorf("equal closures hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if a.Hash() == c.Hash() {
		t.Error("dropping all precedence constraints did not change the hash")
	}
}

// TestNamesAreIdentity: renaming a service changes the instance (names key
// drift updates and appear in plans), so the hash must change.
func TestNamesAreIdentity(t *testing.T) {
	a := mustCanon(t, workflow.MustNew([]workflow.Service{
		{Name: "A", Cost: rat.I(1), Selectivity: rat.I(1)},
	}, nil))
	b := mustCanon(t, workflow.MustNew([]workflow.Service{
		{Name: "B", Cost: rat.I(1), Selectivity: rat.I(1)},
	}, nil))
	if a.Hash() == b.Hash() {
		t.Error("renamed service did not change the hash")
	}
}

// TestCostChangesHash: a drifted cost must produce a fresh hash (the drift
// path of the planning service re-registers under the new hash).
func TestCostChangesHash(t *testing.T) {
	base := mustCanon(t, workflow.Uniform(4, rat.I(4), rat.I(1)))
	services := workflow.Uniform(4, rat.I(4), rat.I(1)).Services()
	services[2].Cost = rat.I(5)
	drifted := mustCanon(t, workflow.MustNew(services, nil))
	if base.Hash() == drifted.Hash() {
		t.Error("cost drift did not change the hash")
	}
}

// TestCanonicalAppPreservesOptimum: canonicalization relabels but does not
// change the problem — the optimal objective value is identical.
func TestCanonicalAppPreservesOptimum(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		app := gen.AppWithPrecedence(gen.NewRand(seed), 4, gen.Mixed, 0.3)
		in := mustCanon(t, app)
		opts := solve.Options{Workers: 1}
		orig, err := solve.MinPeriod(app, plan.Overlap, opts)
		if err != nil {
			t.Fatal(err)
		}
		canonSol, err := solve.MinPeriod(in.App(), plan.Overlap, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !orig.Value.Equal(canonSol.Value) {
			t.Errorf("seed %d: optimum changed under canonicalization: %s vs %s",
				seed, orig.Value, canonSol.Value)
		}
	}
}

// TestCanonicalizeIsIdempotent: canonicalizing the canonical app is a
// fixed point.
func TestCanonicalizeIsIdempotent(t *testing.T) {
	app := gen.App(gen.NewRand(11), 6, gen.Filtering)
	once := mustCanon(t, app)
	twice := mustCanon(t, once.App())
	if once.Hash() != twice.Hash() {
		t.Fatalf("canonicalization not idempotent: %s vs %s", once.Hash(), twice.Hash())
	}
	for i := 0; i < twice.App().N(); i++ {
		if a, b := once.App().Name(i), twice.App().Name(i); a != b {
			t.Fatalf("canonical app re-permuted: position %d holds %s, then %s", i, a, b)
		}
	}
}

func TestCanonicalizeRejectsDegenerate(t *testing.T) {
	if _, err := Canonicalize(nil); err == nil {
		t.Error("nil app accepted")
	}
	empty := workflow.MustNew(nil, nil)
	if _, err := Canonicalize(empty); err == nil {
		t.Error("empty app accepted")
	}
}
