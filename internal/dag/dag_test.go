package dag

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// diamond builds the 4-node DAG 0->1, 0->2, 1->3, 2->3.
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	return g
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1) // duplicate is a no-op
	if g.EdgeCount() != 2 || !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge bookkeeping broken")
	}
	if got := g.Succ(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Succ = %v", got)
	}
	if got := g.Pred(1); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Pred = %v", got)
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.EdgeCount() != 1 {
		t.Fatal("RemoveEdge failed")
	}
	g.RemoveEdge(0, 1) // removing absent edge is a no-op
	if g.EdgeCount() != 1 {
		t.Fatal("double remove changed count")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddEdge(0, 2)
}

func TestTopoSortDeterministic(t *testing.T) {
	g := diamond()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("order = %v", order)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, err := g.TopoSort(); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if g.IsAcyclic() {
		t.Fatal("cycle not detected")
	}
}

func TestRootsLeaves(t *testing.T) {
	g := diamond()
	if got := g.Roots(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Roots = %v", got)
	}
	if g.InDegree(3) != 2 || g.OutDegree(0) != 2 {
		t.Fatal("degrees wrong")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	g := diamond()
	_, anc, err := g.AncestorsInto(new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if anc[3].String() != "{0, 1, 2}" {
		t.Fatalf("anc[3] = %v", anc[3])
	}
	if anc[0].String() != "{}" {
		t.Fatal("root has ancestors")
	}
	if anc[1].String() != "{0}" {
		t.Fatalf("anc[1] = %v", anc[1])
	}
	desc, err := g.Descendants()
	if err != nil {
		t.Fatal(err)
	}
	if desc[0].String() != "{1, 2, 3}" {
		t.Fatalf("desc[0] = %v", desc[0])
	}
	if desc[3].String() != "{}" {
		t.Fatal("leaf has descendants")
	}
}

func TestTransitiveClosureAndReduction(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2) // redundant
	c, err := g.TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	if c.EdgeCount() != 3 || !c.HasEdge(0, 2) {
		t.Fatalf("closure edges = %v", c.Edges())
	}
	r, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCount() != 2 || r.HasEdge(0, 2) {
		t.Fatalf("reduction edges = %v", r.Edges())
	}
	// Closure of the reduction equals closure of the original.
	rc, _ := r.TransitiveClosure()
	if !reflect.DeepEqual(rc.Edges(), c.Edges()) {
		t.Fatal("reduction changed the closure")
	}
}

func TestStructuralPredicates(t *testing.T) {
	chain := New(4)
	chain.AddEdge(0, 1)
	chain.AddEdge(1, 2)
	chain.AddEdge(2, 3)
	if !chain.IsChain() || !chain.IsForest() {
		t.Fatal("chain misclassified")
	}

	fan := New(4)
	fan.AddEdge(0, 1)
	fan.AddEdge(0, 2)
	fan.AddEdge(0, 3)
	if fan.IsChain() {
		t.Fatal("fan is not a chain")
	}
	if !fan.IsForest() {
		t.Fatal("fan is a tree")
	}

	d := diamond()
	if d.IsForest() || d.IsChain() {
		t.Fatal("diamond misclassified: node 3 has two predecessors")
	}

	twoChains := New(4)
	twoChains.AddEdge(0, 1)
	twoChains.AddEdge(2, 3)
	if twoChains.IsChain() {
		t.Fatal("two components are not one chain")
	}
	if !twoChains.IsForest() {
		t.Fatal("two chains form a forest")
	}

	empty := New(0)
	if !empty.IsChain() || !empty.IsForest() {
		t.Fatal("empty graph is trivially chain and forest")
	}

	isolated := New(3) // no edges: forest, not chain (3 roots)
	if isolated.IsChain() {
		t.Fatal("isolated nodes are not a chain")
	}
	if !isolated.IsForest() {
		t.Fatal("isolated nodes form a forest")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond()
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("clone not independent")
	}
	if !reflect.DeepEqual(g.Edges(), diamond().Edges()) {
		t.Fatal("original mutated")
	}
	// The clone's lists share one backing array: growing one must not
	// overwrite its neighbour.
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(c.Edges(), want) || !reflect.DeepEqual(c.Pred(2), []int{0, 1}) || c.EdgeCount() != 5 {
		t.Fatalf("clone edges %v, preds of 2 %v", c.Edges(), c.Pred(2))
	}
}

// randomDAG builds a DAG by only adding forward edges under a random
// permutation, guaranteeing acyclicity.
func randomDAG(rng *rand.Rand, n int, p float64) *Graph {
	perm := rng.Perm(n)
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(perm[i], perm[j])
			}
		}
	}
	return g
}

func TestQuickTopoOrderRespectsEdges(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(20), 0.3)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make([]int, g.N())
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e[0]] >= pos[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickAncestorsMatchClosure(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(15), 0.3)
		_, anc, err := g.AncestorsInto(new(Scratch))
		if err != nil {
			return false
		}
		c, err := g.TransitiveClosure()
		if err != nil {
			return false
		}
		for v := 0; v < g.N(); v++ {
			for u := 0; u < g.N(); u++ {
				if anc[v].Has(u) != c.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickReductionMinimalAndEquivalent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(6))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(12), 0.4)
		r, err := g.TransitiveReduction()
		if err != nil {
			return false
		}
		gc, _ := g.TransitiveClosure()
		rc, _ := r.TransitiveClosure()
		if !reflect.DeepEqual(gc.Edges(), rc.Edges()) {
			return false
		}
		// Removing any edge of the reduction must change the closure.
		for _, e := range r.Edges() {
			r2 := r.Clone()
			r2.RemoveEdge(e[0], e[1])
			r2c, _ := r2.TransitiveClosure()
			if reflect.DeepEqual(r2c.Edges(), rc.Edges()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkTopoSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomDAG(rng, 500, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopoSort(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAncestors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomDAG(rng, 500, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.AncestorsInto(new(Scratch)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScratchReuseMatchesFresh: TopoSortInto and AncestorsInto on one
// Scratch carried across graphs of changing size and shape — cyclic ones
// included — answer exactly as TopoSort and a fresh Scratch do.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for trial := 0; trial < 300; trial++ {
		g := randomDAG(rng, rng.Intn(9), 0.4)
		if g.N() > 1 && trial%5 == 0 {
			order, _ := g.TopoSort()
			g.AddEdge(order[len(order)-1], order[0]) // usually closes a cycle
		}
		want, wantErr := g.TopoSort()
		got, err := g.TopoSortInto(&s)
		if err != wantErr || !reflect.DeepEqual(append([]int{}, got...), append([]int{}, want...)) {
			t.Fatalf("trial %d: TopoSortInto = %v, %v; TopoSort = %v, %v", trial, got, err, want, wantErr)
		}
		_, wantAnc, wantErr := g.AncestorsInto(new(Scratch))
		gotOrder, gotAnc, err := g.AncestorsInto(&s)
		if err != wantErr || len(gotAnc) != len(wantAnc) {
			t.Fatalf("trial %d: AncestorsInto error %v / %d sets, on a fresh Scratch %v / %d", trial, err, len(gotAnc), wantErr, len(wantAnc))
		}
		if !reflect.DeepEqual(append([]int{}, gotOrder...), append([]int{}, want...)) {
			t.Fatalf("trial %d: AncestorsInto order %v, TopoSort %v", trial, gotOrder, want)
		}
		for v := range wantAnc {
			if gotAnc[v].String() != wantAnc[v].String() {
				t.Fatalf("trial %d: ancestors of %d = %s, want %s", trial, v, gotAnc[v], wantAnc[v])
			}
		}
	}
}

// TestScratchAllocBudget: one Kahn pass plus the ancestor sets on a warm
// Scratch — the partial bounds' per-node step — allocate nothing.
func TestScratchAllocBudget(t *testing.T) {
	var s Scratch
	g := randomDAG(rand.New(rand.NewSource(13)), 8, 0.4)
	if _, _, err := g.AncestorsInto(&s); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { g.AncestorsInto(&s) }); allocs != 0 {
		t.Fatalf("AncestorsInto on a warm Scratch allocated %.1f times, want 0", allocs)
	}
}
