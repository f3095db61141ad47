package plan

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/rat"
	"repro/internal/workflow"
)

// fig1 rebuilds the paper's §2.3 example locally to avoid an import cycle
// with paperex.
func fig1() *ExecGraph {
	app := workflow.Uniform(5, rat.I(4), rat.One)
	return MustBuild(app, [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 4}, {3, 4}})
}

func TestFig1DerivedQuantities(t *testing.T) {
	eg := fig1()
	w := eg.Weighted()
	for v := 0; v < 5; v++ {
		if !eg.InProd(v).Equal(rat.One) || !eg.OutSize(v).Equal(rat.One) {
			t.Fatalf("service %d: inProd=%s outSize=%s, want 1", v, eg.InProd(v), eg.OutSize(v))
		}
		if !eg.Ccomp(v).Equal(rat.I(4)) {
			t.Fatalf("Ccomp(%d) = %s", v, eg.Ccomp(v))
		}
	}
	// C1 (index 0): one input comm, two successors.
	if !w.Cin(0).Equal(rat.One) || !w.Cout(0).Equal(rat.Two) {
		t.Fatalf("C1: Cin=%s Cout=%s", w.Cin(0), w.Cout(0))
	}
	// C5 (index 4): two predecessors, exit node.
	if !w.Cin(4).Equal(rat.Two) || !w.Cout(4).Equal(rat.One) {
		t.Fatalf("C5: Cin=%s Cout=%s", w.Cin(4), w.Cout(4))
	}
	// Period lower bounds: 4 with overlap, 7 without (paper §2.3).
	if !w.PeriodLowerBound(Overlap).Equal(rat.I(4)) {
		t.Fatalf("overlap bound = %s", w.PeriodLowerBound(Overlap))
	}
	if !w.PeriodLowerBound(InOrder).Equal(rat.I(7)) {
		t.Fatalf("one-port bound = %s", w.PeriodLowerBound(InOrder))
	}
	if !w.PeriodLowerBound(OutOrder).Equal(rat.I(7)) {
		t.Fatalf("out-order bound = %s", w.PeriodLowerBound(OutOrder))
	}
	// The longest path gives exactly the optimal latency 21 here.
	if !w.LatencyPathBound().Equal(rat.I(21)) {
		t.Fatalf("latency path bound = %s", w.LatencyPathBound())
	}
}

func TestFig1Ancestors(t *testing.T) {
	eg := fig1()
	if eg.Ancestors(0).Count() != 0 {
		t.Fatal("C1 has no ancestors")
	}
	got := eg.Ancestors(4).Elements()
	if len(got) != 4 { // C1..C4
		t.Fatalf("ancestors of C5 = %v", got)
	}
}

func TestSelectivityProducts(t *testing.T) {
	// in -> A(σ=1/2) -> B(σ=3) -> C; diamond merge checked separately.
	app := workflow.MustNew([]workflow.Service{
		{Cost: rat.I(2), Selectivity: rat.New(1, 2)},
		{Cost: rat.I(2), Selectivity: rat.I(3)},
		{Cost: rat.I(2), Selectivity: rat.One},
	}, nil)
	eg := MustBuild(app, [][2]int{{0, 1}, {1, 2}})
	if !eg.InProd(1).Equal(rat.New(1, 2)) {
		t.Fatalf("inProd(B) = %s", eg.InProd(1))
	}
	if !eg.InProd(2).Equal(rat.New(3, 2)) {
		t.Fatalf("inProd(C) = %s", eg.InProd(2))
	}
	if !eg.OutSize(1).Equal(rat.New(3, 2)) {
		t.Fatalf("outSize(B) = %s", eg.OutSize(1))
	}
	if !eg.Ccomp(2).Equal(rat.I(3)) {
		t.Fatalf("Ccomp(C) = %s", eg.Ccomp(2))
	}
}

func TestDiamondAncestorProductCountsOnce(t *testing.T) {
	// A(σ=1/2) feeds B and C, both feed D: A's selectivity must be counted
	// once in inProd(D), not once per path.
	app := workflow.MustNew([]workflow.Service{
		{Cost: rat.One, Selectivity: rat.New(1, 2)},
		{Cost: rat.One, Selectivity: rat.One},
		{Cost: rat.One, Selectivity: rat.One},
		{Cost: rat.One, Selectivity: rat.One},
	}, nil)
	eg := MustBuild(app, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if !eg.InProd(3).Equal(rat.New(1, 2)) {
		t.Fatalf("inProd(D) = %s, want 1/2", eg.InProd(3))
	}
	// D receives from both B and C, each sending 1/2.
	if cin := eg.Weighted().Cin(3); !cin.Equal(rat.One) {
		t.Fatalf("Cin(D) = %s", cin)
	}
}

func TestBuildRejectsBadGraphs(t *testing.T) {
	app := workflow.Uniform(3, rat.One, rat.One)
	if _, err := Build(app, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("cycle accepted")
	}
	if _, err := Build(app, [][2]int{{0, 3}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := Build(app, [][2]int{{0, 0}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestBuildEnforcesPrecedence(t *testing.T) {
	app := workflow.MustNew([]workflow.Service{
		{Cost: rat.One, Selectivity: rat.One},
		{Cost: rat.One, Selectivity: rat.One},
		{Cost: rat.One, Selectivity: rat.One},
	}, [][2]int{{0, 2}}) // C1 must precede C3
	// Direct edge satisfies it.
	if _, err := Build(app, [][2]int{{0, 2}}); err != nil {
		t.Fatalf("direct edge rejected: %v", err)
	}
	// Transitive path satisfies it.
	if _, err := Build(app, [][2]int{{0, 1}, {1, 2}}); err != nil {
		t.Fatalf("transitive path rejected: %v", err)
	}
	// Missing constraint must be rejected.
	if _, err := Build(app, [][2]int{{1, 2}}); err == nil {
		t.Fatal("plan violating precedence accepted")
	}
	// Reversed edge must be rejected (it also creates no path 0->2).
	if _, err := Build(app, [][2]int{{2, 0}}); err == nil {
		t.Fatal("reversed precedence accepted")
	}
}

func TestEdgesIncludeVirtualEndpoints(t *testing.T) {
	eg := fig1()
	edges := eg.Edges()
	var ins, outs, mids int
	for _, e := range edges {
		switch {
		case e.From == In:
			ins++
			if !eg.CommSize(e).Equal(rat.One) {
				t.Fatalf("input comm size = %s", eg.CommSize(e))
			}
		case e.To == Out:
			outs++
		default:
			mids++
		}
	}
	if ins != 1 || outs != 1 || mids != 5 {
		t.Fatalf("ins=%d outs=%d mids=%d", ins, outs, mids)
	}
}

func TestEdgeString(t *testing.T) {
	if (Edge{In, 0}).String() != "in->0" {
		t.Fatalf("got %q", Edge{In, 0}.String())
	}
	if (Edge{4, Out}).String() != "4->out" {
		t.Fatalf("got %q", Edge{4, Out}.String())
	}
	if (Edge{1, 2}).String() != "1->2" {
		t.Fatalf("got %q", Edge{1, 2}.String())
	}
}

func TestModelString(t *testing.T) {
	if Overlap.String() != "OVERLAP" || InOrder.String() != "INORDER" || OutOrder.String() != "OUTORDER" {
		t.Fatal("model names wrong")
	}
	if Model(99).String() != "Model(99)" {
		t.Fatal("unknown model formatting wrong")
	}
}

func TestChainFromOrderAndParallel(t *testing.T) {
	app := workflow.Uniform(3, rat.One, rat.New(1, 2))
	chain, err := ChainFromOrder(app, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !chain.IsChain() {
		t.Fatal("not a chain")
	}
	if !chain.InProd(1).Equal(rat.New(1, 4)) { // after C3 and C1
		t.Fatalf("inProd = %s", chain.InProd(1))
	}
	if _, err := ChainFromOrder(app, []int{0, 1}); err == nil {
		t.Fatal("short order accepted")
	}
	par, err := Parallel(app)
	if err != nil {
		t.Fatal(err)
	}
	if par.Graph().EdgeCount() != 0 || !par.IsForest() {
		t.Fatal("parallel plan wrong")
	}
}

func TestStringAndDescribe(t *testing.T) {
	eg := fig1()
	s := eg.String()
	if !strings.Contains(s, "5 services") || !strings.Contains(s, "C1->C2") {
		t.Fatalf("String() = %q", s)
	}
	d := eg.Describe()
	if !strings.Contains(d, "Cexec") || !strings.Contains(d, "C5") {
		t.Fatalf("Describe() missing content:\n%s", d)
	}
}

// loweringAgrees reports whether eg's Weighted lowering carries the graph's
// own quantities: Ccomp as node weights, every communication of Edges in
// order with its CommSize as volume, each listed at its real endpoints, and
// the graph's topological order.
func loweringAgrees(eg *ExecGraph) bool {
	w := eg.Weighted()
	if w.N() != eg.N() || len(w.Edges()) != len(eg.Edges()) || !reflect.DeepEqual(w.Topo(), eg.Topo()) {
		return false
	}
	for v := 0; v < eg.N(); v++ {
		if !w.Comp(v).Equal(eg.Ccomp(v)) || w.Name(v) != eg.App().Name(v) {
			return false
		}
	}
	ins, outs := make([]int, eg.N()), make([]int, eg.N())
	for i, e := range eg.Edges() {
		if w.Edge(i) != e || !w.Vol(i).Equal(eg.CommSize(e)) {
			return false
		}
		if e.From != In {
			outs[e.From]++
		}
		if e.To != Out {
			ins[e.To]++
		}
	}
	for v := 0; v < eg.N(); v++ {
		if len(w.InEdges(v)) != ins[v] || len(w.OutEdges(v)) != outs[v] {
			return false
		}
	}
	return true
}

func TestWeightedLoweringMatchesExecGraph(t *testing.T) {
	if !loweringAgrees(fig1()) {
		t.Fatal("Fig-1 lowering does not carry the execution graph's quantities")
	}
}

func TestNewWeightedValidation(t *testing.T) {
	one := rat.One
	okEdges := []Edge{{In, 0}, {0, Out}}
	okVols := []rat.Rat{one, one}
	if _, err := NewWeighted(nil, []rat.Rat{one}, okEdges, okVols); err != nil {
		t.Fatalf("valid weighted rejected: %v", err)
	}
	cases := []struct {
		name  string
		comp  []rat.Rat
		edges []Edge
		vols  []rat.Rat
	}{
		{"len mismatch", []rat.Rat{one}, okEdges, []rat.Rat{one}},
		{"negative comp", []rat.Rat{rat.I(-1)}, okEdges, okVols},
		{"negative vol", []rat.Rat{one}, okEdges, []rat.Rat{one, rat.I(-1)}},
		{"duplicate edge", []rat.Rat{one}, []Edge{{In, 0}, {In, 0}, {0, Out}}, []rat.Rat{one, one, one}},
		{"no input", []rat.Rat{one}, []Edge{{0, Out}}, []rat.Rat{one}},
		{"no output", []rat.Rat{one}, []Edge{{In, 0}}, []rat.Rat{one}},
		{"bad endpoint", []rat.Rat{one}, []Edge{{In, 0}, {0, Out}, {5, 0}}, []rat.Rat{one, one, one}},
		{"cycle", []rat.Rat{one, one},
			[]Edge{{In, 0}, {0, 1}, {1, 0}, {1, Out}, {0, Out}, {In, 1}},
			[]rat.Rat{one, one, one, one, one, one}},
	}
	for _, c := range cases {
		if _, err := NewWeighted(nil, c.comp, c.edges, c.vols); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestWeightedAccessors(t *testing.T) {
	w := MustNewWeighted([]string{"a", "b"}, []rat.Rat{rat.One, rat.Two},
		[]Edge{{In, 0}, {0, 1}, {1, Out}},
		[]rat.Rat{rat.One, rat.New(1, 2), rat.I(3)})
	if w.Name(0) != "a" || w.Name(1) != "b" {
		t.Fatal("names wrong")
	}
	if idx := w.EdgeIndex(Edge{0, 1}); idx != 1 || !w.Vol(idx).Equal(rat.New(1, 2)) {
		t.Fatal("EdgeIndex/Vol wrong")
	}
	if w.EdgeIndex(Edge{1, 0}) != -1 {
		t.Fatal("missing edge should be -1")
	}
	if len(w.InEdges(1)) != 1 || len(w.OutEdges(0)) != 1 {
		t.Fatal("adjacency wrong")
	}
	if w.Edge(2) != (Edge{1, Out}) {
		t.Fatal("Edge accessor wrong")
	}
	if len(w.Topo()) != 2 {
		t.Fatal("topo wrong")
	}
	// Chain latency bound: 1 + 1 + 1/2 + 2 + 3 = 15/2.
	if !w.LatencyPathBound().Equal(rat.New(15, 2)) {
		t.Fatalf("latency = %s", w.LatencyPathBound())
	}
}
