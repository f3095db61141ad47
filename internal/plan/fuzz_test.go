package plan

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// fromGraphRef is FromGraph as it was before it became one Kahn pass: clone,
// sort, check the precedence closure on fresh descendant sets, sort again
// for the ancestor sets. Kept as the oracle of FuzzFromGraph.
func fromGraphRef(app *workflow.App, g *dag.Graph) (*ExecGraph, error) {
	if g.N() != app.N() {
		return nil, fmt.Errorf("plan: graph has %d nodes, application has %d services", g.N(), app.N())
	}
	eg := &ExecGraph{app: app, g: g.Clone()}
	topo, err := eg.g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("plan: execution graph is cyclic")
	}
	eg.topo = topo
	ok, err := closureContains(eg.g, app.Precedence())
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("plan: execution graph does not honor the precedence constraints")
	}
	_, anc, err := eg.g.AncestorsInto(new(dag.Scratch))
	if err != nil {
		return nil, err
	}
	n := app.N()
	eg.inProd = make([]rat.Rat, n)
	eg.outSize = make([]rat.Rat, n)
	for _, v := range topo {
		p := rat.One
		anc[v].ForEach(func(u int) { p = p.Mul(app.Selectivity(u)) })
		eg.inProd[v] = p
		eg.outSize[v] = p.Mul(app.Selectivity(v))
	}
	for v := 0; v < n; v++ {
		if eg.g.InDegree(v) == 0 {
			eg.edges = append(eg.edges, Edge{In, v})
		}
	}
	for _, e := range eg.g.Edges() {
		eg.edges = append(eg.edges, Edge{e[0], e[1]})
	}
	for v := 0; v < n; v++ {
		if eg.g.OutDegree(v) == 0 {
			eg.edges = append(eg.edges, Edge{v, Out})
		}
	}
	return eg, nil
}

// closureContains reports whether every edge of h is implied by g, i.e.
// h's edges are a subset of g's transitive closure, on fresh descendant
// sets. Both graphs must have the same node count; g must be a DAG.
func closureContains(g, h *dag.Graph) (bool, error) {
	if g.N() != h.N() {
		return false, fmt.Errorf("dag: node count mismatch %d != %d", g.N(), h.N())
	}
	desc, err := g.Descendants()
	if err != nil {
		return false, err
	}
	for _, e := range h.Edges() {
		if !desc[e[0]].Has(e[1]) {
			return false, nil
		}
	}
	return true, nil
}

func TestClosureContains(t *testing.T) {
	g := dag.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	h := dag.New(3)
	h.AddEdge(0, 2) // implied transitively
	ok, err := closureContains(g, h)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	h.AddEdge(2, 0)
	ok, err = closureContains(g, h)
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v; 2->0 is not implied", ok, err)
	}
	if _, err := closureContains(g, dag.New(4)); err == nil {
		t.Fatal("expected node count mismatch error")
	}
}

// weightedRef is ExecGraph.Weighted as it was before it lowered directly:
// through NewWeighted, which rebuilds and re-validates the graph.
func weightedRef(eg *ExecGraph) *Weighted {
	n := eg.N()
	comp := make([]rat.Rat, n)
	names := make([]string, n)
	for v := 0; v < n; v++ {
		comp[v] = eg.Ccomp(v)
		names[v] = eg.app.Name(v)
	}
	vols := make([]rat.Rat, len(eg.edges))
	for i, e := range eg.edges {
		vols[i] = eg.CommSize(e)
	}
	return MustNewWeighted(names, comp, eg.edges, vols)
}

// sameRatVec reports value and representation equality.
func sameRatVec(a, b []rat.Rat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// fuzzApp builds n ≤ 10 services with mixed selectivities (filters,
// neutral, expanders) and, when prec is set, the forward precedence pairs
// the first bytes of data select.
func fuzzApp(n int, prec bool, data []byte) (*workflow.App, []byte) {
	services := make([]workflow.Service, n)
	for i := range services {
		services[i] = workflow.Service{Cost: rat.I(int64(1 + i%4)), Selectivity: rat.New(int64(1+i%3), 2)}
	}
	var precEdges [][2]int
	if prec && len(data) > 0 {
		k := int(data[0]) % (n + 1)
		data = data[1:]
		for ; k > 0 && len(data) >= 2; k-- {
			u, v := int(data[0])%n, int(data[1])%n
			data = data[2:]
			if u > v {
				u, v = v, u
			}
			if u != v {
				precEdges = append(precEdges, [2]int{u, v})
			}
		}
	}
	return workflow.MustNew(services, precEdges), data
}

// FuzzFromGraph holds FromGraph and the direct Weighted lowering to the
// builder they replaced: the same error text, or the same order, edges and
// volumes — and a Weighted equal to NewWeighted's field by field.
func FuzzFromGraph(f *testing.F) {
	f.Add(uint8(5), false, []byte{0, 1, 0, 3, 1, 2, 2, 4, 3, 4})
	f.Add(uint8(3), true, []byte{1, 0, 2, 0, 1, 1, 2})
	f.Add(uint8(3), false, []byte{0, 1, 1, 2, 2, 0})
	f.Add(uint8(10), true, []byte{4, 0, 9, 1, 8, 2, 7, 3, 6, 0, 1, 1, 2, 2, 3, 9, 8})
	f.Fuzz(func(t *testing.T, size uint8, prec bool, data []byte) {
		n := 1 + int(size)%10
		app, data := fuzzApp(n, prec, data)
		g := dag.New(n)
		for ; len(data) >= 2; data = data[2:] {
			if u, v := int(data[0])%n, int(data[1])%n; u != v {
				g.AddEdge(u, v)
			}
		}
		got, err := FromGraph(app, g)
		want, wantErr := fromGraphRef(app, g)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("FromGraph error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got.topo, want.topo) || !reflect.DeepEqual(got.edges, want.edges) ||
			!reflect.DeepEqual(got.g.Edges(), want.g.Edges()) {
			t.Fatalf("topo %v / edges %v, reference %v / %v", got.topo, got.edges, want.topo, want.edges)
		}
		if !sameRatVec(got.inProd, want.inProd) || !sameRatVec(got.outSize, want.outSize) {
			t.Fatalf("inProd %v / outSize %v, reference %v / %v", got.inProd, got.outSize, want.inProd, want.outSize)
		}
		w, wr := got.Weighted(), weightedRef(want)
		if !reflect.DeepEqual(w.names, wr.names) || !sameRatVec(w.comp, wr.comp) || !reflect.DeepEqual(w.edges, wr.edges) ||
			!sameRatVec(w.vol, wr.vol) || !reflect.DeepEqual(w.inEdges, wr.inEdges) ||
			!reflect.DeepEqual(w.outEdges, wr.outEdges) || !reflect.DeepEqual(w.topo, wr.topo) {
			t.Fatalf("Weighted %+v, NewWeighted %+v", w, wr)
		}
	})
}
