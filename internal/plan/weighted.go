package plan

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/rat"
)

// Weighted is the scheduling-level view of a plan: per-node computation
// times and per-communication volumes, independent of how they were derived.
// An ExecGraph lowers to a Weighted via ExecGraph.Weighted(); a traditional
// workflow (no selectivities, explicit volumes — the setting of the paper's
// counter-examples B.2/B.3) can be built directly with NewWeighted.
//
// All operation lists, validators, orchestrators and the event-graph engine
// operate on Weighted plans, so every result automatically covers both
// filtering and regular streaming applications, as the paper points out.
type Weighted struct {
	names    []string
	comp     []rat.Rat
	edges    []Edge
	vol      []rat.Rat
	inEdges  [][]int // per node: indices into edges with To == node
	outEdges [][]int // per node: indices into edges with From == node
	topo     []int
}

// NewWeighted builds a weighted plan from computation times, communications
// and their volumes. Edges may use the virtual endpoints In and Out. The
// service-to-service edges must form a DAG. Names may be nil (defaults to
// C1..Cn) or must have one entry per node.
func NewWeighted(names []string, comp []rat.Rat, edges []Edge, vols []rat.Rat) (*Weighted, error) {
	n := len(comp)
	if len(edges) != len(vols) {
		return nil, fmt.Errorf("plan: %d edges but %d volumes", len(edges), len(vols))
	}
	if names == nil {
		names = make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("C%d", i+1)
		}
	}
	if len(names) != n {
		return nil, fmt.Errorf("plan: %d names but %d nodes", len(names), n)
	}
	w := &Weighted{
		names:    append([]string(nil), names...),
		comp:     append([]rat.Rat(nil), comp...),
		edges:    append([]Edge(nil), edges...),
		vol:      append([]rat.Rat(nil), vols...),
		inEdges:  make([][]int, n),
		outEdges: make([][]int, n),
	}
	for i, c := range comp {
		if c.Sign() < 0 {
			return nil, fmt.Errorf("plan: node %d has negative computation time %s", i, c)
		}
	}
	g := dag.New(n)
	seen := make(map[Edge]bool)
	for idx, e := range edges {
		if vols[idx].Sign() < 0 {
			return nil, fmt.Errorf("plan: edge %s has negative volume %s", e, vols[idx])
		}
		if seen[e] {
			return nil, fmt.Errorf("plan: duplicate edge %s", e)
		}
		seen[e] = true
		switch {
		case e.From == In && e.To >= 0 && e.To < n:
			w.inEdges[e.To] = append(w.inEdges[e.To], idx)
		case e.To == Out && e.From >= 0 && e.From < n:
			w.outEdges[e.From] = append(w.outEdges[e.From], idx)
		case e.From >= 0 && e.From < n && e.To >= 0 && e.To < n && e.From != e.To:
			g.AddEdge(e.From, e.To)
			w.outEdges[e.From] = append(w.outEdges[e.From], idx)
			w.inEdges[e.To] = append(w.inEdges[e.To], idx)
		default:
			return nil, fmt.Errorf("plan: invalid edge %s", e)
		}
	}
	topo, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("plan: weighted plan is cyclic")
	}
	w.topo = topo
	for v := 0; v < n; v++ {
		if len(w.inEdges[v]) == 0 {
			return nil, fmt.Errorf("plan: node %d (%s) has no incoming communication; entry nodes need an In edge", v, w.names[v])
		}
		if len(w.outEdges[v]) == 0 {
			return nil, fmt.Errorf("plan: node %d (%s) has no outgoing communication; exit nodes need an Out edge", v, w.names[v])
		}
	}
	return w, nil
}

// MustNewWeighted is NewWeighted that panics on error.
func MustNewWeighted(names []string, comp []rat.Rat, edges []Edge, vols []rat.Rat) *Weighted {
	w, err := NewWeighted(names, comp, edges, vols)
	if err != nil {
		panic(err)
	}
	return w
}

// Weighted lowers the execution graph to its scheduling-level view, with
// Ccomp as node weights and CommSize as edge volumes, on storage of its
// own. It shares the graph's (immutable) edge list and topological order
// and builds the per-node index lists on one backing slice: the graph's
// construction already validated everything NewWeighted would check.
func (eg *ExecGraph) Weighted() *Weighted {
	w := new(Weighted)
	eg.lowerInto(w, new(lowering))
	return w
}

// lowering is the backing storage of a Weighted built by lowerInto: the
// names, the weights (comp, then vol), the per-node index list headers (in,
// then out) and the one array those lists are carved from.
type lowering struct {
	names []string
	rats  []rat.Rat
	lists [][]int
	back  []int
}

// lowerInto fills w with eg's lowering, carving every vector from l's
// buffers, which grow only when too short: a Builder's lowering refills one
// Weighted in place.
func (eg *ExecGraph) lowerInto(w *Weighted, l *lowering) {
	n, edges := eg.N(), eg.edges
	l.names = grow(l.names, n)
	l.rats = grow(l.rats, n+len(edges))
	l.lists = grow(l.lists, 2*n)
	l.back = grow(l.back, len(edges)+eg.g.EdgeCount())
	*w = Weighted{
		names:    l.names,
		comp:     l.rats[:n:n],
		edges:    edges,
		vol:      l.rats[n:],
		inEdges:  l.lists[:n:n],
		outEdges: l.lists[n:],
		topo:     eg.topo,
	}
	for v := 0; v < n; v++ {
		w.names[v] = eg.app.Name(v)
		w.comp[v] = eg.Ccomp(v)
	}
	// Every edge is listed once per real endpoint: In and Out comms once,
	// service comms twice. Entry and exit nodes hold their one virtual comm.
	back := l.back
	for v := 0; v < n; v++ {
		in, out := max(eg.g.InDegree(v), 1), max(eg.g.OutDegree(v), 1)
		w.inEdges[v], w.outEdges[v] = back[:0:in], back[in:in:in+out]
		back = back[in+out:]
	}
	for i, e := range edges {
		w.vol[i] = eg.CommSize(e)
		if e.From != In {
			w.outEdges[e.From] = append(w.outEdges[e.From], i)
		}
		if e.To != Out {
			w.inEdges[e.To] = append(w.inEdges[e.To], i)
		}
	}
}

// N returns the number of (real) nodes.
func (w *Weighted) N() int { return len(w.comp) }

// Name returns the display name of node v.
func (w *Weighted) Name(v int) string { return w.names[v] }

// Comp returns the computation time of node v.
func (w *Weighted) Comp(v int) rat.Rat { return w.comp[v] }

// Edges returns all communications. The slice is owned by the plan.
func (w *Weighted) Edges() []Edge { return w.edges }

// Edge returns the idx-th communication.
func (w *Weighted) Edge(idx int) Edge { return w.edges[idx] }

// Vol returns the volume of the idx-th communication.
func (w *Weighted) Vol(idx int) rat.Rat { return w.vol[idx] }

// EdgeIndex returns the index of edge e, or -1 if absent.
func (w *Weighted) EdgeIndex(e Edge) int {
	for i, x := range w.edges {
		if x == e {
			return i
		}
	}
	return -1
}

// InEdges returns the indices of communications into node v (including the
// virtual input comm for entry nodes). The slice is owned by the plan.
func (w *Weighted) InEdges(v int) []int { return w.inEdges[v] }

// OutEdges returns the indices of communications out of node v (including
// the virtual output comm for exit nodes). The slice is owned by the plan.
func (w *Weighted) OutEdges(v int) []int { return w.outEdges[v] }

// Topo returns a topological order of the real nodes.
func (w *Weighted) Topo() []int { return w.topo }

// Cin returns the total incoming volume of node v.
func (w *Weighted) Cin(v int) rat.Rat {
	s := rat.Zero
	for _, idx := range w.inEdges[v] {
		s = s.Add(w.vol[idx])
	}
	return s
}

// Cout returns the total outgoing volume of node v.
func (w *Weighted) Cout(v int) rat.Rat {
	s := rat.Zero
	for _, idx := range w.outEdges[v] {
		s = s.Add(w.vol[idx])
	}
	return s
}

// Cexec returns the per-node period lower bound under the given model.
func (w *Weighted) Cexec(v int, m Model) rat.Rat {
	if m == Overlap {
		return rat.MaxOf(w.Cin(v), w.comp[v], w.Cout(v))
	}
	return w.Cin(v).Add(w.comp[v]).Add(w.Cout(v))
}

// PeriodLowerBound returns max_v Cexec(v, m).
func (w *Weighted) PeriodLowerBound(m Model) rat.Rat {
	bound := rat.Zero
	for v := 0; v < w.N(); v++ {
		bound = rat.Max(bound, w.Cexec(v, m))
	}
	return bound
}

// LatencyPathBound returns the longest in-to-out path, counting each
// computation and each traversed communication once: a latency lower bound
// for every model, exact for one-port schedules on chains.
func (w *Weighted) LatencyPathBound() rat.Rat {
	done := make([]rat.Rat, w.N())
	best := rat.Zero
	for _, v := range w.topo {
		start := rat.Zero
		for _, idx := range w.inEdges[v] {
			e := w.edges[idx]
			t := w.vol[idx]
			if e.From != In {
				t = t.Add(done[e.From])
			}
			start = rat.Max(start, t)
		}
		done[v] = start.Add(w.comp[v])
		for _, idx := range w.outEdges[v] {
			if w.edges[idx].To == Out {
				best = rat.Max(best, done[v].Add(w.vol[idx]))
			}
		}
	}
	return best
}
