// Package dag provides the directed-acyclic-graph machinery shared by
// execution graphs and precedence constraints: topological orders, ancestor
// sets, transitive closure/reduction, and the structural predicates (chain,
// forest, tree) the paper's polynomial special cases rely on.
//
// Nodes are dense integers [0, N). Graphs are mutable while being built and
// are then treated as read-only by the analysis helpers; helpers that need
// acyclicity return an error when the graph has a cycle.
package dag

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
)

// ErrCycle is returned by analyses that require a DAG when the graph
// contains a directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// Graph is a directed graph over nodes 0..N-1 with sorted adjacency lists;
// edge lookup is a binary search in the source's successors.
type Graph struct {
	n    int
	m    int // edge count
	succ [][]int
	pred [][]int
	back []int // CopyFrom's backing array for both directions' lists
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("dag: negative node count")
	}
	adj := make([][]int, 2*n)
	return &Graph{n: n, succ: adj[:n:n], pred: adj[n:]}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

func (g *Graph) checkNode(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("dag: node %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge inserts the edge u->v, keeping adjacency lists sorted. Inserting
// an existing edge is a no-op. Self-loops are rejected with a panic since no
// execution graph may contain one.
func (g *Graph) AddEdge(u, v int) {
	g.checkNode(u)
	g.checkNode(v)
	if u == v {
		panic(fmt.Sprintf("dag: self-loop on node %d", u))
	}
	if g.HasEdge(u, v) {
		return
	}
	g.m++
	g.succ[u] = insertSorted(g.succ[u], v)
	g.pred[v] = insertSorted(g.pred[v], u)
}

// RemoveEdge deletes the edge u->v if present.
func (g *Graph) RemoveEdge(u, v int) {
	if !g.HasEdge(u, v) {
		return
	}
	g.m--
	g.succ[u] = removeSorted(g.succ[u], v)
	g.pred[v] = removeSorted(g.pred[v], u)
}

// HasEdge reports whether the edge u->v is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	s := g.succ[u]
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// Succ returns the sorted direct successors of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Succ(v int) []int { g.checkNode(v); return g.succ[v] }

// Pred returns the sorted direct predecessors of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Pred(v int) []int { g.checkNode(v); return g.pred[v] }

// OutDegree returns the number of direct successors of v.
func (g *Graph) OutDegree(v int) int { g.checkNode(v); return len(g.succ[v]) }

// InDegree returns the number of direct predecessors of v.
func (g *Graph) InDegree(v int) int { g.checkNode(v); return len(g.pred[v]) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return g.m }

// Edges returns all edges as [2]int{u, v} pairs in lexicographic order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.succ[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// Clone returns an independent copy of g. Both adjacency directions share
// one backing array; every list is capped at its length, so a later AddEdge
// on either graph reallocates that list instead of writing into a neighbour.
func (g *Graph) Clone() *Graph {
	c := new(Graph)
	c.CopyFrom(g)
	return c
}

// CopyFrom makes g an independent copy of src, as Clone does, on g's own
// storage: the adjacency headers and the one backing array are reused once
// they are large enough, so refilling a graph of a size it has held
// allocates nothing.
func (g *Graph) CopyFrom(src *Graph) {
	if len(g.succ) != src.n {
		adj := make([][]int, 2*src.n)
		g.succ, g.pred = adj[:src.n:src.n], adj[src.n:]
	}
	g.n, g.m = src.n, src.m
	if cap(g.back) < 2*src.m {
		// Twice the need once a copy outgrows its array: a graph refilled
		// with ever larger ones reallocates a logarithmic number of times.
		c := 2 * src.m
		if cap(g.back) > 0 {
			c *= 2
		}
		g.back = make([]int, 0, c)
	}
	back := g.back[:0]
	for v := 0; v < src.n; v++ {
		at := len(back)
		back = append(back, src.succ[v]...)
		g.succ[v] = back[at:len(back):len(back)]
		at = len(back)
		back = append(back, src.pred[v]...)
		g.pred[v] = back[at:len(back):len(back)]
	}
}

// Clear removes every edge and keeps the adjacency storage: AddEdge then
// refills each list in place, up to the length it had.
func (g *Graph) Clear() {
	for v := 0; v < g.n; v++ {
		g.succ[v], g.pred[v] = g.succ[v][:0], g.pred[v][:0]
	}
	g.m = 0
}

// Roots returns the nodes with no predecessors, in increasing order.
func (g *Graph) Roots() []int {
	var out []int
	for v := 0; v < g.n; v++ {
		if len(g.pred[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Scratch is caller-owned working storage for TopoSortInto and
// AncestorsInto; the zero value is ready. A search that analyses one graph
// per node keeps a Scratch per goroutine, and after the first call at a
// graph size the analyses allocate nothing. Results are owned by the
// Scratch and valid until its next use.
type Scratch struct {
	indeg    []int
	frontier intHeap
	order    []int
	anc      []*bitset.Set
}

// TopoSort returns a topological order of the nodes (Kahn's algorithm with
// a deterministic smallest-node-first tie break), or ErrCycle.
func (g *Graph) TopoSort() ([]int, error) { return g.TopoSortInto(new(Scratch)) }

// TopoSortInto is TopoSort on caller-owned storage.
func (g *Graph) TopoSortInto(s *Scratch) ([]int, error) {
	if s.order == nil || cap(s.order) < g.n {
		buf := make([]int, 3*g.n)
		s.indeg, s.order, s.frontier.a = buf[:g.n], buf[g.n:g.n:2*g.n], buf[2*g.n:2*g.n]
	}
	indeg, order := s.indeg[:g.n], s.order[:0]
	// A sorted frontier keeps the order deterministic across runs.
	frontier := &s.frontier
	frontier.a = frontier.a[:0]
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.pred[v])
		if indeg[v] == 0 {
			frontier.push(v)
		}
	}
	for frontier.len() > 0 {
		v := frontier.pop()
		order = append(order, v)
		for _, w := range g.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier.push(w)
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// AncestorsInto returns, for every node, the set of its strict ancestors
// (preds, preds of preds, ...), plus the topological order (TopoSortInto's)
// it computed the sets in: one Kahn pass answers both. The sets live in s.
// Returns ErrCycle on cyclic graphs.
func (g *Graph) AncestorsInto(s *Scratch) (order []int, anc []*bitset.Set, err error) {
	order, err = g.TopoSortInto(s)
	if err != nil {
		return nil, nil, err
	}
	if len(s.anc) != g.n {
		s.anc = bitset.NewSets(g.n, g.n)
	}
	for _, v := range order {
		a := s.anc[v]
		a.Clear()
		for _, p := range g.pred[v] {
			a.Add(p)
			a.UnionWith(s.anc[p])
		}
	}
	return order, s.anc, nil
}

// Descendants returns, for every node, the set of its strict descendants.
// Returns ErrCycle on cyclic graphs.
func (g *Graph) Descendants() ([]*bitset.Set, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	desc := bitset.NewSets(g.n, g.n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, w := range g.succ[v] {
			desc[v].Add(w)
			desc[v].UnionWith(desc[w])
		}
	}
	return desc, nil
}

// TransitiveClosure returns a new graph with an edge u->v whenever v is
// reachable from u by a non-empty path. Returns ErrCycle on cyclic graphs.
func (g *Graph) TransitiveClosure() (*Graph, error) {
	desc, err := g.Descendants()
	if err != nil {
		return nil, err
	}
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		desc[u].ForEach(func(v int) { c.AddEdge(u, v) })
	}
	return c, nil
}

// TransitiveReduction returns the unique minimal graph with the same
// transitive closure as g (g must be a DAG).
func (g *Graph) TransitiveReduction() (*Graph, error) {
	desc, err := g.Descendants()
	if err != nil {
		return nil, err
	}
	r := New(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.succ[u] {
			// u->v is redundant iff some other successor of u reaches v.
			redundant := false
			for _, w := range g.succ[u] {
				if w != v && desc[w].Has(v) {
					redundant = true
					break
				}
			}
			if !redundant {
				r.AddEdge(u, v)
			}
		}
	}
	return r, nil
}

// IsReduced reports whether g is acyclic and transitively reduced: no edge
// u->v is implied by another path from u to v.
func (g *Graph) IsReduced() bool {
	r, err := g.TransitiveReduction()
	return err == nil && r.EdgeCount() == g.m
}

// IsForest reports whether every node has at most one direct predecessor
// and the graph is acyclic: a forest of out-trees, the structure Prop. 4 of
// the paper proves sufficient for optimal MINPERIOD plans.
func (g *Graph) IsForest() bool {
	for v := 0; v < g.n; v++ {
		if len(g.pred[v]) > 1 {
			return false
		}
	}
	return g.IsAcyclic()
}

// IsChain reports whether the graph is one linear chain covering all nodes:
// every node has at most one predecessor and one successor, there is exactly
// one root, and all nodes are reachable along the chain.
func (g *Graph) IsChain() bool {
	if g.n == 0 {
		return true
	}
	roots := 0
	for v := 0; v < g.n; v++ {
		if len(g.pred[v]) > 1 || len(g.succ[v]) > 1 {
			return false
		}
		if len(g.pred[v]) == 0 {
			roots++
		}
	}
	if roots != 1 {
		return false
	}
	// Walk the chain from the root; it must visit every node.
	v := g.Roots()[0]
	seen := 1
	for len(g.succ[v]) == 1 {
		v = g.succ[v][0]
		seen++
		if seen > g.n {
			return false // cycle guard
		}
	}
	return seen == g.n
}

// --- helpers ---

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// intHeap is a tiny binary min-heap; using container/heap would force an
// interface boxing per push on this hot path.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
