package solve

// One incremental evaluator for both hill climbs. A forest is a DAG whose
// nodes have at most one predecessor, so one move covers both: remove a→v
// and/or add b→v (a re-parent is both halves, a DAG toggle one). It changes
// v's descendant cone, whose edges it keeps, and the consumer counts of a
// and b, nothing else.
//
// graphEval caches per node the ancestor set, inProd (Π σ over that set),
// the output volume inProd·σ and the objective's term, whose maximum is the
// bound Weighted computes (PeriodLowerBound or LatencyPathBound):
//
//   - period: Cin ⊕ inProd·(c ⊕ σ·max(1, k)) for k consumers, ⊕ being max
//     under OVERLAP and + otherwise; with at most one predecessor Cin is
//     inProd itself, so the term is inProd·unit(v, k);
//   - latency: max(1, max over predecessors p of term[p]) + inProd·(c+σ).
//
// The climbs' move filter is reaches: the move closes a cycle (v is b or an
// ancestor of b), breaks a precedence constraint (x→y with y in the cone
// loses x from y's ancestors), or its bound reaches the limit.

import (
	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// graphEval is the incremental scheduling view of a climb's current graph.
type graphEval struct {
	app *workflow.App
	unitTables
	obj    Objective     // the bound reaches decides against
	g      *dag.Graph    // the current graph, owned by the evaluator
	prec   *dag.Graph    // the precedence constraints, nil without any
	topo   []int         // a topological order of g
	pos    []int         // each node's index in topo
	anc    []*bitset.Set // strict ancestor sets
	inProd []rat.Rat
	out    []rat.Rat // inProd·σ: the volume v sends each consumer
	term   []rat.Rat // the objective's per-node term
	graph  dag.Scratch
	// The staged move: its node, the node's predecessors after it, and the
	// values of the nodes marked stale.
	v                int
	moved            []int
	sAnc             []*bitset.Set
	sIn, sOut, sTerm []rat.Rat
	stale            []bool
	sub              []int
	// over lists the nodes whose cached term reaches limit, for the last
	// limit reaches saw; ok is false once a Move changes the terms.
	limit rat.Rat
	over  []int
	ok    bool
}

// newGraphEval computes the full state of g, which must be acyclic; the
// evaluator owns g from then on.
func newGraphEval(app *workflow.App, u unitTables, obj Objective, g *dag.Graph) *graphEval {
	n := app.N()
	rats := make([]rat.Rat, 6*n)
	e := &graphEval{
		app: app, unitTables: u, obj: obj, g: g,
		anc: bitset.NewSets(n, n), sAnc: bitset.NewSets(n, n),
		inProd: rats[:n], out: rats[n : 2*n], term: rats[2*n : 3*n],
		sIn: rats[3*n : 4*n], sOut: rats[4*n : 5*n], sTerm: rats[5*n:],
		pos: make([]int, n), v: -1, moved: make([]int, 0, n), stale: make([]bool, n), sub: make([]int, 0, n), over: make([]int, 0, n),
	}
	if app.HasPrecedence() {
		e.prec = app.Precedence()
	}
	e.sort()
	for _, w := range e.topo {
		e.stageNode(w, 0)
	}
	e.settle(true)
	return e
}

// parent returns v's first predecessor (a forest's parent), -1 for none.
func (e *graphEval) parent(v int) int {
	if ps := e.g.Pred(v); len(ps) > 0 {
		return ps[0]
	}
	return -1
}

// stageNode computes w's ancestor set, input product, output volume and term
// in the moved graph into the scratch, with dk added to its consumer count,
// reading the staged values of stale predecessors, and marks w stale. It
// reports whether w breaks a precedence constraint.
func (e *graphEval) stageNode(w, dk int) bool {
	preds := e.g.Pred(w)
	if w == e.v {
		preds = e.moved
	}
	anc, cin, start := e.sAnc[w], rat.One, rat.One
	anc.Clear()
	for i, p := range preds {
		pa, pout, pt := e.anc[p], e.out[p], e.term[p]
		if e.stale[p] {
			pa, pout, pt = e.sAnc[p], e.sOut[p], e.sTerm[p]
		}
		anc.Add(p)
		anc.UnionWith(pa)
		// Every path term is at least 1, so max(1, ·) needs no compare.
		if i == 0 {
			cin, start = pout, pt
		} else {
			cin, start = cin.Add(pout), rat.Max(start, pt)
		}
	}
	in, out := cin, e.out[w]
	if dk != 0 {
		in = e.inProd[w] // a or b: outside the cone, only the consumer count changes
	} else {
		if len(preds) > 1 {
			// The product runs over the ancestor *set*: a shared ancestor
			// counts once, however many paths lead to w.
			in = rat.One
			for u := range e.anc {
				if anc.Has(u) {
					in = in.Mul(e.app.Selectivity(u))
				}
			}
		}
		out = in.Mul(e.app.Selectivity(w))
	}
	k := e.g.OutDegree(w) + dk
	var t rat.Rat
	switch {
	case e.obj == LatencyObjective:
		t = start.Add(in.Mul(e.cs[w]))
	case len(preds) <= 1:
		t = in.Mul(e.unit(w, k))
	default:
		comp, sent := in.Mul(e.app.Cost(w)), in.Mul(e.app.Selectivity(w)).MulInt(int64(max(1, k)))
		if e.m == plan.Overlap {
			t = rat.MaxOf(cin, comp, sent)
		} else {
			t = cin.Add(comp).Add(sent)
		}
	}
	e.sIn[w], e.sOut[w], e.sTerm[w] = in, out, t
	e.stale[w] = true
	e.sub = append(e.sub, w)
	if e.prec != nil {
		for _, x := range e.prec.Pred(w) {
			if !anc.Has(x) {
				return true
			}
		}
	}
	return false
}

// stage stages the move (v, a, b): v's cone in g's topological order, then
// for the period a's and b's terms. With check it stops at the first node
// that breaks a precedence constraint or whose term reaches limit and
// reports whether there was one.
func (e *graphEval) stage(v, a, b int, check bool, limit rat.Rat) bool {
	e.v = v
	e.moved = e.moved[:0]
	for _, p := range e.g.Pred(v) {
		if p != a {
			e.moved = append(e.moved, p)
		}
	}
	if b >= 0 {
		e.moved = append(e.moved, b)
	}
	hit := func(w, dk int) bool {
		broken := e.stageNode(w, dk)
		return check && (broken || !e.sTerm[w].Less(limit))
	}
	for _, w := range e.topo[e.pos[v]:] {
		if (w == v || e.anc[w].Has(v)) && hit(w, 0) {
			return true
		}
	}
	if e.obj == PeriodObjective {
		return a >= 0 && hit(a, -1) || b >= 0 && hit(b, +1)
	}
	return false
}

// settle ends a staged move: keep copies the staged values into the cache.
func (e *graphEval) settle(keep bool) {
	for _, u := range e.sub {
		if keep {
			e.anc[u].CopyFrom(e.sAnc[u])
			e.inProd[u], e.out[u], e.term[u] = e.sIn[u], e.sOut[u], e.sTerm[u]
		}
		e.stale[u] = false
	}
	e.sub = e.sub[:0]
	e.v = -1
}

// reaches reports, without changing the evaluator's graph or terms, whether
// the move (v, a, b) — remove a→v unless a is -1, add b→v unless b is -1 —
// yields no graph whose bound is below limit. A term the move leaves alone
// decides first, from the over list; the changed terms are staged after.
func (e *graphEval) reaches(v, a, b int, limit rat.Rat) bool {
	if b == v || b >= 0 && e.anc[b].Has(v) {
		return true
	}
	if !e.ok || !limit.Equal(e.limit) {
		e.limit, e.over, e.ok = limit, e.over[:0], true
		for u, t := range e.term {
			if !t.Less(limit) {
				e.over = append(e.over, u)
			}
		}
	}
	for _, u := range e.over {
		inCone := u == v || e.anc[u].Has(v)
		if !inCone && (e.obj == LatencyObjective || u != a && u != b) {
			return true
		}
	}
	hit := e.stage(v, a, b, true, limit)
	e.settle(false)
	return hit
}

// edit applies the move (v, a, b) to g alone.
func (e *graphEval) edit(v, a, b int) {
	if a >= 0 {
		e.g.RemoveEdge(a, v)
	}
	if b >= 0 {
		e.g.AddEdge(b, v)
	}
}

// candidate builds the execution graph of the moved graph into pb's
// workspace, leaving the evaluator as it was.
func (e *graphEval) candidate(pb *plan.Builder, v, a, b int) (candidate, error) {
	e.edit(v, a, b)
	defer e.edit(v, b, a)
	return build(pb, e.app, e.g)
}

// Move applies the move (v, a, b), which reaches must not have ruled out
// for a cycle, and refreshes the terms it changes.
func (e *graphEval) Move(v, a, b int) {
	e.stage(v, a, b, false, rat.Zero)
	e.edit(v, a, b)
	e.settle(true)
	e.sort()
	e.ok = false
}

// sort refreshes the topological order of g.
func (e *graphEval) sort() {
	e.topo, _ = e.g.TopoSortInto(&e.graph)
	for i, w := range e.topo {
		e.pos[w] = i
	}
}
