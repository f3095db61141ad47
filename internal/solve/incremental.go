package solve

// Incremental objective bounds for the forest hill climb. A move changes one
// node's parent: the input products of its subtree and the consumer counts
// of the old and new parent, nothing else. forestEval caches per node the
// terms whose maximum is the model lower bound (plan.PeriodLowerBound /
// LatencyPathBound): pterm = inProd·Cexec(v, #children), and lpath = 1 +
// Σ inProd·(c+σ) over v and its ancestors (costs and selectivities are
// non-negative, so the heaviest path ends at the largest lpath). The climb's
// admissible move filter — a move whose bound reaches the current value
// cannot strictly improve it, so it is not orchestrated — is reaches: it
// recomputes only the terms the move changes, compares the cached rest and
// stops at the first term at the limit, without moving anything.

import (
	"repro/internal/rat"
	"repro/internal/workflow"
)

// forestEval is the incremental scheduling view of a forest parent vector.
type forestEval struct {
	app *workflow.App
	unitTables
	obj      Objective // the bound reaches decides against
	parent   []int
	children [][]int
	inProd   []rat.Rat // Π σ over ancestors
	out      []rat.Rat // inProd·σ: the volume v sends each consumer
	pterm    []rat.Rat // inProd·cexec[v, #children]: v's per-server period bound
	lpath    []rat.Rat // 1 + Σ inProd·(c+σ) over v and its ancestors
	stale    []bool    // reaches: the cached term is not the moved forest's
	sub      []int     // reaches: the nodes marked stale
}

// newForestEval computes the full state of the given assignment (the slice
// is copied; parent[v] == -1 means root) on the solve's unit tables.
func newForestEval(app *workflow.App, u unitTables, obj Objective, parent []int) *forestEval {
	n := app.N()
	rats := make([]rat.Rat, 4*n)
	e := &forestEval{
		app: app, unitTables: u, obj: obj,
		parent:   append([]int(nil), parent...),
		children: make([][]int, n),
		inProd:   rats[:n], out: rats[n : 2*n], pterm: rats[2*n : 3*n], lpath: rats[3*n:],
		stale: make([]bool, n), sub: make([]int, 0, n),
	}
	for v, p := range e.parent {
		if p >= 0 {
			e.children[p] = append(e.children[p], v)
		}
	}
	for v := range e.parent {
		if e.parent[v] < 0 {
			e.recomputeSubtree(v)
		}
	}
	return e
}

// below returns a child of p's (-1: a root's) input product and path prefix.
func (e *forestEval) below(p int) (in, path rat.Rat) {
	if p < 0 {
		return rat.One, rat.One
	}
	return e.out[p], e.lpath[p]
}

// periodTerm is v's per-server period bound on input product in with k
// consumers.
func (e *forestEval) periodTerm(v int, in rat.Rat, k int) rat.Rat {
	return in.Mul(e.cexec[v*len(e.parent)+k])
}

// recomputeSubtree refreshes the input products and terms of v and its
// descendants from v's (already correct) parent.
func (e *forestEval) recomputeSubtree(v int) {
	in, path := e.below(e.parent[v])
	e.inProd[v], e.out[v] = in, in.Mul(e.app.Selectivity(v))
	e.pterm[v], e.lpath[v] = e.periodTerm(v, in, len(e.children[v])), path.Add(in.Mul(e.cs[v]))
	for _, c := range e.children[v] {
		e.recomputeSubtree(c)
	}
}

// Move re-parents v under p (-1 for root) and refreshes the moved subtree
// and the period terms of the old and the new parent. The caller must rule
// out cycles first.
func (e *forestEval) Move(v, p int) {
	if old := e.parent[v]; old >= 0 {
		kids := e.children[old]
		for i, c := range kids {
			if c == v {
				e.children[old] = append(kids[:i], kids[i+1:]...)
				break
			}
		}
		e.pterm[old] = e.periodTerm(old, e.inProd[old], len(e.children[old]))
	}
	e.parent[v] = p
	if p >= 0 {
		e.children[p] = append(e.children[p], v)
		e.pterm[p] = e.periodTerm(p, e.inProd[p], len(e.children[p]))
	}
	e.recomputeSubtree(v)
}

// reaches reports, without changing the evaluator, whether the forest with
// v re-parented under p (-1 for root; the caller rules out cycles) has an
// objective bound of at least limit. The changed terms go first: the moved
// subtree's, and the period terms of the new and the old parent.
func (e *forestEval) reaches(v, p int, limit rat.Rat) bool {
	in, path := e.below(p)
	hit := e.stage(v, in, path, limit)
	terms := e.lpath
	if e.obj == PeriodObjective {
		terms = e.pterm
		hit = hit || e.parentReaches(p, +1, limit) || e.parentReaches(e.parent[v], -1, limit)
	}
	for u := 0; !hit && u < len(terms); u++ {
		hit = !e.stale[u] && !terms[u].Less(limit)
	}
	for _, u := range e.sub {
		e.stale[u] = false
	}
	e.sub = e.sub[:0]
	return hit
}

func (e *forestEval) mark(u int) {
	e.stale[u] = true
	e.sub = append(e.sub, u)
}

// stage marks v's subtree and reports whether one of its terms reaches
// limit once v receives input product in below a path of weight path.
func (e *forestEval) stage(v int, in, path, limit rat.Rat) bool {
	e.mark(v)
	var t rat.Rat
	if e.obj == PeriodObjective {
		t = e.periodTerm(v, in, len(e.children[v]))
	} else {
		path = path.Add(in.Mul(e.cs[v]))
		t = path
	}
	if hit := !t.Less(limit); hit || len(e.children[v]) == 0 {
		return hit
	}
	out := in.Mul(e.app.Selectivity(v))
	for _, c := range e.children[v] {
		if e.stage(c, out, path, limit) {
			return true
		}
	}
	return false
}

// parentReaches marks u (none if -1), whose consumer count the move
// changes by dk, and reports whether its period term reaches limit.
func (e *forestEval) parentReaches(u, dk int, limit rat.Rat) bool {
	if u < 0 {
		return false
	}
	e.mark(u)
	return !e.periodTerm(u, e.inProd[u], len(e.children[u])+dk).Less(limit)
}
