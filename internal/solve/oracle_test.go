package solve

// The blind enumerations, kept as what they are: the reference the exact
// search is checked against. oracleSolve visits a structural family
// serially, in the order the branch-and-bound searches visit it,
// materialises EVERY member through Reevaluate and keeps the first strictly
// best — no bounds, no shards. The chains have no search to check:
// oracleChain is the reference the greedy chain (Prop. 8/16) is held to.

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// forEachChain visits all n! service orders: position by position, each
// remaining service in turn swapped into place.
func forEachChain(n int, fn func(order []int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(order)
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			rec(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	rec(0)
}

// forEachForest visits every forest on n nodes as a parent vector (-1 for
// roots): node by node, root first, then each parent that closes no cycle.
func forEachForest(n int, fn func(parent []int)) {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			fn(parent)
			return
		}
		for p := -1; p < n; p++ {
			cycle := false
			for a := p; a != -1 && !cycle; a = parent[a] {
				cycle = a == v
			}
			if !cycle {
				parent[v] = p
				rec(v + 1)
			}
		}
		parent[v] = -1
	}
	rec(0)
}

// forEachDAG visits every labeled DAG on n nodes: each node pair, in
// nodePairs order, gets no edge, then u→v, then v→u; cycles are dropped.
func forEachDAG(n int, fn func(g *dag.Graph)) {
	forEachDAGFrom(dag.New(n), nodePairs(n), 0, fn)
}

// forEachDAGFrom completes g, in which the first from pairs are decided.
func forEachDAGFrom(g *dag.Graph, pairs [][2]int, from int, fn func(g *dag.Graph)) {
	if from == len(pairs) {
		if g.IsAcyclic() {
			fn(g)
		}
		return
	}
	u, v := pairs[from][0], pairs[from][1]
	forEachDAGFrom(g, pairs, from+1, fn)
	g.AddEdge(u, v)
	forEachDAGFrom(g, pairs, from+1, fn)
	g.RemoveEdge(u, v)
	g.AddEdge(v, u)
	forEachDAGFrom(g, pairs, from+1, fn)
	g.RemoveEdge(v, u)
}

// oracleChain returns the first strictly best of the n! chains by their
// closed-form value (exact on chains under every model), and that value.
func oracleChain(app *workflow.App, m plan.Model, obj Objective) ([]int, rat.Rat) {
	var best []int
	var val rat.Rat
	forEachChain(app.N(), func(order []int) {
		v := ChainLatencyValue(app, order)
		if obj == PeriodObjective {
			v = ChainPeriodValue(app, order, m)
		}
		if best == nil || v.Less(val) {
			best, val = append(best[:0], order...), v
		}
	})
	return best, val
}

// greedyAgreesWithChainOracle holds the chain optimum as served — a
// GreedyChain solve, at Workers 1 and 4 — to the blind chain enumeration:
// its plan is a chain, it reaches the oracle's least value, and so does the
// oracle's own first best chain once orchestrated. The greedy may keep
// another chain of that value (their orders break ties differently), so
// only values are compared with the oracle; the two worker counts must
// agree bit for bit.
func greedyAgreesWithChainOracle(t *testing.T, app *workflow.App, m plan.Model, obj Objective) {
	t.Helper()
	order, want := oracleChain(app, m, obj)
	eg, err := plan.ChainFromOrder(app, order)
	if err != nil {
		t.Fatal(err)
	}
	if blind, err := Reevaluate(eg, m, obj, Options{Orch: smallOrch()}); err != nil || !blind.Value.Equal(want) {
		t.Fatalf("%s/%s: the oracle's chain %v orchestrates to %s (%v), its closed form is %s", m, obj, order, blind.Value, err, want)
	}
	var first string
	for _, workers := range []int{1, 4} {
		sol := solveOnce(t, app, m, obj, Options{Method: GreedyChain, Orch: smallOrch(), Workers: workers})
		if !sol.Graph.IsChain() || !sol.Value.Equal(want) {
			t.Fatalf("%s/%s workers=%d: the greedy chain %s has value %s, the optimal chain %s", m, obj, workers, sol.Graph, sol.Value, want)
		}
		if got := describeSolution(sol); first == "" {
			first = got
		} else if got != first {
			t.Fatalf("%s/%s workers=%d diverged:\n%s\nvs\n%s", m, obj, workers, first, got)
		}
	}
}

// oracleSolve returns the blind search's Solution over one family; Exact
// follows the families' certificates (Prop. 4 for forests, full generality
// for DAGs).
func oracleSolve(t testing.TB, app *workflow.App, m plan.Model, obj Objective, family Family) Solution {
	t.Helper()
	opts := Options{Orch: smallOrch(), Workers: 1}
	var best Solution
	offer := func(g *dag.Graph) {
		eg, err := plan.FromGraph(app, g)
		if err != nil {
			return // violates the precedence constraints
		}
		sol, err := Reevaluate(eg, m, obj, opts)
		if err == nil && (best.Graph == nil || sol.Value.Less(best.Value)) {
			best = sol
		}
	}
	switch family {
	case FamilyForest:
		forEachForest(app.N(), func(parent []int) { offer(forestGraph(parent)) })
		best.Exact = obj == PeriodObjective && best.Sched.Exact && m != plan.OutOrder
	case FamilyDAG:
		forEachDAG(app.N(), offer)
		best.Exact = best.Sched.Exact && exactOrchestration(m, obj)
	}
	if best.Graph == nil {
		t.Fatalf("oracle: the %s family holds no feasible plan", family)
	}
	return best
}
