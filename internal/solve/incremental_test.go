package solve

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// freshEval returns an edgeless evaluator of app under model m.
func freshEval(app *workflow.App, m plan.Model, obj Objective) *graphEval {
	return newGraphEval(app, unitCosts(app, m), obj, dag.New(app.N()))
}

// precEval returns an evaluator of app's bare precedence graph.
func precEval(app *workflow.App, m plan.Model, obj Objective) *graphEval {
	return newGraphEval(app, unitCosts(app, m), obj, app.Precedence().Clone())
}

// bound is the full objective bound of the evaluator's current graph: the
// decision reaches replaces is !bound().Less(limit) after a Move.
func (e *graphEval) bound() rat.Rat { return rat.MaxOf(e.term[0], e.term[1:]...) }

// weightedBound is the objective's lower bound of eg, read from Weighted.
func weightedBound(eg *plan.ExecGraph, m plan.Model, obj Objective) rat.Rat {
	w := eg.Weighted()
	if obj == PeriodObjective {
		return w.PeriodLowerBound(m)
	}
	return w.LatencyPathBound()
}

// movedGraph returns a copy of the evaluator's graph with the move (v, a, b)
// applied.
func movedGraph(e *graphEval, v, a, b int) *dag.Graph {
	g := e.g.Clone()
	if a >= 0 {
		g.RemoveEdge(a, v)
	}
	if b >= 0 {
		g.AddEdge(b, v)
	}
	return g
}

// randomMove draws a forest re-parent (without precedence) or an edge toggle
// (with it); ok is false for a draw that is no move.
func randomMove(e *graphEval, rng interface{ Intn(int) int }) (v, a, b int, ok bool) {
	n := e.app.N()
	if !e.app.HasPrecedence() {
		v, b = rng.Intn(n), rng.Intn(n+1)-1 // -1..n-1
		a = e.parent(v)
		return v, a, b, b != v && b != a
	}
	u, v := rng.Intn(n), rng.Intn(n)
	if e.g.HasEdge(u, v) {
		return v, u, -1, true
	}
	return v, -1, u, u != v
}

// TestForestEvalMatchesFullRecomputation drives one evaluator per model and
// objective through long random walks — forest re-parents without
// precedence, edge toggles on precedence instances — and, move for move,
// pins every cached input product and the objective bound to a from-scratch
// FromGraph + Weighted rebuild. This is the correctness contract of the hill
// climbs' incremental re-evaluation: the filter may only skip
// orchestrations, never see different volumes.
func TestForestEvalMatchesFullRecomputation(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := gen.NewRand(seed)
		n := 4 + rng.Intn(6)
		prof := []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding}[seed%3]
		app := gen.App(rng, n, prof)
		if seed%2 == 1 {
			app = gen.AppWithPrecedence(rng, n, prof, 0.3)
		}
		var evals []*graphEval
		for _, m := range plan.Models {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				evals = append(evals, precEval(app, m, obj))
			}
		}
		for move := 0; move < 80; move++ {
			v, a, b, ok := randomMove(evals[0], rng)
			if !ok {
				continue
			}
			g := movedGraph(evals[0], v, a, b)
			if !g.IsAcyclic() {
				continue
			}
			eg, err := plan.FromGraph(app, g)
			if err != nil {
				continue // breaks a precedence constraint
			}
			for _, eval := range evals {
				eval.Move(v, a, b)
				for u := 0; u < n; u++ {
					// gen's costs are positive, so equal computation
					// times mean equal input products.
					if got, want := eval.inProd[u].Mul(app.Cost(u)), eg.Ccomp(u); !got.Equal(want) {
						t.Fatalf("seed %d move %d: inProd(%d)·c incremental %s, full %s",
							seed, move, u, got, want)
					}
				}
				if got, want := eval.bound(), weightedBound(eg, eval.m, eval.obj); !got.Equal(want) {
					t.Fatalf("seed %d move %d %s/%s: bound incremental %s, full %s",
						seed, move, eval.m, eval.obj, got, want)
				}
			}
		}
	}
}

// evalState is a deep copy of every field reaches must leave alone.
type evalState struct {
	edges             [][2]int
	topo              []int
	anc               []string
	inProd, out, term []rat.Rat
	stale             []bool
	v, sub            int
}

func snapshot(e *graphEval) evalState {
	s := evalState{
		edges:  e.g.Edges(),
		topo:   append([]int(nil), e.topo...),
		inProd: append([]rat.Rat(nil), e.inProd...),
		out:    append([]rat.Rat(nil), e.out...),
		term:   append([]rat.Rat(nil), e.term...),
		stale:  append([]bool(nil), e.stale...),
		v:      e.v,
		sub:    len(e.sub),
	}
	for _, a := range e.anc {
		s.anc = append(s.anc, a.String())
	}
	return s
}

// TestReachesMatchesMoveAndBound is the differential contract of the move
// filter: on random forests of 4 to 14 services and on precedence instances
// of 4 to 10, every profile, model and objective, reaches(v, a, b, limit)
// equals the chain of checks it replaced on the moved graph — IsAcyclic,
// then FromGraph's error, then the Weighted bound against the limit — at
// limits on, just below and just above the moved graph's bound and at the
// unmoved graph's bound, and leaves every cached field of the evaluator
// bit-identical.
func TestReachesMatchesMoveAndBound(t *testing.T) {
	eps := rat.New(1, 1000)
	decisions := 0
	check := func(app *workflow.App, label string, seed int64) {
		for _, m := range plan.Models {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				rng := gen.NewRand(seed)
				eval := precEval(app, m, obj)
				for move := 0; move < 40; move++ {
					v, a, b, ok := randomMove(eval, rng)
					if !ok {
						continue
					}
					unmoved := eval.bound()
					limits := []rat.Rat{unmoved, unmoved.Sub(eps), unmoved.Add(eps)}
					g := movedGraph(eval, v, a, b)
					var eg *plan.ExecGraph
					err := dag.ErrCycle
					if g.IsAcyclic() {
						eg, err = plan.FromGraph(app, g)
					}
					var moved rat.Rat
					if err == nil {
						moved = weightedBound(eg, m, obj)
						limits = append(limits, moved, moved.Sub(eps), moved.Add(eps))
					}
					before := snapshot(eval)
					for _, limit := range limits {
						want := err != nil || !moved.Less(limit)
						if got := eval.reaches(v, a, b, limit); got != want {
							t.Fatalf("%s %s/%s move %d (%d: -%d +%d): reaches(limit %s) = %v, moved bound %s, build error %v",
								label, m, obj, move, v, a, b, limit, got, moved, err)
						}
						decisions++
					}
					if after := snapshot(eval); !reflect.DeepEqual(before, after) {
						t.Fatalf("%s %s/%s move %d: reaches changed the evaluator", label, m, obj, move)
					}
					if err == nil && rng.Intn(2) == 0 {
						eval.Move(v, a, b)
					}
				}
			}
		}
	}
	for n := 4; n <= 14; n++ {
		for pi, prof := range []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding} {
			check(gen.App(gen.NewRand(int64(300+10*n+pi)), n, prof), fmt.Sprintf("forest n=%d %s", n, prof), int64(n*7+pi))
			if n <= 10 {
				check(gen.AppWithPrecedence(gen.NewRand(int64(700+10*n+pi)), n, prof, 0.3), fmt.Sprintf("prec n=%d %s", n, prof), int64(n*11+pi))
			}
		}
	}
	t.Logf("%d decisions compared", decisions)
}

// TestIncrementalFilterNeverSkipsImprovingMoves is the admissibility of the
// hill-climb move filter in isolation: a move the filter skips (its bound
// reaches the current value) never orchestrates strictly better than the
// current value. n = 14 is past the climb's 12-node threshold, where
// candidate parents are sampled.
func TestIncrementalFilterNeverSkipsImprovingMoves(t *testing.T) {
	for _, n := range []int{5, 8, 14} {
		app := gen.App(gen.NewRand(17), n, gen.Mixed)
		for _, m := range []plan.Model{plan.Overlap, plan.InOrder} {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				rng := gen.NewRand(99)
				// Start from the chain 0 → 1 → … → n-1: far from the optimum,
				// so the walk meets improving moves as well as skipped ones.
				eval := freshEval(app, m, obj)
				parent := make([]int, n)
				parent[0] = -1
				for v := 1; v < n; v++ {
					eval.Move(v, -1, v-1)
					parent[v] = v - 1
				}
				value := func(p []int) rat.Rat {
					eg, err := plan.FromGraph(app, forestGraph(p))
					if err != nil {
						t.Fatal(err)
					}
					sched, err := evaluate(eg, m, obj, Options{Orch: smallOrch()})
					if err != nil {
						t.Fatal(err)
					}
					return sched.Value
				}
				cur := value(parent)
				for move := 0; move < 40; move++ {
					v := rng.Intn(n)
					p := rng.Intn(n+1) - 1
					if p == v || p == parent[v] || (p >= 0 && parentChainReaches(parent, p, v)) {
						continue
					}
					old := parent[v]
					skipped := eval.reaches(v, old, p, cur)
					parent[v] = p
					moved := value(parent)
					if skipped && moved.Less(cur) {
						t.Fatalf("n=%d %s/%s move %d: filter skipped an improving move (cur %s, moved %s)",
							n, m, obj, move, cur, moved)
					}
					// Walk like the climb: accept improvements, revert the rest.
					if moved.Less(cur) {
						cur = moved
						eval.Move(v, old, p)
					} else {
						parent[v] = old
					}
				}
			}
		}
	}
}

// TestClimbMoveCheckAllocBudget: on a warm evaluator the move check and an
// accepted move (and its reversal) allocate nothing, for both objectives: a
// forest re-parent on both sides of the climb's parent-sampling threshold,
// and an edge toggle on an 8-service precedence instance.
func TestClimbMoveCheckAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, n := range []int{8, 14} {
		app := gen.App(gen.NewRand(8), n, gen.Mixed)
		for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
			eval := freshEval(app, plan.InOrder, obj)
			for v := 1; v < n; v++ {
				eval.Move(v, -1, (v-1)/2) // a binary tree rooted at 0
			}
			limit := eval.bound()
			v, p, old := n-1, 1, eval.parent(n-1)
			run := func() {
				eval.reaches(v, old, p, limit)
				eval.reaches(v, old, -1, limit)
				eval.Move(v, old, p)
				eval.Move(v, p, old)
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("forest n=%d %s: move check and move on a warm evaluator allocated %.1f times per run, want 0", n, obj, allocs)
			}
		}
	}
	app := gen.AppWithPrecedence(gen.NewRand(8), 8, gen.Mixed, 0.3)
	for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
		eval := precEval(app, plan.InOrder, obj)
		// The first absent edge u→v that closes no cycle.
		u, v := 0, 0
		for u == v || eval.g.HasEdge(u, v) || eval.anc[u].Has(v) {
			if v++; v == 8 {
				u, v = u+1, 0
			}
		}
		limit := eval.bound()
		run := func() {
			eval.reaches(v, -1, u, limit)
			eval.Move(v, -1, u)
			eval.reaches(v, u, -1, limit)
			eval.Move(v, u, -1)
		}
		run()
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("DAG n=8 %s: toggle check and toggle on a warm evaluator allocated %.1f times per run, want 0", obj, allocs)
		}
	}
}
