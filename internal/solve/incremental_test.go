package solve

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// freshEval returns an all-roots evaluator of app under model m.
func freshEval(app *workflow.App, m plan.Model, obj Objective) *forestEval {
	parent := make([]int, app.N())
	for v := range parent {
		parent[v] = -1
	}
	return newForestEval(app, unitCosts(app, m), obj, parent)
}

// PeriodLowerBound returns max_v Cexec(v) of the current forest under the
// evaluator's model, identical to the ExecGraph/Weighted value: on a forest
// Cin(v) is the input product itself and Cout(v) is outSize times
// max(1, #children).
func (e *forestEval) PeriodLowerBound() rat.Rat { return rat.MaxOf(e.pterm[0], e.pterm[1:]...) }

// LatencyPathBound returns the heaviest root-to-sink path (computations
// plus traversed communications plus the unit input), identical to
// plan.ExecGraph.LatencyPathBound on the same forest.
func (e *forestEval) LatencyPathBound() rat.Rat { return rat.MaxOf(e.lpath[0], e.lpath[1:]...) }

// bound is the full objective bound of the evaluator's current forest: the
// decision reaches replaces is !bound().Less(limit) after a Move.
func (e *forestEval) bound() rat.Rat {
	if e.obj == PeriodObjective {
		return e.PeriodLowerBound()
	}
	return e.LatencyPathBound()
}

// TestForestEvalMatchesFullRecomputation drives one forestEval per model
// through long random move sequences and, move for move, pins every
// incremental quantity — per-node input products, the period lower bound of
// the evaluator's model and the latency path bound — to a from-scratch
// ExecGraph rebuild. This is the correctness contract of the hill climb's
// incremental re-evaluation: the filter may only skip orchestrations, never
// see different volumes.
func TestForestEvalMatchesFullRecomputation(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := gen.NewRand(seed)
		n := 4 + rng.Intn(6)
		app := gen.App(rng, n, []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding}[seed%3])
		parent := make([]int, n)
		for v := range parent {
			parent[v] = -1
		}
		evals := make([]*forestEval, len(plan.Models))
		for i, m := range plan.Models {
			evals[i] = freshEval(app, m, PeriodObjective)
		}
		for move := 0; move < 60; move++ {
			v := rng.Intn(n)
			p := rng.Intn(n+1) - 1 // -1..n-1
			if p == v || (p >= 0 && parentChainReaches(parent, p, v)) {
				continue
			}
			parent[v] = p
			eg, err := plan.FromGraph(app, forestGraph(parent))
			if err != nil {
				t.Fatalf("seed %d move %d: %v", seed, move, err)
			}
			for i, m := range plan.Models {
				eval := evals[i]
				eval.Move(v, p)
				for u := 0; u < n; u++ {
					if !eval.inProd[u].Equal(eg.InProd(u)) {
						t.Fatalf("seed %d move %d: inProd(%d) incremental %s, full %s",
							seed, move, u, eval.inProd[u], eg.InProd(u))
					}
				}
				if got, want := eval.PeriodLowerBound(), eg.PeriodLowerBound(m); !got.Equal(want) {
					t.Fatalf("seed %d move %d %s: period bound incremental %s, full %s",
						seed, move, m, got, want)
				}
				if got, want := eval.LatencyPathBound(), eg.LatencyPathBound(); !got.Equal(want) {
					t.Fatalf("seed %d move %d: latency bound incremental %s, full %s",
						seed, move, got, want)
				}
			}
		}
	}
}

// evalState is a deep copy of every field reaches must leave alone.
type evalState struct {
	parent                    []int
	children                  [][]int
	inProd, out, pterm, lpath []rat.Rat
	stale                     []bool
	sub                       int
}

func snapshot(e *forestEval) evalState {
	s := evalState{
		parent: append([]int(nil), e.parent...),
		inProd: append([]rat.Rat(nil), e.inProd...),
		out:    append([]rat.Rat(nil), e.out...),
		pterm:  append([]rat.Rat(nil), e.pterm...),
		lpath:  append([]rat.Rat(nil), e.lpath...),
		stale:  append([]bool(nil), e.stale...),
		sub:    len(e.sub),
	}
	for _, kids := range e.children {
		s.children = append(s.children, append([]int{}, kids...))
	}
	return s
}

// TestReachesMatchesMoveAndBound is the differential contract of the move
// filter: on random forests of 4 to 14 services, every profile, model and
// objective, reaches(v, p, limit) equals the decision it replaced — move,
// take the full bound, compare, move back — at limits on, just below and
// just above the moved forest's bound and at the unmoved forest's bound,
// and leaves every cached field of the evaluator bit-identical.
func TestReachesMatchesMoveAndBound(t *testing.T) {
	eps := rat.New(1, 1000)
	decisions := 0
	for n := 4; n <= 14; n++ {
		for pi, prof := range []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding} {
			app := gen.App(gen.NewRand(int64(300+10*n+pi)), n, prof)
			for _, m := range plan.Models {
				for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
					rng := gen.NewRand(int64(n*7 + pi))
					eval := freshEval(app, m, obj)
					for move := 0; move < 40; move++ {
						v, p := rng.Intn(n), rng.Intn(n+1)-1
						old := eval.parent[v]
						if p == v || p == old || (p >= 0 && parentChainReaches(eval.parent, p, v)) {
							continue
						}
						unmoved := eval.bound()
						eval.Move(v, p)
						moved := eval.bound()
						eval.Move(v, old)
						before := snapshot(eval)
						for _, limit := range []rat.Rat{moved, moved.Sub(eps), moved.Add(eps), unmoved} {
							want := !moved.Less(limit)
							if got := eval.reaches(v, p, limit); got != want {
								t.Fatalf("n=%d %s %s/%s move %d (%d under %d): reaches(limit %s) = %v, moved bound %s",
									n, prof, m, obj, move, v, p, limit, got, moved)
							}
							decisions++
						}
						if after := snapshot(eval); !reflect.DeepEqual(before, after) {
							t.Fatalf("n=%d %s %s/%s move %d: reaches changed the evaluator", n, prof, m, obj, move)
						}
						if rng.Intn(2) == 0 {
							eval.Move(v, p)
						}
					}
				}
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
				for v := 1; v < n; v++ {
					eval.Move(v, v-1)
				}
				parent := append([]int(nil), eval.parent...)
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
					if p == v || p == parent[v] || (p >= 0 && parentChainReaches(eval.parent, p, v)) {
						continue
					}
					skipped := eval.reaches(v, p, cur)
					old := parent[v]
					parent[v] = p
					moved := value(parent)
					if skipped && moved.Less(cur) {
						t.Fatalf("n=%d %s/%s move %d: filter skipped an improving move (cur %s, moved %s)",
							n, m, obj, move, cur, moved)
					}
					// Walk like the climb: accept improvements, revert the rest.
					if moved.Less(cur) {
						cur = moved
						eval.Move(v, p)
					} else {
						parent[v] = old
					}
				}
			}
		}
	}
}

// TestClimbMoveCheckAllocBudget: on a warm evaluator the move check and an
// accepted move (and its reversal) allocate nothing, for both objectives
// and on both sides of the climb's parent-sampling threshold.
func TestClimbMoveCheckAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, n := range []int{8, 14} {
		app := gen.App(gen.NewRand(8), n, gen.Mixed)
		for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
			eval := freshEval(app, plan.InOrder, obj)
			for v := 1; v < n; v++ {
				eval.Move(v, (v-1)/2) // a binary tree rooted at 0
			}
			limit := eval.bound()
			v, p, old := n-1, 1, eval.parent[n-1]
			run := func() {
				eval.reaches(v, p, limit)
				eval.reaches(v, -1, limit)
				eval.Move(v, p)
				eval.Move(v, old)
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("n=%d %s: move check and move on a warm evaluator allocated %.1f times per run, want 0", n, obj, allocs)
			}
		}
	}
}
