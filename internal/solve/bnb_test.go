package solve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// --- the differential suite: the exact search vs the blind oracle ---

// agreeWithOracle holds the exact search to the oracle (oracle_test.go) on
// one instance, family, model and objective: every way of asking for the
// family's optimum — by name, and through Auto where Auto resolves to this
// family — at every worker count, with the memo on and off, returns the
// oracle's Solution bit for bit: value, Exact, graph and operation list.
// The DAG oracle walks every labelled DAG, and its winner must be
// transitively reduced, the premise of the search's reduced tree (bnb.go).
// who names the instance in a failure. It returns the number of solves,
// and how many of them returned the period floor: there the winning shard
// (and, through Auto, the seeding climb) stops at the floor, so the stop
// path is what those solves compare against the oracle.
func agreeWithOracle(t *testing.T, who string, app *workflow.App, m plan.Model, obj Objective, family Family) (solves, atFloor int) {
	t.Helper()
	blind := oracleSolve(t, app, m, obj, family)
	if family == FamilyDAG && !blind.Graph.Graph().IsReduced() {
		t.Fatalf("%s %s/%s: the blind oracle's best DAG %s is not transitively reduced", who, m, obj, blind.Graph)
	}
	met := obj == PeriodObjective && periodFloor(app, m).Equal(blind.Value)
	want := describeSolution(blind)
	asks := []Options{{Method: BranchBound, Family: family}}
	if autoMethod(app, obj, Options{}) == BranchBound && ResolveFamily(app, obj, FamilyAuto) == family {
		asks = append(asks, Options{Method: Auto})
	}
	for _, ask := range asks {
		for _, workers := range []int{1, 4} {
			for _, noMemo := range []bool{true, false} {
				opts := ask
				opts.Orch, opts.Restarts, opts.Workers, opts.noMemo = smallOrch(), 1, workers, noMemo
				solves++
				if met {
					atFloor++
				}
				if got := describeSolution(solveOnce(t, app, m, obj, opts)); got != want {
					t.Fatalf("%s %s/%s method=%s family=%s workers=%d noMemo=%v diverged from the blind oracle over %ss:\n--- oracle ---\n%s\n--- search ---\n%s",
						who, m, obj, ask.Method, ask.Family, workers, noMemo, family, want, got)
				}
			}
		}
	}
	return solves, atFloor
}

// oracleTooSlow thins the cells where the blind enumeration costs seconds:
// one-port period order searches over the 16 807 forests of n = 6, the 543
// DAGs of an unconstrained n = 4 and whatever precedence leaves of the
// 29 281 DAGs of n = 5.
func oracleTooSlow(family Family, app *workflow.App, m plan.Model, obj Objective) bool {
	if obj != PeriodObjective || m == plan.Overlap {
		return false
	}
	n := app.N()
	return (family == FamilyForest && n >= 6) || (family == FamilyDAG && (n >= 5 || (n == 4 && !app.HasPrecedence())))
}

// TestBranchBoundMatchesExactEnumerations is the equivalence contract of
// the exact search: it returns not just the objective value of the blind
// chain / forest / DAG enumerations but the bit-identical Solution, for
// MinPeriod and MinLatency under every model. Strict pruning guarantees the
// first optimum-valued graph in enumeration order survives, which is
// exactly the graph the blind search keeps. The named rows are fixed
// instances; the corpus is random ones of every size the oracle can
// afford, with and without precedence constraints.
func TestBranchBoundMatchesExactEnumerations(t *testing.T) {
	profiles := []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding}
	type row struct {
		name   string
		family Family
		app    *workflow.App
		models []plan.Model
	}
	var rows []row
	for seed := int64(0); seed < 3; seed++ {
		p := profiles[seed]
		rows = append(rows,
			row{fmt.Sprintf("chain/seed%d", seed), FamilyChain, gen.App(gen.NewRand(seed), 5, p), plan.Models},
			row{fmt.Sprintf("forest/seed%d", seed), FamilyForest, gen.App(gen.NewRand(seed+100), 4, p), []plan.Model{plan.Overlap, plan.InOrder}},
			row{fmt.Sprintf("dag/seed%d", seed), FamilyDAG, gen.App(gen.NewRand(seed+200), 4, p), []plan.Model{plan.Overlap, plan.InOrder}},
		)
	}
	rows = append(rows, row{"dag/precedence", FamilyDAG,
		gen.AppWithPrecedence(gen.NewRand(8), 4, gen.Filtering, 0.3), []plan.Model{plan.Overlap, plan.InOrder}})
	for _, r := range rows {
		for _, m := range r.models {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				t.Run(fmt.Sprintf("%s/%s/%s", r.name, m, obj), func(t *testing.T) {
					agreeWithOracle(t, r.name, r.app, m, obj, r.family)
				})
			}
		}
	}

	// The corpus: count instances per size, free and precedence-constrained
	// (density 0.3), the smaller count under -short and -race. Free
	// instances are searched over every family, constrained ones over DAGs.
	shapes := []struct {
		n           int
		prec        bool
		full, short int
	}{
		{1, false, 24, 2}, {2, false, 50, 4}, {3, false, 60, 6}, {4, false, 20, 3}, {5, false, 3, 1}, {6, false, 2, 0},
		{2, true, 50, 4}, {3, true, 60, 6}, {4, true, 30, 4}, {5, true, 1, 0},
	}
	t.Run("corpus", func(t *testing.T) {
		instances, solves, atFloor := 0, 0, 0
		for si, shape := range shapes {
			count := shape.full
			if testing.Short() || raceEnabled {
				count = shape.short
			}
			for k := 0; k < count; k++ {
				seed := int64(7000 + 1000*si + k)
				who := fmt.Sprintf("shape %d (n=%d prec=%v) #%d", si, shape.n, shape.prec, k)
				var app *workflow.App
				var families []Family
				switch {
				case shape.prec:
					for s := seed; app == nil || !app.HasPrecedence(); s += 500 { // small n often draws no edge
						app = gen.AppWithPrecedence(gen.NewRand(s), shape.n, profiles[k%3], 0.3)
					}
					families = []Family{FamilyDAG}
				case shape.n > 4: // an unconstrained DAG oracle stops at n = 4
					app, families = gen.App(gen.NewRand(seed), shape.n, profiles[k%3]), []Family{FamilyChain, FamilyForest}
				default:
					app, families = gen.App(gen.NewRand(seed), shape.n, profiles[k%3]), []Family{FamilyChain, FamilyForest, FamilyDAG}
				}
				instances++
				for _, family := range families {
					for _, m := range plan.Models {
						for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
							if !oracleTooSlow(family, app, m, obj) {
								s, f := agreeWithOracle(t, who, app, m, obj, family)
								solves, atFloor = solves+s, atFloor+f
							}
						}
					}
				}
			}
		}
		if atFloor == 0 {
			t.Errorf("no solve of %d returned the period floor: the floor stop went unchecked", solves)
		}
		t.Logf("%d instances, %d solves, %d at the period floor", instances, solves, atFloor)
	})
}

// TestBranchBoundAutoFamilyMatchesAutoExact pins FamilyAuto to the family
// whose optimum is global: forests for MINPERIOD without precedence, DAGs
// for MINLATENCY and under precedence constraints.
func TestBranchBoundAutoFamilyMatchesAutoExact(t *testing.T) {
	base := Options{Orch: smallOrch(), Restarts: 1, Workers: 1}
	app := gen.App(gen.NewRand(5), 4, gen.Mixed)
	forest := oracleSolve(t, app, plan.InOrder, PeriodObjective, FamilyForest)
	auto := solveOnce(t, app, plan.InOrder, PeriodObjective, withM(base, BranchBound))
	if !auto.Value.Equal(forest.Value) || !auto.Exact {
		t.Fatalf("auto-family period: got %s (exact=%v), forest optimum %s", auto.Value, auto.Exact, forest.Value)
	}
	dagSol := oracleSolve(t, app, plan.InOrder, LatencyObjective, FamilyDAG)
	autoLat := solveOnce(t, app, plan.InOrder, LatencyObjective, withM(base, BranchBound))
	if !autoLat.Value.Equal(dagSol.Value) {
		t.Fatalf("auto-family latency: got %s, DAG optimum %s", autoLat.Value, dagSol.Value)
	}
	withPrec := gen.AppWithPrecedence(gen.NewRand(8), 4, gen.Filtering, 0.3)
	prec := solveOnce(t, withPrec, plan.Overlap, PeriodObjective, withM(base, BranchBound))
	if _, err := plan.FromGraph(withPrec, prec.Graph.Graph()); err != nil {
		t.Fatalf("auto-family with precedence returned a violating plan: %v", err)
	}
}

func withM(o Options, m Method) Options {
	o.Method = m
	return o
}

// TestAutoBandRoutesRaisedMaxExactNToBranchBound pins Auto's single cutoff:
// branch-and-bound up to the cap of the family it would search (7 services
// where forests suffice, 5 where DAGs are needed), hill climbing above, and
// MaxExactN replaces the cap whether raised or lowered.
func TestAutoBandRoutesRaisedMaxExactNToBranchBound(t *testing.T) {
	free := func(n int) *workflow.App { return gen.App(gen.NewRand(1), n, gen.Mixed) }
	chained := func(n int) *workflow.App { // one precedence edge: the DAG family
		return workflow.MustNew(free(n).Services(), [][2]int{{0, 1}})
	}
	cases := []struct {
		name      string
		app       *workflow.App
		obj       Objective
		maxExactN int
		want      Method
	}{
		{"forest n<=cap", free(7), PeriodObjective, 0, BranchBound},
		{"forest n>cap", free(8), PeriodObjective, 0, HillClimb},
		{"forest tiny", free(1), PeriodObjective, 0, BranchBound},
		{"dag (latency) n<=cap", free(5), LatencyObjective, 0, BranchBound},
		{"dag (latency) n>cap", free(6), LatencyObjective, 0, HillClimb},
		{"dag (precedence) n<=cap", chained(5), PeriodObjective, 0, BranchBound},
		{"dag (precedence) n>cap", chained(6), PeriodObjective, 0, HillClimb},
		{"raised, n<=MaxExactN", free(10), PeriodObjective, 12, BranchBound},
		{"raised, n>MaxExactN", free(13), PeriodObjective, 12, HillClimb},
		{"raised, dag", free(6), LatencyObjective, 6, BranchBound},
		{"lowered, n<=MaxExactN", free(3), PeriodObjective, 3, BranchBound},
		{"lowered, n>MaxExactN", free(4), PeriodObjective, 3, HillClimb},
		{"raised past the mask width", free(65), PeriodObjective, 100, HillClimb},
	}
	for _, tc := range cases {
		got := autoMethod(tc.app, tc.obj, Options{MaxExactN: tc.maxExactN})
		if got != tc.want {
			t.Errorf("%s: auto picked %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAutoDoesNotTaxTinyInstances pins the seeding rule by counter: up to
// three services an Auto solve orchestrates no more candidates than the
// family it searches holds, plus the one greedy-chain seed — no climb,
// whose budget alone (400 + 40n evaluations) would dwarf the family.
func TestAutoDoesNotTaxTinyInstances(t *testing.T) {
	forests := [...]int64{1, 1, 3, 16} // (n+1)^(n-1)
	dags := [...]int64{1, 1, 3, 25}    // labeled DAGs on n nodes
	for n := 1; n <= 3; n++ {
		for seed := int64(0); seed < 4; seed++ {
			app := gen.App(gen.NewRand(seed), n, gen.Mixed)
			for _, m := range plan.Models {
				for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
					for _, workers := range []int{1, 4} {
						var ef Effort
						solveOnce(t, app, m, obj, Options{Orch: smallOrch(), Workers: workers, Effort: &ef})
						family := dags[n]
						if obj == PeriodObjective {
							family = forests[n]
						}
						if got := ef.Evals; got > family+1 {
							t.Errorf("n=%d seed %d %s/%s workers=%d: %d candidate orchestrations for a family of %d",
								n, seed, m, obj, workers, got, family)
						}
					}
				}
			}
		}
	}
}

// TestBranchBoundGuards: families reject precedence where they cannot
// honour it and instances far above their caps.
func TestBranchBoundGuards(t *testing.T) {
	big := gen.App(gen.NewRand(1), 16, gen.Mixed)
	for _, fam := range []Family{FamilyChain, FamilyForest, FamilyDAG} {
		opts := Options{Method: BranchBound, Family: fam}
		if _, err := MinPeriod(big, plan.Overlap, opts); err == nil {
			t.Errorf("family %s must reject n=16", fam)
		}
	}
	// The partial bounds keep node sets in uint64 masks: MaxExactN cannot
	// raise a cap past 64 services, so n = 65 is "too large", not a search.
	wide := gen.App(gen.NewRand(1), 65, gen.Filtering)
	for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
		_, err := minimize(wide, plan.Overlap, obj, Options{Method: BranchBound, MaxExactN: 100})
		if err == nil || !strings.Contains(err.Error(), "65 services too large") || !strings.Contains(err.Error(), "(max 64)") {
			t.Errorf("%v: n=65 with MaxExactN 100: err %v, want the too-large error", obj, err)
		}
	}
	withPrec := gen.AppWithPrecedence(gen.NewRand(8), 4, gen.Filtering, 0.3)
	for _, fam := range []Family{FamilyChain, FamilyForest} {
		opts := Options{Method: BranchBound, Family: fam}
		if _, err := MinPeriod(withPrec, plan.Overlap, opts); err == nil {
			t.Errorf("family %s must reject precedence-constrained instances", fam)
		}
	}
	if FamilyAuto.String() != "auto" || FamilyChain.String() != "chain" ||
		FamilyForest.String() != "forest" || FamilyDAG.String() != "dag" ||
		Family(9).String() != "Family(9)" {
		t.Error("family names wrong")
	}
	if BranchBound.String() != "branch-bound" {
		t.Error("method name wrong")
	}
}

// --- admissibility: pruning can never discard the optimum ---

// TestPartialBoundsAdmissible checks the bound contract directly: for every
// enumerated graph of a family and every prefix of its incremental
// construction, the partial bound never exceeds the completed graph's
// objective — first against the closed-form/full-graph bound for every
// member of the family, then against the orchestrated objective of the
// enumerated optimal graphs (the values pruning actually competes with).
func TestPartialBoundsAdmissible(t *testing.T) {
	app := gen.App(gen.NewRand(3), 6, gen.Mixed)
	for _, m := range plan.Models {
		for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
			forEachChain(app.N(), func(order []int) {
				var val rat.Rat
				if obj == PeriodObjective {
					val = ChainPeriodValue(app, order, m)
				} else {
					val = ChainLatencyValue(app, order)
				}
				for k := 0; k <= app.N(); k++ {
					if b := chainPrefixBound(app, m, obj, order, k); b.Greater(val) {
						t.Fatalf("%s/%s chain %v prefix %d: bound %s exceeds value %s",
							m, obj, order, k, b, val)
					}
				}
			})
		}
	}

	small := gen.App(gen.NewRand(7), 4, gen.Mixed)
	n := small.N()
	for _, m := range []plan.Model{plan.Overlap, plan.InOrder} {
		for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
			forEachForest(n, func(parent []int) {
				full := forestPartialBound(small, m, obj, parent, n)
				prefix := make([]int, n)
				for k := 0; k <= n; k++ {
					copy(prefix, parent[:k])
					for v := k; v < n; v++ {
						prefix[v] = -1
					}
					if b := forestPartialBound(small, m, obj, prefix, k); b.Greater(full) {
						t.Fatalf("%s/%s forest %v prefix %d: bound %s exceeds full-graph bound %s",
							m, obj, parent, k, b, full)
					}
				}
			})
		}
	}

	// Against the orchestrated objective of the optimal graphs themselves:
	// the exact chain of values pruning relies on.
	for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
		for _, m := range []plan.Model{plan.Overlap, plan.InOrder} {
			sol := oracleSolve(t, small, m, obj, FamilyForest)
			parent := parentVector(t, sol.Graph)
			prefix := make([]int, n)
			for k := 0; k <= n; k++ {
				copy(prefix, parent[:k])
				for v := k; v < n; v++ {
					prefix[v] = -1
				}
				if b := forestPartialBound(small, m, obj, prefix, k); b.Greater(sol.Value) {
					t.Fatalf("%s/%s optimal forest prefix %d: bound %s exceeds optimum %s",
						m, obj, k, b, sol.Value)
				}
			}

			dagSol := oracleSolve(t, small, m, obj, FamilyDAG)
			pairs := nodePairs(n)
			g := dag.New(n)
			for i := 0; i <= len(pairs); i++ {
				if b := dagPartialBound(small, m, obj, g, nil, pairs, i); b.Greater(dagSol.Value) {
					t.Fatalf("%s/%s optimal DAG prefix %d: bound %s exceeds optimum %s",
						m, obj, i, b, dagSol.Value)
				}
				if i < len(pairs) {
					u, v := pairs[i][0], pairs[i][1]
					if dagSol.Graph.Graph().HasEdge(u, v) {
						g.AddEdge(u, v)
					} else if dagSol.Graph.Graph().HasEdge(v, u) {
						g.AddEdge(v, u)
					}
				}
			}
		}
	}
}

// TestDAGSourceFloorBinds pins the DAG bound's source floor on the case it
// exists for: a shrinking workload with every pair still open. There the
// per-node terms all collapse toward the full shrink product (well below
// 1), but every completion still runs its topological first node at input
// product 1 — so the bound must equal the minimum unit-volume Cexec over
// the possible sources, not the collapsed per-node maximum.
func TestDAGSourceFloorBinds(t *testing.T) {
	services := []workflow.Service{
		{Name: "a", Cost: rat.New(1, 2), Selectivity: rat.New(1, 3)},
		{Name: "b", Cost: rat.New(1, 4), Selectivity: rat.New(1, 2)},
		{Name: "c", Cost: rat.New(3, 4), Selectivity: rat.New(1, 5)},
		{Name: "d", Cost: rat.New(1, 8), Selectivity: rat.New(2, 3)},
	}
	app, err := workflow.New(services, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := app.N()
	pairs := nodePairs(n)
	g := dag.New(n)
	for _, m := range []plan.Model{plan.Overlap, plan.InOrder} {
		// Fully open: every node is a source candidate with out-degree 0.
		units := unitCosts(app, m)
		floor := units.unit(0, 0)
		for v := 1; v < n; v++ {
			if u := units.unit(v, 0); u.Less(floor) {
				floor = u
			}
		}
		got := dagPartialBound(app, m, PeriodObjective, g, nil, pairs, 0)
		if !got.Equal(floor) {
			t.Fatalf("%s fully-open bound %s, want the source floor %s", m, got, floor)
		}
		// Sanity that the floor is doing work: with every cost < 1 and every
		// selectivity < 1, the pre-floor per-node terms are all < 1 for
		// OVERLAP-style maxima only because of the floor's unit volume.
		if m == plan.Overlap && got.Less(rat.One) {
			t.Fatalf("overlap floor %s < 1: the unit-volume source is not in the bound", got)
		}
	}
	// The floor stays admissible as decisions accumulate: covered for the
	// optimal DAG by TestPartialBoundsAdmissible; spot-check a decided edge
	// removes its head from the candidate set.
	g.AddEdge(0, 1)
	got := dagPartialBound(app, plan.InOrder, PeriodObjective, g, nil, pairs, 1)
	units := unitCosts(app, plan.InOrder)
	floor := units.unit(0, 1)
	for _, v := range []int{2, 3} {
		if u := units.unit(v, 0); u.Less(floor) {
			floor = u
		}
	}
	if got.Less(floor) {
		t.Fatalf("bound %s below the candidate-source floor %s after deciding an edge", got, floor)
	}
}

// TestDAGPrecedenceBoundAdmissible checks the precedence-aware DAG bound
// against the blind enumeration: on precedence-constrained instances the
// partial bound — fed the precedence closure exactly as branchBoundDAG
// feeds it — never exceeds the blind DAG optimum at any prefix of the
// optimal DAG's incremental construction, and branch-and-bound pruned by
// it still returns the blind optimum.
func TestDAGPrecedenceBoundAdmissible(t *testing.T) {
	for _, seed := range []int64{8, 21, 33} {
		app := gen.AppWithPrecedence(gen.NewRand(seed), 4, gen.Mixed, 0.4)
		if !app.HasPrecedence() {
			t.Fatalf("seed %d produced no precedence constraints", seed)
		}
		prec, err := app.Precedence().TransitiveClosure()
		if err != nil {
			t.Fatal(err)
		}
		n := app.N()
		pairs := nodePairs(n)
		for _, m := range []plan.Model{plan.Overlap, plan.InOrder} {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				blind := oracleSolve(t, app, m, obj, FamilyDAG)
				g := dag.New(n)
				for i := 0; i <= len(pairs); i++ {
					if b := dagPartialBound(app, m, obj, g, prec, pairs, i); b.Greater(blind.Value) {
						t.Fatalf("seed %d %s/%s optimal DAG prefix %d: bound %s exceeds optimum %s",
							seed, m, obj, i, b, blind.Value)
					}
					if i < len(pairs) {
						u, v := pairs[i][0], pairs[i][1]
						if blind.Graph.Graph().HasEdge(u, v) {
							g.AddEdge(u, v)
						} else if blind.Graph.Graph().HasEdge(v, u) {
							g.AddEdge(v, u)
						}
					}
				}
				pruned := solveOnce(t, app, m, obj,
					Options{Method: BranchBound, Family: FamilyDAG, Orch: smallOrch(), Workers: 1})
				if !pruned.Value.Equal(blind.Value) {
					t.Fatalf("seed %d %s/%s: branch-and-bound %s diverged from blind %s",
						seed, m, obj, pruned.Value, blind.Value)
				}
			}
		}
	}
}

// TestDAGPrecedenceLastFloorExactOnTotalOrder pins the strength the
// precedence-aware bound adds: under a total-order precedence the unique
// last-position candidate carries every other service's selectivity
// EXACTLY — growth included, where the precedence-blind bound worst-cases
// expanding services to factor 1 — so on an all-expanding instance the
// fully-open root bound equals the chain family's exact last-position
// floor, which here is the blind-enumeration optimum itself.
func TestDAGPrecedenceLastFloorExactOnTotalOrder(t *testing.T) {
	services := []workflow.Service{
		{Name: "a", Cost: rat.New(1, 4), Selectivity: rat.I(2)},
		{Name: "b", Cost: rat.New(1, 3), Selectivity: rat.New(3, 2)},
		{Name: "c", Cost: rat.New(1, 2), Selectivity: rat.New(5, 4)},
		{Name: "d", Cost: rat.New(1, 8), Selectivity: rat.I(3)},
	}
	app, err := workflow.New(services, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	prec, err := app.Precedence().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	n := app.N()
	pairs := nodePairs(n)
	g := dag.New(n)

	// d is the only node without precedence successors, so it ends every
	// valid completion on input product σa·σb·σc = 15/4 exactly; its
	// last-position floor σa·σb·σc·max(c_d, σ_d) = 45/4 under OVERLAP.
	want := rat.New(45, 4)
	got := dagPartialBound(app, plan.Overlap, PeriodObjective, g, prec, pairs, 0)
	if !got.Equal(want) {
		t.Fatalf("fully-open precedence bound %s, want the exact last-position floor %s", got, want)
	}
	// Without the closure the growth is invisible: every selectivity > 1
	// worst-cases to 1 and the bound collapses to the largest per-unit term.
	blind := dagPartialBound(app, plan.Overlap, PeriodObjective, g, nil, pairs, 0)
	if !blind.Less(got) {
		t.Fatalf("precedence-blind bound %s not below the precedence-aware %s", blind, got)
	}
	// The floor is tight: the blind DAG enumeration's optimum equals it
	// (the total order admits only the chain, whose bottleneck is d's
	// output copy), so the root bound certifies optimality before the
	// search decides a single pair.
	sol := oracleSolve(t, app, plan.Overlap, PeriodObjective, FamilyDAG)
	if !sol.Value.Equal(want) {
		t.Fatalf("blind DAG optimum %s, want %s", sol.Value, want)
	}
	// ONE-PORT recovers the chain-style additive unit on the same exact
	// product: σa·σb·σc·(c_d + σ_d) ≤ bound ≤ optimum.
	floor1p := rat.New(15, 4).Mul(rat.New(1, 8).Add(rat.I(3)))
	got1p := dagPartialBound(app, plan.InOrder, PeriodObjective, g, prec, pairs, 0)
	sol1p := oracleSolve(t, app, plan.InOrder, PeriodObjective, FamilyDAG)
	if got1p.Less(floor1p) || got1p.Greater(sol1p.Value) {
		t.Fatalf("one-port bound %s outside [floor %s, optimum %s]", got1p, floor1p, sol1p.Value)
	}
}

// chainPrefixBound bounds every chain that starts with order[:k] and
// continues with some permutation of order[k:]: the admissibility test's
// from-scratch counterpart of the prefix state branchBoundChain maintains
// incrementally before calling chainCompletionBound.
func chainPrefixBound(app *workflow.App, m plan.Model, obj Objective, order []int, k int) rat.Rat {
	inProd, units := rat.One, unitCosts(app, m)
	var prefixObj rat.Rat
	if obj == LatencyObjective {
		prefixObj = rat.One
	}
	for _, s := range order[:k] {
		if obj == PeriodObjective {
			prefixObj = rat.Max(prefixObj, inProd.Mul(units.unit(s, 1)))
			inProd = inProd.Mul(app.Selectivity(s))
		} else {
			prefixObj = prefixObj.Add(inProd.Mul(app.Cost(s)))
			inProd = inProd.Mul(app.Selectivity(s))
			prefixObj = prefixObj.Add(inProd)
		}
	}
	return chainCompletionBound(app, units, obj, prefixObj, inProd, order[k:])
}

// parentVector extracts the forest parent assignment of an execution graph.
func parentVector(t *testing.T, eg *plan.ExecGraph) []int {
	t.Helper()
	if !eg.IsForest() {
		t.Fatal("expected a forest plan")
	}
	parent := make([]int, eg.N())
	for v := range parent {
		parent[v] = -1
		if preds := eg.Graph().Pred(v); len(preds) == 1 {
			parent[v] = preds[0]
		}
	}
	return parent
}

// --- certification beyond the blind enumerations ---

// TestBranchBoundCertifiesBeyondBlindEnumeration is the scale payoff: at
// n = 12 a blind chain enumeration would evaluate 12! ≈ 4.8e8 chains,
// while branch-and-bound certifies the chain optimum in a vanishing
// fraction of that and stays worker-count deterministic.
func TestBranchBoundCertifiesBeyondBlindEnumeration(t *testing.T) {
	const n = 12
	app := gen.App(gen.NewRand(42), n, gen.Filtering)
	var ef Effort
	opts := Options{Method: BranchBound, Family: FamilyChain, Orch: smallOrch(), Workers: 1, Effort: &ef}
	sol := solveOnce(t, app, plan.InOrder, PeriodObjective, opts)
	greedy := ChainPeriodValue(app, GreedyChainOrder(app, plan.InOrder), plan.InOrder)
	if sol.Value.Greater(greedy) {
		t.Fatalf("certified optimum %s worse than the greedy chain %s", sol.Value, greedy)
	}
	st := ef.Search
	var blindLeaves int64 = 1
	for i := int64(2); i <= n; i++ {
		blindLeaves *= i
	}
	if st.Evaluated == 0 || st.Evaluated >= blindLeaves/1000 {
		t.Fatalf("expected a >1000x evaluation reduction: evaluated %d of %d chains", st.Evaluated, blindLeaves)
	}
	if st.Pruned == 0 {
		t.Fatal("expected pruned subtrees")
	}
	want := describeSolution(sol)
	for _, workers := range []int{2, 8} {
		o := opts
		o.Workers = workers
		o.Effort = nil
		if got := describeSolution(solveOnce(t, app, plan.InOrder, PeriodObjective, o)); got != want {
			t.Fatalf("workers=%d diverged from serial:\n%s\nvs\n%s", workers, want, got)
		}
	}
}

// TestBranchBoundStatsDeterministicSerial pins the Workers: 1 counters:
// with a single worker the pruning threshold evolves deterministically, so
// repeated runs must report identical effort.
func TestBranchBoundStatsDeterministicSerial(t *testing.T) {
	app := gen.App(gen.NewRand(9), 5, gen.Mixed)
	run := func() Stats {
		var ef Effort
		opts := Options{Method: BranchBound, Family: FamilyForest, Orch: smallOrch(), Restarts: 1, Workers: 1, Effort: &ef}
		solveOnce(t, app, plan.Overlap, PeriodObjective, opts)
		return ef.Search
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("serial stats not reproducible: %+v vs %+v", a, b)
	}
	if a.Expanded == 0 || a.Evaluated == 0 {
		t.Fatalf("implausible stats: %+v", a)
	}
}
