package solve

// The period floor (periodFloor, bound.go) held to what it claims: no plan
// any method returns scores below it, nor does the blind oracle's optimum,
// and it is exactly the bottleneck assignment a subset DP computes from the
// paper's cost model.

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// floorProfiles are the selectivity mixes the floor is checked on.
var floorProfiles = []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding, gen.Neutral}

// floorByDP is the reference floor, built from first principles: the cost
// of service v at position k is its Cexec with no consumers on input
// product 1 (max(1, c, σ) under OVERLAP, 1 + c + σ otherwise) times the
// product of the k smallest shrink factors (σ when below 1, else 1) among
// the other services, each from a fresh sort; best[S] is the smallest
// bottleneck over the orders that fill positions 0..|S|-1 with the set S.
func floorByDP(app *workflow.App, m plan.Model) rat.Rat {
	n := app.N()
	cost := make([][]rat.Rat, n)
	for v := range cost {
		c, s := app.Cost(v), app.Selectivity(v)
		unit := rat.One.Add(c).Add(s)
		if m == plan.Overlap {
			unit = rat.MaxOf(rat.One, c, s)
		}
		var others []rat.Rat
		for u := 0; u < n; u++ {
			if f := app.Selectivity(u); u != v {
				others = append(others, rat.Min(f, rat.One))
			}
		}
		slices.SortFunc(others, rat.Rat.Cmp)
		cost[v] = make([]rat.Rat, n)
		for k := range cost[v] {
			p := rat.One
			for _, f := range others[:k] {
				p = p.Mul(f)
			}
			cost[v][k] = unit.Mul(p)
		}
	}
	best := make([]rat.Rat, 1<<uint(n))
	for set := 1; set < len(best); set++ {
		k := bits.OnesCount(uint(set)) - 1
		for rest := set; rest != 0; rest &= rest - 1 {
			v := bits.TrailingZeros(uint(rest))
			b := rat.Max(best[set&^(1<<uint(v))], cost[v][k])
			if rest == set || b.Less(best[set]) {
				best[set] = b
			}
		}
	}
	return best[len(best)-1]
}

// TestPeriodFloorMatchesSubsetDP holds the shipped floor — the column
// order statistics of the threshold argument — to the subset DP, Rat for
// Rat, at every size up to 10 services.
func TestPeriodFloorMatchesSubsetDP(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	cases := 0
	for n := 1; n <= 10; n++ {
		for seed := 0; seed < seeds; seed++ {
			for _, p := range floorProfiles {
				app := gen.App(gen.NewRand(int64(9000+100*n+10*seed)+int64(p)), n, p)
				for _, m := range plan.Models {
					cases++
					if got, want := periodFloor(app, m), floorByDP(app, m); !got.Equal(want) {
						t.Fatalf("n=%d seed %d %s %s: periodFloor %s, subset DP %s", n, seed, p, m, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d floors compared", cases)
}

// TestPeriodFloorBelowEveryPlan is the floor's admissibility: over gen
// instances of every profile, with and without precedence, under every
// model, the floor is at most the period the greedy chain, the hill climb
// and branch-and-bound return, and at most the blind oracle's optimum
// (n ≤ 5).
func TestPeriodFloorBelowEveryPlan(t *testing.T) {
	sizes, seeds := []int{2, 3, 4, 5, 6, 7, 8, 10}, 2
	if testing.Short() || raceEnabled {
		sizes, seeds = []int{3, 4, 8}, 1
	}
	solves, met := 0, 0
	check := func(who string, floor rat.Rat, v rat.Rat) {
		t.Helper()
		solves++
		if floor.Greater(v) {
			t.Fatalf("%s: floor %s above the period %s", who, floor, v)
		}
		if floor.Equal(v) {
			met++
		}
	}
	for _, n := range sizes {
		for seed := 0; seed < seeds; seed++ {
			for _, p := range floorProfiles {
				rng := gen.NewRand(int64(8000+100*n+10*seed) + int64(p))
				free, prec := gen.App(rng, n, p), gen.AppWithPrecedence(rng, n, p, 0.3)
				for _, app := range []*workflow.App{free, prec} {
					// The DAG climb's one-port order searches cost up to
					// seconds a solve from 7 services: precedence stops at 6.
					if app == prec && (n > 6 || !app.HasPrecedence()) {
						continue
					}
					family := ResolveFamily(app, PeriodObjective, FamilyAuto)
					for _, m := range plan.Models {
						who := fmt.Sprintf("n=%d seed %d %s prec=%v %s", n, seed, p, app.HasPrecedence(), m)
						floor := periodFloor(app, m)
						methods := []Method{HillClimb}
						if !app.HasPrecedence() {
							methods = append(methods, GreedyChain)
						}
						if autoMethod(app, PeriodObjective, Options{}) == BranchBound {
							methods = append(methods, BranchBound)
						}
						for _, method := range methods {
							sol := solveOnce(t, app, m, PeriodObjective, Options{Method: method, Orch: smallOrch(), Seed: int64(seed), Workers: 1})
							check(who+" "+method.String(), floor, sol.Value)
						}
						// The oracle walks the whole family: every seed up to 4
						// services, the first at 5.
						if (n <= 4 || n == 5 && seed == 0) && !oracleTooSlow(family, app, m, PeriodObjective) {
							check(who+" oracle", floor, oracleSolve(t, app, m, PeriodObjective, family).Value)
						}
					}
				}
			}
		}
	}
	if met == 0 {
		t.Errorf("the floor met no value in %d solves: the property is vacuous", solves)
	}
	t.Logf("%d values checked, %d at the floor", solves, met)
}

// TestPeriodFloorAllocBudget: the floor costs a fixed number of allocations
// per solve — its two scratch slices — at every size, not one per node or
// move.
func TestPeriodFloorAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const budget = 2
	for _, n := range []int{1, 4, 8, 12} {
		app := gen.App(gen.NewRand(int64(n)), n, gen.Filtering)
		for _, m := range plan.Models {
			if allocs := testing.AllocsPerRun(50, func() { periodFloor(app, m) }); allocs != budget {
				t.Errorf("n=%d %s: periodFloor allocated %.1f times per run, want %d", n, m, allocs, budget)
			}
		}
	}
}

// TestFloorStopKeepsLowestIndex: shards settling concurrently, in any
// order, leave the stop at the lowest index whose value met the floor —
// the shards from it on are settled, the ones before it are not — and a
// value above the floor, or no floor, settles nothing.
func TestFloorStopKeepsLowestIndex(t *testing.T) {
	floor := rat.New(3, 2)
	stop := floorStop{floor: &floor}
	var wg sync.WaitGroup
	for i := 40; i >= 5; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stop.settle(i, floor)
			stop.settle(i-5, rat.I(2))
		}(i)
	}
	wg.Wait()
	if stop.settled(4) || !stop.settled(5) || !stop.settled(40) {
		t.Fatalf("settled(4, 5, 40) = %v %v %v, want false true true", stop.settled(4), stop.settled(5), stop.settled(40))
	}
	none := floorStop{}
	none.settle(0, rat.Zero)
	if none.settled(0) {
		t.Fatal("a search without a floor settled")
	}
}
