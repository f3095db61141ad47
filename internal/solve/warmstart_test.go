package solve

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
)

// TestIncumbentWarmStartPreservesSolution is the warm-start contract of
// Options.Incumbent: seeding the branch-and-bound incumbent with any value
// achievable within the searched family — the exact optimum, the optimum
// re-derived by re-evaluating the optimal graph, or a looser achievable
// value — returns the bit-identical Solution of the unseeded search, for
// every family and worker count. The chain rows seed the forest and DAG
// searches with a cached chain plan re-evaluated, as the planning
// service's drift path does when its last answer was a chain (a chain is a
// forest and a transitively reduced DAG).
func TestIncumbentWarmStartPreservesSolution(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		seed   int64
		family Family
		obj    Objective
		m      plan.Model
	}{
		{"chain/period", 6, 51, FamilyForest, PeriodObjective, plan.InOrder},
		{"chain/latency", 4, 45, FamilyDAG, LatencyObjective, plan.InOrder},
		{"forest/period", 5, 43, FamilyForest, PeriodObjective, plan.Overlap},
		{"dag/latency", 4, 44, FamilyDAG, LatencyObjective, plan.InOrder},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app := gen.App(gen.NewRand(tc.seed), tc.n, gen.Mixed)
			base := Options{Method: BranchBound, Family: tc.family, Workers: 1}
			cold := solveOnce(t, app, tc.m, tc.obj, base)
			coldDesc := describeSolution(cold)

			// Re-evaluating the optimal graph certifies an achievable
			// seed the way the planning service's drift path does.
			reeval, err := Reevaluate(cold.Graph, tc.m, tc.obj, base)
			if err != nil {
				t.Fatal(err)
			}
			if !reeval.Value.Equal(cold.Value) {
				t.Fatalf("re-evaluated optimum %s != solved optimum %s", reeval.Value, cold.Value)
			}
			seeds := []rat.Rat{cold.Value, reeval.Value, cold.Value.Mul(rat.New(3, 2))}
			if strings.HasPrefix(tc.name, "chain/") {
				chain := solveOnce(t, app, tc.m, tc.obj, Options{Method: GreedyChain})
				cached, err := Reevaluate(chain.Graph, tc.m, tc.obj, base)
				if err != nil {
					t.Fatal(err)
				}
				seeds = []rat.Rat{cached.Value}
			}
			for _, seed := range seeds {
				for _, workers := range []int{1, 4} {
					opts := base
					opts.Incumbent = &seed
					opts.Workers = workers
					warm := solveOnce(t, app, tc.m, tc.obj, opts)
					if got := describeSolution(warm); got != coldDesc {
						t.Errorf("incumbent=%s workers=%d changed the solution:\ncold:\n%s\nwarm:\n%s",
							seed, workers, coldDesc, got)
					}
				}
			}
		})
	}
}

// TestIncumbentWarmStartPrunesHarder checks the point of warm starting: an
// exact-optimum seed can only shrink the serial search tree relative to the
// unseeded run.
func TestIncumbentWarmStartPrunesHarder(t *testing.T) {
	app := gen.App(gen.NewRand(51), 6, gen.Mixed)
	var coldEffort Effort
	cold := solveOnce(t, app, plan.InOrder, PeriodObjective,
		Options{Method: BranchBound, Family: FamilyForest, Workers: 1, Effort: &coldEffort})

	var warmEffort Effort
	opts := Options{Method: BranchBound, Family: FamilyForest, Workers: 1, Effort: &warmEffort}
	opts.Incumbent = &cold.Value
	warm := solveOnce(t, app, plan.InOrder, PeriodObjective, opts)
	if describeSolution(warm) != describeSolution(cold) {
		t.Fatal("warm start changed the solution")
	}
	if warmEffort.Search.Expanded > coldEffort.Search.Expanded {
		t.Errorf("warm start expanded more nodes than cold: %d > %d",
			warmEffort.Search.Expanded, coldEffort.Search.Expanded)
	}
}

// TestIncumbentIgnoredByOtherMethods pins that non-branch-and-bound methods
// are unaffected by a (possibly bogus) incumbent seed.
func TestIncumbentIgnoredByOtherMethods(t *testing.T) {
	app := gen.App(gen.NewRand(45), 4, gen.Mixed)
	bogus := rat.New(1, 1000)
	for _, method := range []Method{GreedyChain, HillClimb} {
		plainOpts := Options{Method: method, Workers: 1}
		seeded := plainOpts
		seeded.Incumbent = &bogus
		plainSol := solveOnce(t, app, plan.Overlap, PeriodObjective, plainOpts)
		seededSol := solveOnce(t, app, plan.Overlap, PeriodObjective, seeded)
		if describeSolution(plainSol) != describeSolution(seededSol) {
			t.Errorf("method %s: incumbent seed changed the solution", method)
		}
	}
}
