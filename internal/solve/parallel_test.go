package solve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/workflow"
)

// describeSolution flattens everything observable about a Solution —
// objective value, exactness, execution graph, schedule period and the full
// operation list — so two solutions compare bit for bit.
func describeSolution(sol Solution) string {
	return fmt.Sprintf("value=%s exact=%v graph=%s lambda=%s latency=%s\n%s",
		sol.Value, sol.Exact, sol.Graph, sol.Sched.List.Period(),
		sol.Sched.List.Latency(), sol.Sched.List.Timeline())
}

func solveOnce(t *testing.T, app *workflow.App, m plan.Model, obj Objective, opts Options) Solution {
	t.Helper()
	var sol Solution
	var err error
	if obj == PeriodObjective {
		sol, err = MinPeriod(app, m, opts)
	} else {
		sol, err = MinLatency(app, m, opts)
	}
	if err != nil {
		t.Fatalf("%s/%s workers=%d: %v", m, obj, opts.Workers, err)
	}
	return sol
}

// TestParallelSolversDeterministic is the determinism contract of the
// package doc: for every method × model × objective combination, Workers: 1
// and Workers: N return the identical Solution — same objective value, same
// execution graph, same operation list.
func TestParallelSolversDeterministic(t *testing.T) {
	plain := gen.App(gen.NewRand(31), 4, gen.Mixed)
	withPrec := gen.AppWithPrecedence(gen.NewRand(8), 4, gen.Filtering, 0.3)
	if !withPrec.HasPrecedence() {
		t.Fatal("seed 8 must produce precedence constraints")
	}
	cases := []struct {
		name   string
		app    *workflow.App
		method Method
		family Family
	}{
		// The branch-and-bound searches add the shared incumbent as a
		// determinism hazard: pruning depends on when other workers improve
		// it. The two-rule pruning of bnb.go (strict against the shared
		// value, ties only against the shard-local best) must keep the
		// returned Solution bit-identical for every worker count — for each
		// family's sharding (exact-<family>) and for the default family.
		// The chain optimum is the greedy's (Prop. 8/16), with no search.
		{"exact-chain/plain", plain, GreedyChain, FamilyAuto},
		{"exact-forest/plain", plain, BranchBound, FamilyForest},
		{"exact-dag/plain", plain, BranchBound, FamilyDAG},
		{"exact-dag/precedence", withPrec, BranchBound, FamilyDAG},
		{"branch-bound/plain", plain, BranchBound, FamilyAuto},
		{"branch-bound/precedence", withPrec, BranchBound, FamilyAuto},
		{"hill-climb/plain", plain, HillClimb, FamilyAuto},
		{"hill-climb/precedence", withPrec, HillClimb, FamilyAuto},
	}
	for _, tc := range cases {
		for _, m := range plan.Models {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, m, obj), func(t *testing.T) {
					opts := Options{Method: tc.method, Family: tc.family, Orch: smallOrch(), Restarts: 2, Seed: 7}
					opts.Workers = 1
					serial := solveOnce(t, tc.app, m, obj, opts)
					want := describeSolution(serial)
					for _, workers := range []int{2, 8} {
						opts.Workers = workers
						got := describeSolution(solveOnce(t, tc.app, m, obj, opts))
						if got != want {
							t.Fatalf("workers=%d diverged from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
								workers, want, workers, got)
						}
					}
				})
			}
		}
	}
}

// TestBiCriteriaParallelDeterministic pins the sharded bi-criteria forest
// scan to its serial result.
func TestBiCriteriaParallelDeterministic(t *testing.T) {
	app := gen.App(gen.NewRand(5), 4, gen.Filtering)
	base := Options{Orch: smallOrch(), Workers: 1}
	per, err := MinPeriod(app, plan.InOrder, base)
	if err != nil {
		t.Fatal(err)
	}
	bound := per.Value.MulInt(2)
	serial, err := BiCriteria(app, plan.InOrder, bound, base)
	if err != nil {
		t.Fatal(err)
	}
	want := describeSolution(serial)
	for _, workers := range []int{2, 8} {
		opts := base
		opts.Workers = workers
		sol, err := BiCriteria(app, plan.InOrder, bound, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := describeSolution(sol); got != want {
			t.Fatalf("workers=%d diverged:\n%s\nvs\n%s", workers, want, got)
		}
	}
}

// The ShardsPartitionSerialEnumeration tests pin each of the two decision
// trees to its blind oracle. The driver walks the tree at Workers 1, so the
// shards run in order, and no leaf is ever kept, so no bound can prune: the
// leaves must then be the oracle's family in the oracle's order, with no
// drops and no duplicates.

// checkLeaves fails unless the tree's leaves got match the oracle's want
// one for one.
func checkLeaves(t *testing.T, family string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: the tree reaches %d leaves, the oracle %d", family, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s leaf %d: tree %s, oracle %s", family, i, got[i], want[i])
		}
	}
}

func TestForestShardsPartitionSerialEnumeration(t *testing.T) {
	var want, got []string
	app := gen.App(gen.NewRand(1), 5, gen.Mixed)
	forEachForest(5, func(parent []int) { want = append(want, fmt.Sprint(forestGraph(parent).Edges())) })
	branchAndBound(forestTree(app, nil, func(c candidate, _ *shardResult, _ orchestrate.Limit) bool {
		got = append(got, fmt.Sprint(c.eg.Graph().Edges()))
		return false
	}), &incumbent{}, Options{Workers: 1}, "")
	checkLeaves(t, "forest", want, got)
}

// The DAG tree's leaves are the oracle's DAGs that FromGraph accepts (the
// filter of the trees' leaf step) and that are transitively reduced, in the
// oracle's order: its cuts drop exactly the graphs with an implied edge and
// never a reduced valid plan. Without precedence that is 219 of the 543
// labelled DAGs on 4 nodes.
func TestDAGShardsPartitionSerialEnumeration(t *testing.T) {
	for _, app := range []*workflow.App{gen.App(gen.NewRand(2), 4, gen.Mixed), gen.AppWithPrecedence(gen.NewRand(8), 4, gen.Filtering, 0.3)} {
		prec, err := app.Precedence().TransitiveClosure()
		if err != nil {
			t.Fatal(err)
		}
		var want, got []string
		valid := 0
		forEachDAG(4, func(g *dag.Graph) {
			if _, err := plan.FromGraph(app, g); err == nil {
				valid++
				if g.IsReduced() {
					want = append(want, fmt.Sprint(g.Edges()))
				}
			}
		})
		if !app.HasPrecedence() && (valid != 543 || len(want) != 219) {
			t.Fatalf("the oracle holds %d DAGs on 4 nodes, %d reduced; want 543 and 219", valid, len(want))
		}
		branchAndBound(dagTree(app, plan.Overlap, PeriodObjective, prec, func(c candidate, _ *shardResult, _ orchestrate.Limit) bool {
			got = append(got, fmt.Sprint(c.eg.Graph().Edges()))
			return false
		}), &incumbent{}, Options{Workers: 1}, "")
		checkLeaves(t, fmt.Sprintf("DAG (precedence %v)", app.HasPrecedence()), want, got)
	}
}

// TestConcurrentBranchBound hammers the branch-and-bound path from many
// goroutines sharing one App so `go test -race` can see the incumbent's
// locking and any shared state in the bound computations.
func TestConcurrentBranchBound(t *testing.T) {
	app := gen.App(gen.NewRand(2), 4, gen.Mixed)
	opts := Options{Method: BranchBound, Orch: smallOrch(), Restarts: 1, Workers: 4}
	ref := solveOnce(t, app, plan.Overlap, PeriodObjective, opts)
	want := describeSolution(ref)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol, err := MinPeriod(app, plan.Overlap, opts)
			if err != nil {
				errs <- err.Error()
				return
			}
			if got := describeSolution(sol); got != want {
				errs <- fmt.Sprintf("concurrent branch-and-bound diverged:\n%s", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestHillClimbSeedSensitivity sanity-checks the per-restart RNG plumbing:
// a fixed seed reproduces itself.
func TestHillClimbSeedSensitivity(t *testing.T) {
	app := gen.App(gen.NewRand(13), 14, gen.Mixed) // n > 12 exercises the sampled neighborhood
	opts := Options{Method: HillClimb, Orch: smallOrch(), Restarts: 2, Seed: 3, Workers: 2}
	a := solveOnce(t, app, plan.Overlap, PeriodObjective, opts)
	b := solveOnce(t, app, plan.Overlap, PeriodObjective, opts)
	if describeSolution(a) != describeSolution(b) {
		t.Fatal("same seed, same workers: results differ")
	}
}

// TestConcurrentSolves hammers the hill climb (the other search the service
// runs on its pool) from many goroutines sharing one App so `go test -race`
// can see any shared mutable state in the search or evaluation path.
func TestConcurrentSolves(t *testing.T) {
	app := gen.App(gen.NewRand(2), 4, gen.Mixed)
	opts := Options{Method: HillClimb, Orch: smallOrch(), Restarts: 2, Seed: 7, Workers: 4}
	ref := solveOnce(t, app, plan.Overlap, PeriodObjective, opts)
	want := describeSolution(ref)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol, err := MinPeriod(app, plan.Overlap, opts)
			if err != nil {
				errs <- err.Error()
				return
			}
			if got := describeSolution(sol); got != want {
				errs <- fmt.Sprintf("concurrent solve diverged:\n%s", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
