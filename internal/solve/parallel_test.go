package solve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
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
		{"exact-chain/plain", plain, BranchBound, FamilyChain},
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

// TestForestShardsPartitionSerialEnumeration pins the shard construction
// to the serial reference: concatenating the completions of every prefix
// (in prefix order) must reproduce the oracle's forEachForest sequence
// exactly — same forests, same order, no drops, no duplicates.
func TestForestShardsPartitionSerialEnumeration(t *testing.T) {
	const n = 5
	var serial [][]int
	forEachForest(n, func(parent []int) {
		serial = append(serial, append([]int(nil), parent...))
	})
	var sharded [][]int
	for _, prefix := range forestPrefixes(n, 2) {
		parent := make([]int, n)
		for v := range parent {
			parent[v] = -1
		}
		copy(parent, prefix)
		forEachForestFrom(parent, len(prefix), func(parent []int) bool {
			sharded = append(sharded, append([]int(nil), parent...))
			return true
		})
	}
	if len(serial) != len(sharded) {
		t.Fatalf("serial enumerates %d forests, shards %d", len(serial), len(sharded))
	}
	for i := range serial {
		for v := range serial[i] {
			if serial[i][v] != sharded[i][v] {
				t.Fatalf("forest %d differs: serial %v, sharded %v", i, serial[i], sharded[i])
			}
		}
	}
}

// TestDAGShardsPartitionSerialEnumeration is the same pin for the DAG
// space: prefix completions in prefix order reproduce the oracle's
// forEachDAG exactly.
func TestDAGShardsPartitionSerialEnumeration(t *testing.T) {
	const n = 4
	encode := func(g *dag.Graph) string {
		s := ""
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if g.HasEdge(u, v) {
					s += fmt.Sprintf("%d>%d;", u, v)
				}
			}
		}
		return s
	}
	var serial []string
	forEachDAG(n, func(g *dag.Graph) {
		serial = append(serial, encode(g))
	})
	pairs := nodePairs(n)
	var sharded []string
	for _, prefix := range dagPrefixes(n, 3) {
		g := dag.New(n)
		for _, e := range prefix {
			g.AddEdge(e[0], e[1])
		}
		forEachDAGFrom(g, pairs, 3, func(g *dag.Graph) {
			sharded = append(sharded, encode(g))
		})
	}
	if len(serial) != len(sharded) {
		t.Fatalf("serial enumerates %d DAGs, shards %d", len(serial), len(sharded))
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("DAG %d differs: serial %q, sharded %q", i, serial[i], sharded[i])
		}
	}
}

// TestBranchBoundChainDeterministic extends the determinism contract to the
// chain family, whose shards race on the incumbent with closed-form
// evaluations (no orchestration), the tightest interleaving pressure of the
// three searches.
func TestBranchBoundChainDeterministic(t *testing.T) {
	app := gen.App(gen.NewRand(19), 7, gen.Mixed)
	for _, m := range plan.Models {
		for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
			opts := Options{Method: BranchBound, Family: FamilyChain, Orch: smallOrch()}
			opts.Workers = 1
			want := describeSolution(solveOnce(t, app, m, obj, opts))
			for _, workers := range []int{2, 8} {
				opts.Workers = workers
				if got := describeSolution(solveOnce(t, app, m, obj, opts)); got != want {
					t.Fatalf("%s/%s workers=%d diverged:\n%s\nvs\n%s", m, obj, workers, want, got)
				}
			}
		}
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
