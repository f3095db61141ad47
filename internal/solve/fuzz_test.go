package solve

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// fuzzApps decodes an instance of 1 to 4 services from data — a size byte,
// then a cost byte and a selectivity byte per service (missing bytes read
// as 0), then a byte whose bit k adds pair k's forward edge (nodePairs
// order) as a precedence constraint — and returns it without and, when the
// mask keeps an edge, with its precedence constraints.
func fuzzApps(data []byte) []*workflow.App {
	at := func(i int) int64 {
		if i < len(data) {
			return int64(data[i])
		}
		return 0
	}
	n := 1 + int(at(0))%4
	services := make([]workflow.Service, n)
	for v := range services {
		c, s := at(1+2*v), at(2+2*v)
		services[v] = workflow.Service{Cost: rat.New(1+c%16, 2), Selectivity: rat.New(1+s%12, 4)}
	}
	apps := []*workflow.App{workflow.MustNew(services, nil)}
	var prec [][2]int
	for k, p := range nodePairs(n) {
		if at(1+2*n)>>uint(k)&1 == 1 {
			prec = append(prec, p)
		}
	}
	if len(prec) > 0 {
		apps = append(apps, workflow.MustNew(services, prec))
	}
	return apps
}

// FuzzExactMatchesOracle is the differential suite on fuzzed instances: for
// every decoded instance of up to 4 services, with and without its
// precedence constraints, under every model and objective, the DAG
// branch-and-bound at 1 and 2 workers returns the blind oracle's Solution
// over ALL labelled DAGs bit for bit, whose winner is transitively reduced
// (the premise of the search's reduced tree), validates under its model and
// is Exact exactly where exactOrchestration says the orchestration is; for
// the period objective the oracle's optimum is at least the period floor,
// where the search's shards stop (periodFloor). The
// cells oracleTooSlow thins (one-port period over the 543 DAGs of a free
// n = 4) are skipped, as the seeded suite skips them.
func FuzzExactMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 3, 5})
	f.Add([]byte{1, 2, 9, 7, 1, 1})
	f.Add([]byte{2, 1, 3, 4, 8, 9, 2, 0b011})
	f.Add([]byte{3, 6, 2, 1, 7, 3, 10, 5, 4, 0b100101})
	f.Add([]byte{3, 0, 11, 15, 0, 2, 5, 9, 1, 0b001100})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, app := range fuzzApps(data) {
			for _, m := range plan.Models {
				for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
					if oracleTooSlow(FamilyDAG, app, m, obj) {
						continue
					}
					blind := oracleSolve(t, app, m, obj, FamilyDAG)
					if !blind.Graph.Graph().IsReduced() {
						t.Fatalf("%s/%s: the blind oracle's best DAG %s is not transitively reduced", m, obj, blind.Graph)
					}
					if floor := periodFloor(app, m); obj == PeriodObjective && floor.Greater(blind.Value) {
						t.Fatalf("%s/%s: period floor %s above the blind oracle's optimum %s", m, obj, floor, blind.Value)
					}
					want := describeSolution(blind)
					for _, workers := range []int{1, 2} {
						sol := solveOnce(t, app, m, obj, Options{Method: BranchBound, Family: FamilyDAG, Orch: smallOrch(), Workers: workers})
						if got := describeSolution(sol); got != want {
							t.Fatalf("%s/%s workers=%d: branch-and-bound diverged from the blind oracle:\n--- oracle ---\n%s\n--- search ---\n%s", m, obj, workers, want, got)
						}
						if err := sol.Sched.List.Validate(m); err != nil {
							t.Fatalf("%s/%s workers=%d: the winner does not validate: %v", m, obj, workers, err)
						}
						if sol.Exact != exactOrchestration(m, obj) {
							t.Fatalf("%s/%s workers=%d: Exact %v, exactOrchestration %v", m, obj, workers, sol.Exact, exactOrchestration(m, obj))
						}
					}
				}
			}
		}
	})
}
