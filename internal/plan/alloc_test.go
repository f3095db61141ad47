package plan

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// candidateAllocBudget is what building one candidate costs — FromGraph plus
// the Weighted lowering — in allocations, whatever the graph's size: the
// clone's adjacency, the Kahn scratch, the ancestor sets, the rational
// vectors and the edge and index lists are each one allocation. Measured:
// 15 at every n below, with and without precedence; on the same graphs the
// builder before ISSUE 25 took 96/91, 167/173 and 292/246 (n = 5, 8, 12,
// without/with precedence).
const candidateAllocBudget = 15

// TestCandidateAllocBudget pins the per-candidate allocation count of the
// plan searches' inner step at n = 5, 8 and 12, with and without
// precedence constraints, accepted and rejected: a budget that grows with n
// means some structure went back to per-node or per-edge allocation.
func TestCandidateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets only hold without race instrumentation")
	}
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{5, 8, 12} {
		for _, withPrec := range []bool{false, true} {
			perm := rng.Perm(n)
			g := dag.New(n)
			var prec [][2]int
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if rng.Intn(5) < 2 {
						g.AddEdge(perm[i], perm[j])
						if withPrec && rng.Intn(2) == 0 {
							prec = append(prec, [2]int{perm[i], perm[j]})
						}
					}
				}
			}
			services := make([]workflow.Service, n)
			for i := range services {
				services[i] = workflow.Service{Cost: rat.I(int64(1 + i)), Selectivity: rat.New(int64(1+i%3), 2)}
			}
			app := workflow.MustNew(services, prec)
			build := func() {
				eg, err := FromGraph(app, g)
				if err != nil {
					t.Fatal(err)
				}
				eg.Weighted()
			}
			if allocs := testing.AllocsPerRun(50, build); allocs > candidateAllocBudget {
				t.Errorf("n=%d precedence=%v: FromGraph + Weighted allocated %.0f times, budget %d", n, withPrec, allocs, candidateAllocBudget)
			} else {
				t.Logf("n=%d precedence=%v: %.0f allocations", n, withPrec, allocs)
			}
			// The searches reject many candidates, and a rejection happens
			// before anything is cloned: it costs the Kahn buffer, plus the
			// ancestor sets when the precedence check is what refuses.
			cyclic := dag.New(n)
			cyclic.AddEdge(0, 1)
			cyclic.AddEdge(1, 0)
			reject := func(g *dag.Graph, budget float64) {
				allocs := testing.AllocsPerRun(50, func() {
					if _, err := FromGraph(app, g); err == nil {
						t.Fatal("invalid candidate accepted")
					}
				})
				if allocs > budget {
					t.Errorf("n=%d precedence=%v: rejecting a candidate allocated %.0f times, budget %.0f", n, withPrec, allocs, budget)
				}
			}
			reject(cyclic, 1)
			if len(prec) > 0 {
				reject(dag.New(n), 4)
			}
		}
	}
}
