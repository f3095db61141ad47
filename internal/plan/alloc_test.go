package plan

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// candidateAllocBudget is what building one candidate on fresh storage
// costs — FromGraph plus the Weighted lowering — in allocations, whatever
// the graph's size: the clone's struct, adjacency headers and adjacency,
// the Kahn scratch, the ancestor sets, the rational vectors, the edge and
// index lists and the lowering itself are each one allocation. Measured:
// 15 at every n below, with and without precedence; on the same graphs the
// builder before the vectors shared backing arrays took 96/91, 167/173 and
// 292/246 (n = 5, 8, 12, without/with precedence). Detaching a candidate a
// Builder built into FromGraph's storage costs the same.
const candidateAllocBudget = 15

// lowered keeps the lowerings the budget test builds: a lowering the test
// dropped could live on the stack, and the count would then leave out the
// allocation every caller that uses it pays.
var lowered *Weighted

// TestCandidateAllocBudget pins the per-candidate allocation count of the
// plan searches' inner step at n = 5, 8 and 12, with and without
// precedence constraints, accepted and rejected: a budget that grows with n
// means some structure went back to per-node or per-edge allocation. The
// searches build into a warm Builder, and there every candidate — accepted
// and lowered, cyclic, or refused by the precedence check — costs nothing,
// and so does rebuilding one into a warm Builder of the keeper's to keep
// it.
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
			check := func(what string, budget float64, f func()) {
				t.Helper()
				if allocs := testing.AllocsPerRun(50, f); allocs > budget {
					t.Errorf("n=%d precedence=%v: %s allocated %.0f times, budget %.0f", n, withPrec, what, allocs, budget)
				} else {
					t.Logf("n=%d precedence=%v: %s: %.0f allocations", n, withPrec, what, allocs)
				}
			}
			check("FromGraph + Weighted", candidateAllocBudget, func() {
				eg, err := FromGraph(app, g)
				if err != nil {
					t.Fatal(err)
				}
				lowered = eg.Weighted()
			})
			var b Builder
			built, err := b.Build(app, g)
			if err != nil {
				t.Fatal(err)
			}
			check("detaching a built candidate by FromGraph + Weighted", candidateAllocBudget, func() {
				eg, err := FromGraph(app, built.Graph())
				if err != nil {
					t.Fatal(err)
				}
				lowered = eg.Weighted()
			})
			var keep Builder
			check("rebuilding a built candidate into a warm builder + Weighted", 0, func() {
				if _, err := keep.Build(app, built.Graph()); err != nil {
					t.Fatal(err)
				}
				keep.Weighted()
			})
			// The searches reject many candidates, and a rejection happens
			// before anything is copied: on fresh storage it costs the Kahn
			// buffer, plus the ancestor sets when the precedence check is
			// what refuses.
			cyclic, empty := dag.New(n), dag.New(n)
			cyclic.AddEdge(0, 1)
			cyclic.AddEdge(1, 0)
			reject := func(g *dag.Graph) func() {
				return func() {
					if _, err := FromGraph(app, g); err == nil {
						t.Fatal("invalid candidate accepted")
					}
				}
			}
			check("rejecting a cyclic candidate", 1, reject(cyclic))
			if len(prec) > 0 {
				check("rejecting a precedence-breaking candidate", 4, reject(empty))
			}
			// A warm builder, last filled with a different graph each time,
			// rebuilds in place.
			other := dag.New(n)
			for _, e := range prec {
				other.AddEdge(e[0], e[1])
			}
			warm := func(g *dag.Graph, accept bool) func() {
				return func() {
					if _, err := b.Build(app, other); err != nil {
						t.Fatal(err)
					}
					_, err := b.Build(app, g)
					if (err == nil) != accept {
						t.Fatalf("warm build: err = %v, want acceptance %v", err, accept)
					}
					if accept {
						b.Weighted()
					}
				}
			}
			check("warm Build + Weighted", 0, warm(g, true))
			check("warm rejection of a cyclic candidate", 0, warm(cyclic, false))
			if len(prec) > 0 {
				check("warm rejection of a precedence-breaking candidate", 0, warm(empty, false))
			}
		}
	}
}
