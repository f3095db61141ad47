package plan

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// BenchmarkCandidateBuild times the plan searches' inner step, one
// candidate graph and its Weighted lowering, on n = 8 services with
// precedence constraints: "fresh" is FromGraph + ExecGraph.Weighted (a new
// graph's storage per candidate), "warm" a Builder that alternates between
// two candidates and refills its storage in place. ns/op and allocs/op are
// the comparison.
func BenchmarkCandidateBuild(b *testing.B) {
	const n = 8
	rng := rand.New(rand.NewSource(3))
	services := make([]workflow.Service, n)
	for i := range services {
		services[i] = workflow.Service{Cost: rat.New(int64(1+rng.Intn(16)), 4), Selectivity: rat.New(int64(1+rng.Intn(15)), 10)}
	}
	app := workflow.MustNew(services, [][2]int{{0, 3}, {1, 5}})
	var graphs [2]*dag.Graph
	for k := range graphs {
		g := app.Precedence().Clone()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 && !g.HasEdge(i, j) {
					g.AddEdge(i, j)
				}
			}
		}
		graphs[k] = g
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			eg, err := FromGraph(app, graphs[i%2])
			if err != nil {
				b.Fatal(err)
			}
			eg.Weighted()
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		var bd Builder
		for i := 0; b.Loop(); i++ {
			if _, err := bd.Build(app, graphs[i%2]); err != nil {
				b.Fatal(err)
			}
			bd.Weighted()
		}
	})
}
