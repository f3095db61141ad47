package solve

import (
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
)

// TestKeptCandidateSurvivesRebuild pins the keep site's lifetime rule: the
// searches build every candidate into a builder's workspace, which the
// next candidate refills, so shardResult.offer must detach what it keeps.
// Each graph below is built into one builder, scored and offered; the
// builder then builds the next graph. A result that keeps every graph as a
// strict improvement must still hold the one it kept last, and a result
// that kept only this graph must reduce to its plan: the same graph,
// lowering and value as a fresh build.
func TestKeptCandidateSurvivesRebuild(t *testing.T) {
	const n = 6
	app := gen.App(gen.NewRand(5), n, gen.Mixed)
	chain, star, split := make([]int, n), make([]int, n), make([]int, n)
	for v := range n {
		chain[v], star[v], split[v] = v-1, 0, v-2
	}
	star[0], split[0], split[1] = -1, -1, -1
	graphs := []*dag.Graph{forestGraph(chain), forestGraph(star), dag.New(n), forestGraph(split), forestGraph(chain)}
	opts := Options{Orch: smallOrch()}.withDefaults()
	var improving shardResult
	var b plan.Builder
	for i, g := range graphs[:len(graphs)-1] {
		c, err := build(&b, app, g)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scoreCandidate(c, plan.InOrder, PeriodObjective, opts, orchestrate.NoLimit)
		if err != nil {
			t.Fatal(err)
		}
		var alone shardResult
		if !alone.offer(s) {
			t.Fatalf("graph %d: an empty result refused a candidate", i)
		}
		faked := s
		faked.Value = rat.I(int64(100 - i)) // every offer a strict improvement
		if !improving.offer(faked) {
			t.Fatalf("graph %d: a strict improvement was refused", i)
		}
		if _, err := build(&b, app, graphs[i+1]); err != nil {
			t.Fatal(err)
		}
		want, err := plan.FromGraph(app, g)
		if err != nil {
			t.Fatal(err)
		}
		if got := improving.graph.Edges(); !reflect.DeepEqual(got, g.Edges()) {
			t.Fatalf("graph %d: kept edges %v after a rebuild, want %v", i, got, g.Edges())
		}
		sol, err := reduce([]shardResult{alone}, opts, "no plan")
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		if got := sol.Graph; got.String() != want.String() || !reflect.DeepEqual(got.Topo(), want.Topo()) {
			t.Fatalf("graph %d: reduced to %s (order %v) after a rebuild, want %s (order %v)", i, got, got.Topo(), want, want.Topo())
		}
		if got, w := sol.Graph.Weighted(), want.Weighted(); !reflect.DeepEqual(got, w) {
			t.Fatalf("graph %d: reduced lowering %+v after a rebuild, want %+v", i, got, w)
		}
		if !sol.Value.Equal(s.Value) {
			t.Fatalf("graph %d: reduced to value %s, scored %s", i, sol.Value, s.Value)
		}
	}
}
