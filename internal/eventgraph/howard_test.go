package eventgraph

// Howard's policy iteration must converge on every graph. Anchored at the
// node a cycle-finding walk happened to enter, an unchanged policy cycle can
// be re-valued by a different constant on every iteration, and the
// iteration then runs to its cap: these tests pin the canonical anchor on
// a graph that cycled, and certify every answer on the two kinds of event
// graph the orchestrators build.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
)

// howardIterBudget is what "far below the cap" means: the most iterations
// one component may take on the graphs below.
const howardIterBudget = 64

// certify checks that the MCR of g is proved by its own answer: the critical
// cycle attains the ratio (no smaller period), Potentials at the ratio is a
// feasible schedule (no cycle exceeds it), and the policy iteration stayed
// inside howardIterBudget.
func certify(g *Graph) (MCRResult, error) {
	res, err := g.MaximumCycleRatio()
	if err != nil {
		return res, err
	}
	if it := g.scratch.iters; it > howardIterBudget {
		return res, fmt.Errorf("%d Howard iterations, budget %d", it, howardIterBudget)
	}
	sumD, sumH := rat.Zero, 0
	for i, ei := range res.CriticalCycle {
		e := g.edges[ei]
		sumD, sumH = sumD.Add(e.Delay), sumH+e.Tokens
		if next := res.CriticalCycle[(i+1)%len(res.CriticalCycle)]; e.To != g.edges[next].From {
			return res, fmt.Errorf("critical cycle %v does not chain", res.CriticalCycle)
		}
	}
	if sumH == 0 || !sumD.Div(rat.I(int64(sumH))).Equal(res.Ratio) {
		return res, fmt.Errorf("critical cycle reaches %s/%d, MCR %s", sumD, sumH, res.Ratio)
	}
	pi, err := g.Potentials(res.Ratio)
	if err != nil {
		return res, fmt.Errorf("potentials at the MCR: %w", err)
	}
	for _, e := range g.edges {
		if pi[e.To].Less(pi[e.From].Add(e.weightAt(res.Ratio))) {
			return res, fmt.Errorf("potentials at the MCR violate edge %d->%d", e.From, e.To)
		}
	}
	return res, nil
}

// TestHowardConvergesOnCyclingInOrderGraph is the INORDER event graph of one
// candidate of a plan-cold run (the plan C3->C6, C5->C2, C7->C1, C7->C3,
// C8->C4, C8->C7 under its natural communication orders, on the canonical
// form of an 8-service mixed instance). Anchored at the entry node, Howard
// ran to its iteration cap on it, and the search dropped the candidate.
func TestHowardConvergesOnCyclingInOrderGraph(t *testing.T) {
	data, err := os.ReadFile("testdata/howard_cycling_inorder.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixture struct {
		N     int
		Edges []Edge
	}
	if err := json.Unmarshal(data, &fixture); err != nil {
		t.Fatal(err)
	}
	g := New(fixture.N)
	for _, e := range fixture.Edges {
		g.AddEdge(e.From, e.To, e.Delay, e.Tokens)
	}
	res, err := certify(g)
	if err != nil {
		t.Fatal(err)
	}
	brute, err := bruteForceMCR(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.Equal(brute.Ratio) || !res.Ratio.Equal(rat.I(7)) {
		t.Fatalf("MCR %s, brute force %s, want 7", res.Ratio, brute.Ratio)
	}
}

// opDur is the duration of an operation node of w's event graphs: calc(v)
// is node v, the communication on edge i is node w.N()+i.
func opDur(w *plan.Weighted, op int) rat.Rat {
	if op < w.N() {
		return w.Comp(op)
	}
	return w.Vol(op - w.N())
}

func commOps(w *plan.Weighted, edges []int) []int {
	ops := make([]int, len(edges))
	for i, e := range edges {
		ops[i] = w.N() + e
	}
	return ops
}

// inOrderGraph and pipelinedGraph build the complete-assignment event
// graphs of package orchestrate's INORDER and OUTORDER evaluators
// (inOrderEval.build and outOrderEval.build with every side decided) for
// fixed orders. orchestrate imports this package, so they are restated
// here.
func inOrderGraph(w *plan.Weighted, in, out [][]int) *Graph {
	g := New(w.N() + len(w.Edges()))
	for v := 0; v < w.N(); v++ {
		seq := append(append(commOps(w, in[v]), v), commOps(w, out[v])...)
		for i := 0; i+1 < len(seq); i++ {
			g.AddEdge(seq[i], seq[i+1], opDur(w, seq[i]), 0)
		}
		last := seq[len(seq)-1]
		g.AddEdge(last, seq[0], opDur(w, last), 1)
	}
	return g
}

func pipelinedGraph(w *plan.Weighted, in, out [][]int) *Graph {
	stage := make([]int, w.N()) // hops of the longest path to an exit
	for i := len(w.Topo()) - 1; i >= 0; i-- {
		v := w.Topo()[i]
		for _, ei := range w.OutEdges(v) {
			if to := w.Edge(ei).To; to >= 0 {
				stage[v] = max(stage[v], stage[to]+1)
			}
		}
	}
	g := New(w.N() + len(w.Edges()))
	for v := 0; v < w.N(); v++ {
		seq := append(append(commOps(w, out[v]), v), commOps(w, in[v])...)
		for i := 0; i+1 < len(seq); i++ {
			tokens := 0
			if seq[i+1] == v {
				tokens = 1
			}
			g.AddEdge(seq[i], seq[i+1], opDur(w, seq[i]), tokens)
		}
		last := seq[len(seq)-1]
		g.AddEdge(last, seq[0], opDur(w, last), 0)
	}
	for ei, e := range w.Edges() {
		if e.From >= 0 {
			g.AddEdge(e.From, w.N()+ei, w.Comp(e.From), 0)
		}
		if e.To >= 0 {
			commStage := stage[e.To] + 1
			if e.From >= 0 {
				commStage = stage[e.From]
			}
			g.AddEdge(w.N()+ei, e.To, w.Vol(ei), commStage-stage[e.To])
		}
	}
	return g
}

// TestHowardCertificateOnPlanGraphs certifies Howard's answer on the INORDER
// and pipelined OUTORDER event graphs of gen-built plans under random
// communication orders. A deadlocking order (a zero-token cycle) is a valid
// outcome; any other error, or an uncertified ratio, fails.
func TestHowardCertificateOnPlanGraphs(t *testing.T) {
	plans := 2000
	if testing.Short() {
		plans = 200
	}
	rng := gen.NewRand(27)
	worst, certified := 0, 0
	for i := 0; i < plans; i++ {
		n := 3 + rng.Intn(6)
		app := gen.App(rng, n, gen.Mixed)
		if i%2 == 1 {
			app = gen.AppWithPrecedence(rng, n, gen.Mixed, 0.3)
		}
		w := gen.DAGPlan(rng, app, 0.4).Weighted()
		in, out := make([][]int, n), make([][]int, n)
		for v := 0; v < n; v++ {
			in[v] = append([]int(nil), w.InEdges(v)...)
			out[v] = append([]int(nil), w.OutEdges(v)...)
			rng.Shuffle(len(in[v]), func(a, b int) { in[v][a], in[v][b] = in[v][b], in[v][a] })
			rng.Shuffle(len(out[v]), func(a, b int) { out[v][a], out[v][b] = out[v][b], out[v][a] })
		}
		for _, kind := range []struct {
			name  string
			build func(*plan.Weighted, [][]int, [][]int) *Graph
		}{{"INORDER", inOrderGraph}, {"OUTORDER", pipelinedGraph}} {
			g := kind.build(w, in, out)
			_, err := certify(g)
			if errors.Is(err, ErrZeroTokenCycle) {
				continue
			}
			if err != nil {
				t.Fatalf("plan %d (%d services) %s, orders in=%v out=%v: %v", i, n, kind.name, in, out, err)
			}
			certified++
			worst = max(worst, g.scratch.iters)
		}
	}
	t.Logf("%d graphs certified, at most %d Howard iterations per component", certified, worst)
}
