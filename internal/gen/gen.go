// Package gen produces deterministic random workloads for tests,
// experiments and benchmarks: filtering applications with configurable
// selectivity mixes (the query-optimization setting of the paper's
// motivation), random execution graphs of every structural class the paper
// distinguishes (chains, forests, DAGs), and raw weighted plans for the
// traditional-workflow experiments.
//
// All generators take an explicit *rand.Rand so every experiment is
// reproducible from its seed.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// Profile describes the selectivity mix of a generated application.
type Profile int

const (
	// Filtering draws selectivities below 1 (query predicates that shrink
	// the stream), the regime where chaining pays off.
	Filtering Profile = iota
	// Mixed draws selectivities in a band around 1: some services shrink,
	// some expand.
	Mixed
	// Expanding draws selectivities above 1 (decoders, join-like blowup).
	Expanding
	// Neutral sets every selectivity to exactly 1: a traditional workflow.
	Neutral
)

// String names the profile for reports.
func (p Profile) String() string {
	switch p {
	case Filtering:
		return "filtering"
	case Mixed:
		return "mixed"
	case Expanding:
		return "expanding"
	case Neutral:
		return "neutral"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ratIn returns a rational uniformly from {lo/den, ..., hi/den}.
func ratIn(rng *rand.Rand, lo, hi, den int64) rat.Rat {
	return rat.New(lo+rng.Int63n(hi-lo+1), den)
}

// App generates n services with costs in [1, 10] (quarter-unit steps) and
// selectivities drawn from the profile, without precedence constraints.
func App(rng *rand.Rand, n int, p Profile) *workflow.App {
	services := make([]workflow.Service, n)
	for i := range services {
		services[i] = workflow.Service{
			Cost:        ratIn(rng, 4, 40, 4),
			Selectivity: selectivity(rng, p),
		}
	}
	return workflow.MustNew(services, nil)
}

func selectivity(rng *rand.Rand, p Profile) rat.Rat {
	switch p {
	case Filtering:
		return ratIn(rng, 1, 9, 10) // 0.1 .. 0.9
	case Expanding:
		return ratIn(rng, 11, 30, 10) // 1.1 .. 3.0
	case Mixed:
		return ratIn(rng, 5, 20, 10) // 0.5 .. 2.0
	default:
		return rat.One
	}
}

// AppWithPrecedence generates an application whose precedence graph has
// each forward pair constrained with probability density.
func AppWithPrecedence(rng *rand.Rand, n int, p Profile, density float64) *workflow.App {
	base := App(rng, n, p)
	var edges [][2]int
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				edges = append(edges, [2]int{perm[i], perm[j]})
			}
		}
	}
	return workflow.MustNew(base.Services(), edges)
}

// DAGPlan builds a random execution graph over app: forward edges under a
// random permutation with the given density, always including the
// application's precedence constraints.
func DAGPlan(rng *rand.Rand, app *workflow.App, density float64) *plan.ExecGraph {
	n := app.N()
	g := dag.New(n)
	for _, e := range app.Precedence().Edges() {
		g.AddEdge(e[0], e[1])
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				u, v := perm[i], perm[j]
				if !g.HasEdge(v, u) { // keep acyclic: only this orientation
					g.AddEdge(u, v)
				}
			}
		}
	}
	if !g.IsAcyclic() {
		// The permutation construction cannot create cycles together with
		// an acyclic precedence graph oriented the same way; if the
		// precedence graph disagrees with the permutation this can still
		// conflict, so retry without extra edges.
		eg, err := plan.FromGraph(app, app.Precedence())
		if err != nil {
			panic(fmt.Sprintf("gen: cannot build plan from precedence graph: %v", err))
		}
		return eg
	}
	eg, err := plan.FromGraph(app, g)
	if err != nil {
		// Density edges may fight the precedence closure only via cycles,
		// handled above; any other error is a bug.
		panic(fmt.Sprintf("gen: invalid generated plan: %v", err))
	}
	return eg
}

// ForestPlan builds a random forest execution graph (every service has at
// most one predecessor), the structure that suffices for optimal MINPERIOD
// plans. Requires an application without precedence constraints.
func ForestPlan(rng *rand.Rand, app *workflow.App) *plan.ExecGraph {
	if app.HasPrecedence() {
		panic("gen: ForestPlan requires an application without precedence constraints")
	}
	n := app.N()
	perm := rng.Perm(n)
	g := dag.New(n)
	for i := 1; i < n; i++ {
		// Each node either becomes a new root or attaches to an earlier one.
		if rng.Intn(3) > 0 {
			parent := perm[rng.Intn(i)]
			g.AddEdge(parent, perm[i])
		}
	}
	eg, err := plan.FromGraph(app, g)
	if err != nil {
		panic(fmt.Sprintf("gen: invalid forest plan: %v", err))
	}
	return eg
}

// Weighted builds a random raw weighted plan (traditional workflow): a
// layered DAG with explicit volumes, n nodes total.
func Weighted(rng *rand.Rand, n int, density float64) *plan.Weighted {
	comp := make([]rat.Rat, n)
	for i := range comp {
		comp[i] = ratIn(rng, 1, 20, 2)
	}
	var edges []plan.Edge
	var vols []rat.Rat
	add := func(e plan.Edge, v rat.Rat) {
		edges = append(edges, e)
		vols = append(vols, v)
	}
	hasIn := make([]bool, n)
	hasOut := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				add(plan.Edge{From: i, To: j}, ratIn(rng, 1, 12, 2))
				hasOut[i] = true
				hasIn[j] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if !hasIn[i] {
			add(plan.Edge{From: plan.In, To: i}, ratIn(rng, 1, 6, 2))
		}
		if !hasOut[i] {
			add(plan.Edge{From: i, To: plan.Out}, ratIn(rng, 1, 6, 2))
		}
	}
	w, err := plan.NewWeighted(nil, comp, edges, vols)
	if err != nil {
		panic(fmt.Sprintf("gen: invalid weighted plan: %v", err))
	}
	return w
}
