// Package filtering maps filtering streaming applications (workflows whose
// services shrink or expand their data stream) onto large-scale homogeneous
// platforms with explicit communication costs, reproducing Agrawal, Benoit,
// Dufossé and Robert, "Mapping Filtering Streaming Applications With
// Communication Costs" (SPAA 2009).
//
// The library separates the two halves of a plan exactly as the paper does:
//
//   - an execution graph (ExecGraph) fixes which service feeds which, and
//     therefore every computation and communication volume;
//   - an operation list (OperationList) fixes when every computation and
//     communication happens, cyclically with period λ.
//
// Three communication models are supported: Overlap (bounded multi-port
// with communication/computation overlap), InOrder and OutOrder (one-port
// without overlap, with or without strict per-data-set ordering). Plans are
// optimized for period (inverse throughput) or latency (response time),
// with an exact branch-and-bound search on small instances, the paper's
// polynomial special cases (chains, forests, OVERLAP period orchestration),
// and heuristics everywhere else. Every schedule the library emits is checked against the
// paper's Appendix-A constraint systems in exact rational arithmetic.
//
// Quick start:
//
//	app := filtering.Uniform(5, filtering.Int(4), filtering.Int(1))
//	sol, err := filtering.MinPeriod(app, filtering.Overlap, filtering.SolveOptions{})
//	// sol.Graph is the execution graph, sol.Sched.List the schedule.
//
// For serving plans at scale there is a long-running planning service:
// cmd/filterd exposes plan/batch/drift over HTTP, with its counters on
// /metrics, canonical instance hashing and a singleflight plan cache, so
// repeated and slowly-drifting instances amortize the NP-hard search.
//
// See examples/ for complete programs (examples/quickstart for the
// library, examples/service for the filterd HTTP API end to end) and
// DESIGN.md for the architecture.
package filtering

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/oplist"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// Rat is an immutable exact rational number; all costs, selectivities and
// schedule times are Rats.
type Rat = rat.Rat

// Int returns the rational n/1.
func Int(n int64) Rat { return rat.I(n) }

// NewRat returns the rational num/den in lowest terms (panics if den == 0).
func NewRat(num, den int64) Rat { return rat.New(num, den) }

// ParseRat parses "42", "23/3" or "0.9999" into an exact rational.
func ParseRat(s string) (Rat, error) { return rat.Parse(s) }

// Service is one filter: cost per unit of input data and selectivity
// (output/input volume ratio).
type Service = workflow.Service

// App is an application: services plus precedence constraints.
type App = workflow.App

// NewApp builds an application from services and precedence edges (pairs of
// service indices), validating costs, selectivities and acyclicity.
func NewApp(services []Service, precedence [][2]int) (*App, error) {
	return workflow.New(services, precedence)
}

// Uniform returns n services with identical cost and selectivity.
func Uniform(n int, cost, selectivity Rat) *App {
	return workflow.Uniform(n, cost, selectivity)
}

// Model is a communication model of the paper.
type Model = plan.Model

// The three communication models.
const (
	// Overlap: multi-port communications sharing bounded bandwidth, fully
	// overlapped with computation.
	Overlap = plan.Overlap
	// InOrder: one-port, no overlap, each data set fully processed
	// (receive all, compute, send all) before the next one starts.
	InOrder = plan.InOrder
	// OutOrder: one-port, no overlap, operations of different data sets
	// may interleave on a server.
	OutOrder = plan.OutOrder
)

// Models lists the three communication models.
var Models = plan.Models

// ExecGraph is an execution graph with its derived costs and volumes.
type ExecGraph = plan.ExecGraph

// BuildGraph constructs an execution graph from service-to-service edges;
// the transitive closure must contain the application's precedence
// constraints.
func BuildGraph(app *App, edges [][2]int) (*ExecGraph, error) {
	return plan.Build(app, edges)
}

// ChainGraph builds the linear chain visiting services in the given order.
func ChainGraph(app *App, order []int) (*ExecGraph, error) {
	return plan.ChainFromOrder(app, order)
}

// ParallelGraph builds the edge-free execution graph (every service
// independent).
func ParallelGraph(app *App) (*ExecGraph, error) { return plan.Parallel(app) }

// Weighted is the scheduling-level view of a plan: explicit computation
// times and communication volumes. It is how traditional workflows (no
// selectivities, volumes given directly — the setting of the paper's
// counter-examples B.2/B.3) enter the library; ExecGraph.Weighted() lowers
// a filtering plan to this form.
type Weighted = plan.Weighted

// CommEdge is one communication of a weighted plan; use InNode/OutNode as
// virtual endpoints for the input and output of the whole workflow.
type CommEdge = plan.Edge

// Virtual endpoints for CommEdge.
const (
	// InNode marks a communication from a private input node.
	InNode = plan.In
	// OutNode marks a communication to a private output node.
	OutNode = plan.Out
)

// NewWeighted builds a traditional workflow from computation times,
// communications and volumes. Every node needs at least one incoming and
// one outgoing communication (virtual ones for entries and exits).
func NewWeighted(names []string, comp []Rat, edges []CommEdge, vols []Rat) (*Weighted, error) {
	return plan.NewWeighted(names, comp, edges, vols)
}

// PeriodOf computes the best schedule minimizing the period of a weighted
// plan under model m.
func PeriodOf(w *Weighted, m Model, opts OrchestrateOptions) (Schedule, error) {
	return orchestrate.Period(w, m, opts)
}

// LatencyOf computes the best schedule minimizing the latency of a weighted
// plan under model m.
func LatencyOf(w *Weighted, m Model, opts OrchestrateOptions) (Schedule, error) {
	return orchestrate.Latency(w, m, opts)
}

// OperationList is a cyclic schedule: begin/end times for every computation
// and communication of data set 0, repeated with period λ.
type OperationList = oplist.List

// Schedule is an orchestration result: a validated operation list with its
// objective value and lower bound.
type Schedule = orchestrate.Result

// OrchestrateOptions tunes the schedule searches.
type OrchestrateOptions = orchestrate.Options

// Solution is a complete optimized plan: execution graph plus schedule.
type Solution = solve.Solution

// SolveOptions tunes the plan-level searches.
type SolveOptions = solve.Options

// Search methods for SolveOptions.Method.
const (
	// Auto picks the exact search (BranchBound) on small instances, hill
	// climbing above.
	Auto = solve.Auto
	// GreedyChain is the paper's polynomial chain construction
	// (Prop. 8 / Prop. 16): optimal among chain-shaped plans.
	GreedyChain = solve.GreedyChain
	// HillClimb is randomized local search over plan structures.
	HillClimb = solve.HillClimb
	// BranchBound is the exact search: it certifies the optimum of a
	// structural family by incremental construction with lower-bound
	// pruning (chains to n=12, forests to n=7, DAGs to n=5 by default).
	// Set SolveOptions.Effort to observe the search effort and
	// SolveOptions.Family to force a structural family.
	BranchBound = solve.BranchBound
)

// Branch-and-bound structural families for SolveOptions.Family.
const (
	// FamilyAuto searches the family whose optimum is global: forests for
	// period without precedence constraints (Prop. 4), DAGs otherwise.
	FamilyAuto = solve.FamilyAuto
	// FamilyChain searches linear chains (optimal among chains).
	FamilyChain = solve.FamilyChain
	// FamilyForest searches forests (period-optimal by Prop. 4).
	FamilyForest = solve.FamilyForest
	// FamilyDAG searches general DAGs.
	FamilyDAG = solve.FamilyDAG
)

// SolveEffort is the search-effort record a solve fills when
// SolveOptions.Effort points at one: method and family searched,
// branch-and-bound counters (nodes expanded, candidates evaluated,
// subtrees pruned), orchestration counters and timings.
type SolveEffort = solve.Effort

// Objectives.
const (
	// PeriodObjective minimizes the period (inverse throughput).
	PeriodObjective = solve.PeriodObjective
	// LatencyObjective minimizes the latency (response time).
	LatencyObjective = solve.LatencyObjective
)

// MinPeriod finds a plan minimizing the period of app under model m.
func MinPeriod(app *App, m Model, opts SolveOptions) (Solution, error) {
	return solve.MinPeriod(app, m, opts)
}

// MinLatency finds a plan minimizing the latency of app under model m.
func MinLatency(app *App, m Model, opts SolveOptions) (Solution, error) {
	return solve.MinLatency(app, m, opts)
}

// BiCriteria minimizes latency subject to a period bound.
func BiCriteria(app *App, m Model, periodBound Rat, opts SolveOptions) (Solution, error) {
	return solve.BiCriteria(app, m, periodBound, opts)
}

// Period computes the best schedule for a fixed execution graph, minimizing
// the period under model m.
func Period(eg *ExecGraph, m Model, opts OrchestrateOptions) (Schedule, error) {
	return orchestrate.Period(eg.Weighted(), m, opts)
}

// Latency computes the best schedule for a fixed execution graph,
// minimizing the latency under model m.
func Latency(eg *ExecGraph, m Model, opts OrchestrateOptions) (Schedule, error) {
	return orchestrate.Latency(eg.Weighted(), m, opts)
}

// Trace is a discrete-event execution record over consecutive data sets.
type Trace = sim.Trace

// Replay executes a validated operation list for nData data sets and
// returns the operational trace (completions, latencies, utilization).
func Replay(l *OperationList, nData int) (*Trace, error) {
	return sim.Replay(l, nData)
}

// Profile selects the selectivity mix of generated workloads.
type Profile = gen.Profile

// Workload profiles.
const (
	// Filtering draws selectivities below 1 (query predicates).
	Filtering = gen.Filtering
	// Mixed draws selectivities around 1.
	Mixed = gen.Mixed
	// Expanding draws selectivities above 1.
	Expanding = gen.Expanding
	// Neutral sets every selectivity to 1 (traditional workflows).
	Neutral = gen.Neutral
)

// RandomApp generates a reproducible random application with n services.
func RandomApp(seed int64, n int, p Profile) *App {
	return gen.App(gen.NewRand(seed), n, p)
}

// Complexity classifies one problem variant of the paper.
type Complexity struct {
	// Problem is "orchestration" (operation list for a given execution
	// graph) or "minimization" (find the whole plan).
	Problem string
	// Objective is "period" or "latency".
	Objective string
	// Model is the communication model.
	Model Model
	// Class is the paper's complexity result.
	Class string
	// Reference is the paper's theorem/proposition.
	Reference string
	// Implementation names the algorithm in this repository.
	Implementation string
}

// String renders one matrix entry.
func (c Complexity) String() string {
	return fmt.Sprintf("%s/%s under %s: %s (%s) — %s",
		c.Problem, c.Objective, c.Model, c.Class, c.Reference, c.Implementation)
}

// ComplexityMatrix returns the paper's 12 complexity results (§4, §5) with
// the algorithms implementing each variant in this library.
func ComplexityMatrix() []Complexity {
	const (
		minPeriod  = "solve.MinPeriod (branch-and-bound over forests / hill climbing)"
		minLatency = "solve.MinLatency (branch-and-bound over DAGs / hill climbing)"
	)
	return []Complexity{
		{"orchestration", "period", Overlap, "polynomial", "Thm 1 / Prop 1", "orchestrate.OverlapPeriod (Theorem-1 construction)"},
		{"orchestration", "period", InOrder, "NP-hard", "Thm 1 / Prop 3", "orchestrate.InOrderPeriod (event-graph MCR + order search)"},
		{"orchestration", "period", OutOrder, "NP-hard", "Thm 1 / Prop 2", "orchestrate.OutOrderPeriod (pipelined event-graph template)"},
		{"orchestration", "latency", Overlap, "NP-hard", "Thm 3 / Prop 11", "orchestrate.OverlapLatency (bandwidth sharing + order search)"},
		{"orchestration", "latency", InOrder, "NP-hard", "Thm 3 / Prop 10", "orchestrate.OnePortLatency (exhaustive/heuristic orders)"},
		{"orchestration", "latency", OutOrder, "NP-hard", "Thm 3 / Prop 9", "orchestrate.OnePortLatency (exhaustive/heuristic orders)"},
		{"minimization", "period", Overlap, "NP-hard", "Thm 2 / Prop 5", minPeriod},
		{"minimization", "period", InOrder, "NP-hard", "Thm 2 / Prop 7", minPeriod},
		{"minimization", "period", OutOrder, "NP-hard", "Thm 2 / Prop 6", minPeriod},
		{"minimization", "latency", Overlap, "NP-hard", "Thm 4 / Prop 15", minLatency},
		{"minimization", "latency", InOrder, "NP-hard", "Thm 4 / Prop 14", minLatency},
		{"minimization", "latency", OutOrder, "NP-hard", "Thm 4 / Prop 13", minLatency},
	}
}

// PolynomialCases lists the paper's tractable special cases and their
// implementations.
func PolynomialCases() []Complexity {
	return []Complexity{
		{"orchestration", "period", Overlap, "polynomial", "Thm 1", "orchestrate.OverlapPeriod"},
		{"orchestration (chain plans)", "period", InOrder, "polynomial", "Prop 8", "solve.GreedyChainOrder + orchestrate.InOrderPeriod"},
		{"orchestration (tree plans)", "latency", InOrder, "polynomial", "Prop 12 / Alg 1", "orchestrate.TreeLatency"},
		{"minimization (chain plans)", "period", Overlap, "polynomial", "Prop 8", "solve.GreedyChainOrder"},
		{"minimization (chain plans)", "latency", InOrder, "polynomial", "Prop 16", "solve.GreedyLatencyChainOrder"},
	}
}
