// Package plan implements execution graphs, the first half of a plan in the
// paper's sense: a DAG over services whose transitive closure contains the
// application's precedence constraints, annotated with the derived volumes
// (inProd, outSize) that every scheduling decision is based on. The
// per-server costs (Cin, Ccomp, Cout, Cexec) and the two lower bounds are
// read from the graph's scheduling-level lowering, Weighted.
//
// Entry services receive their input (volume δ0 = 1) from a private input
// node; exit services send their output to a private output node. These
// virtual endpoints appear as the special indices In and Out in Edge values.
package plan

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dag"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// Model identifies one of the paper's three communication models.
type Model int

const (
	// Overlap is the multi-port model with full communication/computation
	// overlap; concurrent communications share bandwidth.
	Overlap Model = iota
	// InOrder is the one-port model without overlap where each server fully
	// processes data set n (receive all, compute, send all) before touching
	// data set n+1.
	InOrder
	// OutOrder is the one-port model without overlap that allows operations
	// of different data sets to interleave on a server.
	OutOrder
)

// Models lists all three communication models in presentation order.
var Models = []Model{Overlap, InOrder, OutOrder}

// String returns the paper's name for the model.
func (m Model) String() string {
	switch m {
	case Overlap:
		return "OVERLAP"
	case InOrder:
		return "INORDER"
	case OutOrder:
		return "OUTORDER"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Virtual node indices used in Edge endpoints.
const (
	// In denotes the private input node of an entry service.
	In = -1
	// Out denotes the private output node of an exit service.
	Out = -2
)

// Edge is one communication of the plan: service-to-service, input-node-to-
// entry-service (From == In) or exit-service-to-output-node (To == Out).
type Edge struct {
	From, To int
}

// String renders the edge using service indices, with "in"/"out" for the
// virtual endpoints.
func (e Edge) String() string {
	from, to := fmt.Sprint(e.From), fmt.Sprint(e.To)
	if e.From == In {
		from = "in"
	}
	if e.To == Out {
		to = "out"
	}
	return from + "->" + to
}

// ExecGraph is an execution graph with all derived quantities precomputed.
// It is immutable after construction.
type ExecGraph struct {
	app     *workflow.App
	g       *dag.Graph
	topo    []int
	inProd  []rat.Rat // Π σ over strict ancestors
	outSize []rat.Rat // inProd·σ
	edges   []Edge    // all comms incl. virtual, deterministic order
}

// Build constructs an execution graph for app from the given service-to-
// service edges. It fails if the edges form a cycle or if the application's
// precedence constraints are not contained in the transitive closure.
func Build(app *workflow.App, edges [][2]int) (*ExecGraph, error) {
	g := dag.New(app.N())
	for _, e := range edges {
		if e[0] < 0 || e[0] >= app.N() || e[1] < 0 || e[1] >= app.N() {
			return nil, fmt.Errorf("plan: edge %v out of range", e)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("plan: self-loop on service %d", e[0])
		}
		g.AddEdge(e[0], e[1])
	}
	return FromGraph(app, g)
}

// The two ways a candidate graph fails; the searches reject many, so these
// cost no allocation.
var (
	errCyclic     = errors.New("plan: execution graph is cyclic")
	errPrecedence = errors.New("plan: execution graph does not honor the precedence constraints")
)

// FromGraph constructs an execution graph from an already-built DAG. The
// graph is cloned; the caller keeps ownership of g. One Kahn pass yields the
// topological order and the ancestor sets; the precedence constraints are
// checked against those sets (u→v is honoured iff u is an ancestor of v)
// before anything is cloned, and every derived vector is sized once.
func FromGraph(app *workflow.App, g *dag.Graph) (*ExecGraph, error) {
	n := app.N()
	if g.N() != n {
		return nil, fmt.Errorf("plan: graph has %d nodes, application has %d services", g.N(), n)
	}
	var s dag.Scratch
	topo, anc, err := g.AncestorsInto(&s)
	if err != nil {
		return nil, errCyclic
	}
	prec := app.Precedence()
	for u := 0; u < n; u++ {
		for _, v := range prec.Succ(u) {
			if !anc[v].Has(u) {
				return nil, errPrecedence
			}
		}
	}
	eg := &ExecGraph{app: app, g: g.Clone(), topo: topo}
	rats := make([]rat.Rat, 2*n)
	eg.inProd, eg.outSize = rats[:n:n], rats[n:]
	for _, v := range topo {
		p := rat.One
		// Multiplying along one incoming path would double-count shared
		// ancestors; the paper defines inProd over the ancestor *set*.
		anc[v].ForEach(func(u int) { p = p.Mul(app.Selectivity(u)) })
		eg.inProd[v] = p
		eg.outSize[v] = p.Mul(app.Selectivity(v))
	}
	// Deterministic edge order: input comms, service comms, output comms.
	eg.edges = make([]Edge, 0, 2*n+eg.g.EdgeCount())
	for v := 0; v < n; v++ {
		if eg.g.InDegree(v) == 0 {
			eg.edges = append(eg.edges, Edge{In, v})
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range eg.g.Succ(u) {
			eg.edges = append(eg.edges, Edge{u, v})
		}
	}
	for v := 0; v < n; v++ {
		if eg.g.OutDegree(v) == 0 {
			eg.edges = append(eg.edges, Edge{v, Out})
		}
	}
	return eg, nil
}

// MustBuild is Build that panics on error, for fixed examples and tests.
func MustBuild(app *workflow.App, edges [][2]int) *ExecGraph {
	eg, err := Build(app, edges)
	if err != nil {
		panic(err)
	}
	return eg
}

// Graph returns the service-to-service DAG. The caller must not modify it.
func (eg *ExecGraph) Graph() *dag.Graph { return eg.g }

// N returns the number of services.
func (eg *ExecGraph) N() int { return eg.app.N() }

// Topo returns a topological order of the services.
func (eg *ExecGraph) Topo() []int { return eg.topo }

// CommSize returns the data volume of edge e: δ0 = 1 for input comms, the
// sender's outSize otherwise.
func (eg *ExecGraph) CommSize(e Edge) rat.Rat {
	if e.From == In {
		return rat.One
	}
	return eg.outSize[e.From]
}

// Ccomp returns the computation time of service v: inProd[v]·c_v.
func (eg *ExecGraph) Ccomp(v int) rat.Rat {
	return eg.inProd[v].Mul(eg.app.Cost(v))
}

// IsForest reports whether the execution graph is a forest (every service
// has at most one direct predecessor), the structure that Prop. 4 proves
// sufficient for MINPERIOD without precedence constraints.
func (eg *ExecGraph) IsForest() bool { return eg.g.IsForest() }

// IsChain reports whether the execution graph is a single linear chain.
func (eg *ExecGraph) IsChain() bool { return eg.g.IsChain() }

// String renders a compact description of the graph with per-service costs.
func (eg *ExecGraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ExecGraph{%d services", eg.N())
	var es []string
	for _, e := range eg.g.Edges() {
		es = append(es, fmt.Sprintf("%s->%s", eg.app.Name(e[0]), eg.app.Name(e[1])))
	}
	sort.Strings(es)
	if len(es) > 0 {
		fmt.Fprintf(&b, "; %s", strings.Join(es, ", "))
	}
	b.WriteString("}")
	return b.String()
}

// Describe renders a per-service cost table (Cin, Ccomp, Cout, Cexec for
// both model families, read from Weighted), for diagnostics and the CLI.
func (eg *ExecGraph) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %14s %14s\n", "service", "Cin", "Ccomp", "Cout", "Cexec(ovl)", "Cexec(1port)")
	w := eg.Weighted()
	for v := 0; v < eg.N(); v++ {
		fmt.Fprintf(&b, "%-10s %12s %12s %12s %14s %14s\n",
			w.Name(v), w.Cin(v), w.Comp(v), w.Cout(v), w.Cexec(v, Overlap), w.Cexec(v, InOrder))
	}
	return b.String()
}

// ChainFromOrder builds the linear-chain execution graph visiting services
// in the given order (a permutation of 0..N-1).
func ChainFromOrder(app *workflow.App, order []int) (*ExecGraph, error) {
	if len(order) != app.N() {
		return nil, fmt.Errorf("plan: order has %d entries, want %d", len(order), app.N())
	}
	edges := make([][2]int, 0, len(order)-1)
	for i := 0; i+1 < len(order); i++ {
		edges = append(edges, [2]int{order[i], order[i+1]})
	}
	return Build(app, edges)
}

// Parallel builds the execution graph with no edges at all: every service
// is independent, fed directly by its input node.
func Parallel(app *workflow.App) (*ExecGraph, error) {
	return Build(app, nil)
}
