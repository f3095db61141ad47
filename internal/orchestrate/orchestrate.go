// Package orchestrate computes operation lists for a given execution graph:
// the "orchestration" half of the paper's problems (§4.1 and §5.1).
//
// Period orchestration:
//
//   - OVERLAP: the polynomial construction of Theorem 1 — every
//     communication is stretched to the period and data set 0 traverses the
//     graph greedily. Always optimal.
//   - INORDER: for fixed per-server receive/send orders the optimal period
//     is the maximum cycle ratio of a timed event graph (package
//     eventgraph); choosing the orders is the NP-hard part (Theorem 1 of
//     the paper), handled by exhaustive search below a budget and priority
//     heuristics plus local search above it.
//   - OUTORDER: a software-pipelined event-graph template (receive data set
//     n while computing n−1 and sending n−2, generation-shifted by the
//     node's depth) searched the same way, never worse than the INORDER
//     result.
//
// Latency orchestration (§5.1) is NP-hard for all models: one-port
// schedules are explored exactly over per-server orders (the longest path
// of the induced DAG is the latency), multi-port adds a bandwidth-sharing
// construction, and tree-shaped graphs use the O(n log n) Algorithm 1.
//
// Every orchestrator is split into a scoring form, which finds the value
// and the winning orders without building a schedule, and
// Score.Materialise, which rebuilds, validates and explains the schedule
// of a score (score.go). Plan-level searches score every candidate graph
// and materialise only the one they return.
package orchestrate

import (
	"sort"

	"repro/internal/eventgraph"
	"repro/internal/oplist"
	"repro/internal/plan"
	"repro/internal/rat"
)

// Options tunes the order searches. The zero value asks for defaults.
type Options struct {
	// MaxExhaustive caps the number of order combinations searched
	// exactly; above it the heuristic path is taken. The exhaustive path
	// enumerates order prefixes with lower-bound pruning (search.go)
	// rather than scoring the flat product, so the default affords 65536
	// combinations for a single-graph orchestration. The solve layer pins
	// its inner searches to 4096 (thousands of candidate graphs multiply
	// whatever this costs).
	MaxExhaustive int
	// Workers is inert: the order search is serial, and nothing reads the
	// field. It remains only because bench/plancold.go:307,458,462 sets it
	// and bench/ is not edited outside a benchmark change.
	Workers int
	// Stats, when non-nil, receives the pruned-search counters of the
	// exhaustive path (zeroed on the heuristic path). The search is serial,
	// so the counters of one plan and Options are always reproducible.
	Stats *Stats
}

func (o Options) withDefaults() Options {
	if o.MaxExhaustive == 0 {
		o.MaxExhaustive = 65536
	}
	return o
}

// Result is a materialised orchestration outcome (Score.Materialise): a
// validated operation list, the objective value reached, the
// model-specific lower bound, and whether the search was exhaustive (Exact
// — the value is optimal within the searched schedule family).
type Result struct {
	List       *oplist.List
	Value      rat.Rat
	LowerBound rat.Rat
	Exact      bool
	// Bottleneck describes the operations on the binding (critical) cycle
	// of the schedule when the period is cycle-limited: the chain of
	// computations and communications whose durations sum to the period.
	// Empty when no cycle analysis applies (e.g. Theorem-1 OVERLAP
	// schedules, where the bound is a single server's port or CPU).
	Bottleneck []string
}

// Orders fixes, for every server, the order of its incoming and outgoing
// communications (slices of edge indices into the plan's edge list).
type Orders struct {
	In  [][]int
	Out [][]int
}

// DefaultOrders returns the natural (plan edge order) orders.
func DefaultOrders(w *plan.Weighted) Orders {
	o := Orders{In: make([][]int, w.N()), Out: make([][]int, w.N())}
	for v := 0; v < w.N(); v++ {
		o.In[v] = append([]int(nil), w.InEdges(v)...)
		o.Out[v] = append([]int(nil), w.OutEdges(v)...)
	}
	return o
}

// clone returns a deep copy of the orders.
func (o Orders) clone() Orders {
	c := Orders{In: make([][]int, len(o.In)), Out: make([][]int, len(o.Out))}
	for i := range o.In {
		c.In[i] = append([]int(nil), o.In[i]...)
	}
	for i := range o.Out {
		c.Out[i] = append([]int(nil), o.Out[i]...)
	}
	return c
}

// set copies src into o, reusing o's storage once it has src's shape (all
// orders of one plan do): the order searches keep their best candidate
// this way, one copy per improvement and no allocation after the first.
func (o *Orders) set(src Orders) {
	if len(o.In) != len(src.In) {
		*o = src.clone()
		return
	}
	for i := range src.In {
		copy(o.In[i], src.In[i])
		copy(o.Out[i], src.Out[i])
	}
}

// Operation node numbering inside event graphs: calcs first, then comms.
func calcOp(v int) int                         { return v }
func commOp(w *plan.Weighted, edgeIdx int) int { return w.N() + edgeIdx }

// opCount returns the number of operation nodes for plan w.
func opCount(w *plan.Weighted) int { return w.N() + len(w.Edges()) }

// opDur returns the duration of operation node op.
func opDur(w *plan.Weighted, op int) rat.Rat {
	if op < w.N() {
		return w.Comp(op)
	}
	return w.Vol(op - w.N())
}

// chainEdges adds server v's one-port chain to g: in-comms (in order) →
// calc → out-comms (in order), zero tokens, each edge carrying its source
// operation's duration. An open side (din or dout false) contributes only
// what every permutation implies: each in-comm precedes the calc by its own
// volume, the calc precedes each out-comm by the computation time. It
// returns the first and last operation of the chain, the calc standing in
// for an open or empty side. The one-port latency graph is these chains
// alone; INORDER adds the one-token wraps.
func chainEdges(w *plan.Weighted, g *eventgraph.Graph, v int, o Orders, din, dout bool) (first, last int) {
	calc := calcOp(v)
	first, last = calc, calc
	if din {
		prev := -1
		for _, ei := range o.In[v] {
			op := commOp(w, ei)
			if prev >= 0 {
				g.AddEdge(prev, op, opDur(w, prev), 0)
			} else {
				first = op
			}
			prev = op
		}
		if prev >= 0 {
			g.AddEdge(prev, calc, opDur(w, prev), 0)
		}
	} else {
		for _, ei := range o.In[v] {
			g.AddEdge(commOp(w, ei), calc, w.Vol(ei), 0)
		}
	}
	for _, ei := range o.Out[v] {
		if dout {
			op := commOp(w, ei)
			g.AddEdge(last, op, opDur(w, last), 0)
			last = op
		} else {
			g.AddEdge(calc, commOp(w, ei), w.Comp(v), 0)
		}
	}
	return first, last
}

// decided reports whether server v's side is decided under the search's
// flags; nil flags mark every side decided (a complete assignment).
func decided(flags []bool, v int) bool { return flags == nil || flags[v] }

// listFromTimes assembles an operation list from per-operation begin times.
func listFromTimes(w *plan.Weighted, lambda rat.Rat, begin []rat.Rat) *oplist.List {
	l := oplist.New(w, lambda)
	for v := 0; v < w.N(); v++ {
		l.SetCalc(v, begin[calcOp(v)])
	}
	for idx := range w.Edges() {
		l.SetComm(idx, begin[commOp(w, idx)])
	}
	return l
}

// downstreamWork returns, per node, the heaviest chain of computation and
// communication volume from the node to an output: the priority used by the
// heuristic orders ("critical path first").
func downstreamWork(w *plan.Weighted) []rat.Rat {
	work := make([]rat.Rat, w.N())
	topo := w.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		best := rat.Zero
		for _, ei := range w.OutEdges(v) {
			e := w.Edge(ei)
			t := w.Vol(ei)
			if e.To != plan.Out {
				t = t.Add(work[e.To])
			}
			best = rat.Max(best, t)
		}
		work[v] = w.Comp(v).Add(best)
	}
	return work
}

// heuristicOrderSeeds returns a few deterministic order candidates:
// the natural order and critical-path-driven variants.
func heuristicOrderSeeds(w *plan.Weighted) []Orders {
	natural := DefaultOrders(w)
	work := downstreamWork(w)

	// edgePriority scores an edge by the work still ahead of it.
	edgePriority := func(ei int) rat.Rat {
		e := w.Edge(ei)
		t := w.Vol(ei)
		if e.To >= 0 {
			t = t.Add(work[e.To])
		}
		return t
	}
	critical := natural.clone()
	for v := 0; v < w.N(); v++ {
		sort.SliceStable(critical.Out[v], func(i, j int) bool {
			return edgePriority(critical.Out[v][i]).Greater(edgePriority(critical.Out[v][j]))
		})
		// Receive first from senders that were ready earliest: those with
		// the least upstream work, approximated by the sender's own work
		// being largest downstream (they started sooner on the path).
		sort.SliceStable(critical.In[v], func(i, j int) bool {
			return edgePriority(critical.In[v][i]).Greater(edgePriority(critical.In[v][j]))
		})
	}
	reversed := critical.clone()
	for v := 0; v < w.N(); v++ {
		reverseInts(reversed.In[v])
		reverseInts(reversed.Out[v])
	}
	return []Orders{greedyOrders(w), natural, critical, reversed}
}

// greedyOrders runs an earliest-start-first list scheduler for one data set
// under one-port rules (ties broken toward heavier downstream work) and
// returns the per-server orders it induces. On wide communication phases —
// bipartite shapes like the paper's B.2 example — this seed is far better
// than any static priority order.
func greedyOrders(w *plan.Weighted) Orders {
	work := downstreamWork(w)
	n := w.N()
	serverFree := make([]rat.Rat, n)
	calcEnd := make([]rat.Rat, n)
	calcSched := make([]bool, n)
	insLeft := make([]int, n)
	insMaxEnd := make([]rat.Rat, n)
	commSched := make([]bool, len(w.Edges()))
	commBegin := make([]rat.Rat, len(w.Edges()))
	calcBegin := make([]rat.Rat, n)
	for v := 0; v < n; v++ {
		insLeft[v] = len(w.InEdges(v))
	}

	priority := func(isCalc bool, id int) rat.Rat {
		if isCalc {
			return work[id]
		}
		e := w.Edge(id)
		p := w.Vol(id)
		if e.To >= 0 {
			p = p.Add(work[e.To])
		}
		return p
	}

	total := n + len(w.Edges())
	for scheduled := 0; scheduled < total; scheduled++ {
		bestSet := false
		var bestStart, bestPrio rat.Rat
		bestIsCalc := false
		bestID := -1
		consider := func(isCalc bool, id int, start rat.Rat) {
			p := priority(isCalc, id)
			if !bestSet || start.Less(bestStart) ||
				(start.Equal(bestStart) && p.Greater(bestPrio)) {
				bestSet, bestStart, bestPrio, bestIsCalc, bestID = true, start, p, isCalc, id
			}
		}
		for v := 0; v < n; v++ {
			if !calcSched[v] && insLeft[v] == 0 {
				consider(true, v, rat.Max(insMaxEnd[v], serverFree[v]))
			}
		}
		for ei, e := range w.Edges() {
			if commSched[ei] {
				continue
			}
			start := rat.Zero
			if e.From >= 0 {
				if !calcSched[e.From] {
					continue
				}
				start = rat.Max(calcEnd[e.From], serverFree[e.From])
			}
			if e.To >= 0 {
				start = rat.Max(start, serverFree[e.To])
			}
			consider(false, ei, start)
		}
		if !bestSet {
			// Cannot happen on a valid plan; fall back to natural orders.
			return DefaultOrders(w)
		}
		if bestIsCalc {
			calcSched[bestID] = true
			calcBegin[bestID] = bestStart
			calcEnd[bestID] = bestStart.Add(w.Comp(bestID))
			serverFree[bestID] = calcEnd[bestID]
		} else {
			commSched[bestID] = true
			commBegin[bestID] = bestStart
			end := bestStart.Add(w.Vol(bestID))
			e := w.Edge(bestID)
			if e.From >= 0 {
				serverFree[e.From] = rat.Max(serverFree[e.From], end)
			}
			if e.To >= 0 {
				serverFree[e.To] = rat.Max(serverFree[e.To], end)
				insLeft[e.To]--
				insMaxEnd[e.To] = rat.Max(insMaxEnd[e.To], end)
			}
		}
	}
	orders := DefaultOrders(w)
	byBegin := func(s []int) {
		sort.SliceStable(s, func(i, j int) bool {
			return commBegin[s[i]].Less(commBegin[s[j]])
		})
	}
	for v := 0; v < n; v++ {
		byBegin(orders.In[v])
		byBegin(orders.Out[v])
	}
	return orders
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// orderCombinations counts Π (ins! · outs!) over servers, capping at limit.
func orderCombinations(w *plan.Weighted, limit int) int {
	total := 1
	for v := 0; v < w.N(); v++ {
		total *= factorialCapped(len(w.InEdges(v)), limit)
		if total > limit {
			return limit + 1
		}
		total *= factorialCapped(len(w.OutEdges(v)), limit)
		if total > limit {
			return limit + 1
		}
	}
	return total
}

func factorialCapped(n, limit int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
		if f > limit {
			return limit + 1
		}
	}
	return f
}

// permute enumerates permutations of s[k:] in place (Heap-style recursion),
// calling fn for each; fn returns false to stop early. The slice is
// restored to its entry order before returning.
func permute(s []int, k int, fn func() bool) bool {
	if k == len(s) {
		return fn()
	}
	for i := k; i < len(s); i++ {
		s[k], s[i] = s[i], s[k]
		if !permute(s, k+1, fn) {
			s[k], s[i] = s[i], s[k]
			return false
		}
		s[k], s[i] = s[i], s[k]
	}
	return true
}

// OrderCombinations counts the order assignments of w — the product of
// ins!·outs! over servers — capping at limit (limit+1 is returned beyond
// it). The search compares it against Options.MaxExhaustive to pick the
// exact or the heuristic path; the experiment harness reports it as the
// flat product the pruned search avoids scoring.
func OrderCombinations(w *plan.Weighted, limit int) int {
	return orderCombinations(w, limit)
}
