package orchestrate

import (
	"fmt"

	"repro/internal/eventgraph"
	"repro/internal/oplist"
	"repro/internal/plan"
	"repro/internal/rat"
)

// OnePortLatencyWithOrders computes the single-data-set schedule induced by
// fixed per-server orders under one-port communications: the begin times
// are the longest paths of the order-induced DAG. It fails when the orders
// deadlock (cross-server circular wait).
func OnePortLatencyWithOrders(w *plan.Weighted, orders Orders) (*oplist.List, error) {
	g := eventgraph.New(opCount(w))
	for v := 0; v < w.N(); v++ {
		seq := serverSequence(w, orders, v)
		for i := 0; i+1 < len(seq); i++ {
			g.AddEdge(seq[i], seq[i+1], opDur(w, seq[i]), 0)
		}
	}
	pi, err := g.Potentials(rat.One) // tokens are all 0: period-independent
	if err != nil {
		return nil, fmt.Errorf("orchestrate: orders deadlock: %w", err)
	}
	l := listFromTimes(w, rat.One, pi)
	lat := l.Latency()
	if lat.Sign() == 0 {
		lat = rat.One
	}
	l.SetLambda(lat)
	return l, nil
}

// onePortEval is the latency order-search evaluator: the value of an
// assignment is the longest path of the order-induced DAG, computed on a
// reused event graph and begin-time buffer; OnePortLatencyWithOrders
// materializes the winning orders once the search is over.
type onePortEval struct {
	w  *plan.Weighted
	g  *eventgraph.Graph
	pi []rat.Rat
	fl rat.Rat
}

func newOnePortEval(w *plan.Weighted) orderEval {
	return &onePortEval{w: w, g: eventgraph.New(opCount(w)), fl: w.LatencyPathBound()}
}

func (e *onePortEval) floor() rat.Rat { return e.fl }

// build fills the scratch graph with the one-port precedence constraints:
// exact per-server chains for decided sides, and for open sides only the
// constraints every permutation implies (each in-comm precedes the
// computation by its own volume, the computation precedes each out-comm by
// the computation time). With all sides decided the graph is exactly the
// one OnePortLatencyWithOrders solves.
func (e *onePortEval) build(o Orders, decidedIn, decidedOut []bool) {
	e.g.Reset(opCount(e.w))
	for v := 0; v < e.w.N(); v++ {
		din := decidedIn == nil || decidedIn[v]
		dout := decidedOut == nil || decidedOut[v]
		e.serverEdges(v, o, din, dout)
	}
}

// serverEdges adds server v's one-port precedence constraints (see build)
// to the scratch graph.
func (e *onePortEval) serverEdges(v int, o Orders, din, dout bool) {
	w, g := e.w, e.g
	calc := calcOp(v)
	if din {
		prev := -1
		for _, ei := range o.In[v] {
			op := commOp(w, ei)
			if prev >= 0 {
				g.AddEdge(prev, op, opDur(w, prev), 0)
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
	if dout {
		prev := calc
		for _, ei := range o.Out[v] {
			op := commOp(w, ei)
			g.AddEdge(prev, op, opDur(w, prev), 0)
			prev = op
		}
	} else {
		for _, ei := range o.Out[v] {
			g.AddEdge(calc, commOp(w, ei), w.Comp(v), 0)
		}
	}
}

// latency runs the longest-path relaxation on the current scratch graph
// and returns the latest communication end — List.Latency of the induced
// schedule. The error is the deadlock of the (partial) orders.
func (e *onePortEval) latency() (rat.Rat, error) {
	pi, err := e.g.PotentialsInto(e.pi, rat.One) // tokens all 0: period-independent
	if pi != nil {
		e.pi = pi
	}
	if err != nil {
		return rat.Zero, err
	}
	lat := rat.Zero
	for ei := range e.w.Edges() {
		lat = rat.Max(lat, pi[commOp(e.w, ei)].Add(e.w.Vol(ei)))
	}
	return lat, nil
}

func (e *onePortEval) value(o Orders) (rat.Rat, error) {
	e.build(o, nil, nil)
	return e.latency()
}

// exceeds bounds all completions of the partial assignment: decided sides
// contribute their exact chains, open sides only implied constraints, so
// the relaxed longest path is a lower bound on every completion's latency
// (a relaxed deadlock is a deadlock of every completion — the open-side
// edges are implied by each of them).
func (e *onePortEval) exceeds(o Orders, decidedIn, decidedOut []bool, limit rat.Rat) bool {
	e.build(o, decidedIn, decidedOut)
	lb, err := e.latency()
	if err != nil {
		return true // every completion deadlocks
	}
	return lb.Greater(limit)
}

// OnePortLatency searches per-server orders for the minimal one-port
// latency. The search is exact (over all schedules, since any valid
// one-port single-data-set schedule induces such orders) when the
// combination count fits the exhaustive budget. Applies to both INORDER
// and OUTORDER, which coincide for latency (paper §2.2).
func OnePortLatency(w *plan.Weighted, opts Options) (Result, error) {
	s, err := scoreOnePortLatency(w, opts)
	return materialised(s, err, w)
}

func scoreOnePortLatency(w *plan.Weighted, opts Options) (Score, error) {
	return searchOrders(w, opts, newOnePortEval(w),
		w.LatencyPathBound(), onePortPaths)
}

// OverlapLatencyShared builds the bandwidth-sharing multi-port schedule:
// every communication leaving a node starts as soon as the node finishes
// computing and is stretched to duration max(volume, Cout(sender),
// Cin(receiver)). The per-port ratio sums are then ≤ 1 by construction
// (each ratio is at most vol/Cout resp. vol/Cin), so the schedule is always
// valid; on wide bipartite graphs such as the paper's B.2 example it beats
// every one-port schedule.
func OverlapLatencyShared(w *plan.Weighted) (*oplist.List, error) {
	l := oplist.New(w, rat.One)
	lat := sharedSweep(w, l)
	if lat.Sign() == 0 {
		lat = rat.One
	}
	l.SetLambda(lat)
	if err := l.Validate(plan.Overlap); err != nil {
		return nil, fmt.Errorf("orchestrate: shared-bandwidth construction invalid: %w", err)
	}
	return l, nil
}

// sharedSweep runs the bandwidth-sharing construction in topological order
// and returns its latency (the latest communication end). With l == nil it
// is the scoring form — communication ends only; otherwise it also records
// every begin and end time in l.
func sharedSweep(w *plan.Weighted, l *oplist.List) rat.Rat {
	commEnd := make([]rat.Rat, len(w.Edges()))
	lat := rat.Zero
	setComm := func(idx int, begin, end rat.Rat) {
		commEnd[idx] = end
		lat = rat.Max(lat, end)
		if l != nil {
			l.SetCommStretched(idx, begin, end)
		}
	}
	// Input communications: start at 0.
	for idx, e := range w.Edges() {
		if e.From == plan.In {
			setComm(idx, rat.Zero, rat.Max(w.Vol(idx), w.Cin(e.To)))
		}
	}
	for _, v := range w.Topo() {
		begin := rat.Zero
		for _, idx := range w.InEdges(v) {
			begin = rat.Max(begin, commEnd[idx])
		}
		if l != nil {
			l.SetCalc(v, begin)
		}
		done := begin.Add(w.Comp(v))
		cout := w.Cout(v)
		for _, idx := range w.OutEdges(v) {
			dur := rat.Max(w.Vol(idx), cout)
			if to := w.Edge(idx).To; to >= 0 {
				dur = rat.Max(dur, w.Cin(to))
			}
			setComm(idx, done, done.Add(dur))
		}
	}
	return lat
}

// OverlapLatency returns the better of the bandwidth-sharing multi-port
// schedule and the best one-port schedule (one-port lists are OVERLAP-valid
// as-is). Computing the true multi-port optimum is NP-hard (paper Prop. 11).
func OverlapLatency(w *plan.Weighted, opts Options) (Result, error) {
	s, err := scoreOverlapLatency(w, opts)
	return materialised(s, err, w)
}

func scoreOverlapLatency(w *plan.Weighted, opts Options) (Score, error) {
	onePort, err := scoreOnePortLatency(w, opts)
	shared := Score{Value: sharedSweep(w, nil), LowerBound: w.LatencyPathBound(), build: sharedBandwidth}
	if err != nil || shared.Value.Less(onePort.Value) {
		return shared, nil
	}
	return onePort, nil
}

// TreeLatency computes the optimal one-port latency schedule for a
// forest-shaped weighted plan (every node has exactly one incoming
// communication): Algorithm 1 of the paper, generalized to arbitrary
// per-edge volumes. Children are fed in non-increasing order of their
// remaining completion time, which an exchange argument shows optimal. The
// returned schedule is valid under all three models.
func TreeLatency(w *plan.Weighted) (Result, error) {
	s, err := scoreTreeLatency(w)
	return materialised(s, err, w)
}

// scoreTreeLatency is the rest[] recurrence of Algorithm 1: bottom-up, the
// time from the end of a node's incoming communication to the completion
// of everything below it, feeding children by non-increasing remaining
// time. The chosen feeding orders are the score's Orders.Out.
func scoreTreeLatency(w *plan.Weighted) (Score, error) {
	for v := 0; v < w.N(); v++ {
		if len(w.InEdges(v)) != 1 {
			return Score{}, fmt.Errorf("orchestrate: node %s has %d incoming communications; TreeLatency requires a forest", w.Name(v), len(w.InEdges(v)))
		}
	}
	// rest[v] = time from the end of v's incoming communication to the
	// completion of everything below v (including output communications).
	rest := make([]rat.Rat, w.N())
	order := make([][]int, w.N()) // chosen out-edge order per node
	flat := make([]int, 0, len(w.Edges()))
	childRest := func(ei int) rat.Rat {
		if to := w.Edge(ei).To; to >= 0 {
			return rest[to]
		}
		return rat.Zero
	}
	topo := w.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		// Stable insertion sort by non-increasing remaining time.
		start := len(flat)
		for _, ei := range w.OutEdges(v) {
			flat = append(flat, ei)
			for j := len(flat) - 1; j > start && childRest(flat[j]).Greater(childRest(flat[j-1])); j-- {
				flat[j], flat[j-1] = flat[j-1], flat[j]
			}
		}
		order[v] = flat[start:len(flat):len(flat)]
		prefix := rat.Zero
		worst := rat.Zero
		for _, ei := range order[v] {
			prefix = prefix.Add(w.Vol(ei))
			worst = rat.Max(worst, prefix.Add(childRest(ei)))
		}
		rest[v] = w.Comp(v).Add(worst)
	}
	latency := rat.Zero
	for v := 0; v < w.N(); v++ {
		if in := w.InEdges(v)[0]; w.Edge(in).From == plan.In {
			latency = rat.Max(latency, w.Vol(in).Add(rest[v]))
		}
	}
	return Score{Value: latency, LowerBound: w.LatencyPathBound(), Exact: true, Orders: Orders{Out: order}, build: treeSchedule}, nil
}

// treeLatencyList builds the Algorithm-1 schedule from the chosen feeding
// orders: every root's input communication starts at 0 and each node sends
// to its children back to back in the given order.
func treeLatencyList(w *plan.Weighted, order [][]int) *oplist.List {
	l := oplist.New(w, rat.One)
	var schedule func(v int, calcBegin rat.Rat)
	schedule = func(v int, calcBegin rat.Rat) {
		l.SetCalc(v, calcBegin)
		t := calcBegin.Add(w.Comp(v))
		for _, ei := range order[v] {
			l.SetComm(ei, t)
			t = t.Add(w.Vol(ei))
			if to := w.Edge(ei).To; to >= 0 {
				schedule(to, t)
			}
		}
	}
	for v := 0; v < w.N(); v++ {
		in := w.InEdges(v)[0]
		if w.Edge(in).From != plan.In {
			continue // not a root
		}
		l.SetComm(in, rat.Zero)
		schedule(v, w.Vol(in))
	}
	if lat := l.Latency(); lat.Sign() != 0 {
		l.SetLambda(lat)
	}
	return l
}

func isForestShaped(w *plan.Weighted) bool {
	for v := 0; v < w.N(); v++ {
		if len(w.InEdges(v)) != 1 {
			return false
		}
	}
	return true
}
