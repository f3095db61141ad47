package orchestrate

import (
	"fmt"
	"slices"

	"repro/internal/eventgraph"
	"repro/internal/oplist"
	"repro/internal/plan"
	"repro/internal/rat"
)

// OverlapPeriod orchestrates the OVERLAP period by Theorem 1: λ = max_k
// Cexec(k), always optimal, hence Exact.
func OverlapPeriod(w *plan.Weighted) (Result, error) {
	return scoreOverlapPeriod(w).Materialise(w)
}

// scoreOverlapPeriod is the scoring form of Theorem 1: the per-server
// bound is the optimal period, no schedule needed to know it.
func scoreOverlapPeriod(w *plan.Weighted) Score {
	lambda := w.PeriodLowerBound(plan.Overlap)
	if lambda.Sign() == 0 {
		lambda = rat.One // degenerate all-zero plan; any positive period works
	}
	return Score{Value: lambda, LowerBound: lambda, Exact: true, build: theorem1}
}

// overlapPeriodList builds the Theorem-1 operation list at period λ: every
// communication stretched to duration λ (ratio volume/λ ≤ 1 by definition
// of the bound) and data set 0 traversing the graph greedily.
func overlapPeriodList(w *plan.Weighted, lambda rat.Rat) (*oplist.List, error) {
	l := oplist.New(w, lambda)
	for idx, e := range w.Edges() {
		if e.From == plan.In {
			l.SetCommStretched(idx, rat.Zero, lambda)
		}
	}
	for _, v := range w.Topo() {
		// ready = completion time of all of v's incoming communications.
		ready := rat.Zero
		for _, idx := range w.InEdges(v) {
			ready = rat.Max(ready, l.CommEnd(idx))
		}
		l.SetCalc(v, ready)
		done := ready.Add(w.Comp(v))
		for _, idx := range w.OutEdges(v) {
			l.SetCommStretched(idx, done, done.Add(lambda))
		}
	}
	if err := l.Validate(plan.Overlap); err != nil {
		return nil, fmt.Errorf("orchestrate: Theorem-1 construction invalid: %w", err)
	}
	return l, nil
}

// solvePeriodGraph returns the earliest schedule of g at its period — one
// MaximumCycleRatio call under graphLambda's rule — and the labels of that
// call's critical cycle: the schedule's bottleneck, nil when no cycle
// attains the period (g has no cycle, or its ratio is 0 and the period 1).
func solvePeriodGraph(w *plan.Weighted, g *eventgraph.Graph) (*oplist.List, []string, error) {
	res, err := g.MaximumCycleRatio()
	lambda, err := graphLambda(res.Ratio, err)
	if err != nil {
		return nil, nil, err
	}
	pi, err := g.Potentials(lambda)
	if err != nil {
		return nil, nil, err
	}
	var labels []string
	if res.Ratio.Equal(lambda) {
		labels = describeCycle(w, g, res.CriticalCycle)
	}
	return listFromTimes(w, lambda, pi), labels, nil
}

// describeCycle renders the operations visited by a critical cycle.
func describeCycle(w *plan.Weighted, g *eventgraph.Graph, cycle []int) []string {
	edges := g.Edges()
	out := make([]string, 0, len(cycle))
	for _, ei := range cycle {
		out = append(out, opLabel(w, edges[ei].From))
	}
	return out
}

// opLabel names an event-graph operation node.
func opLabel(w *plan.Weighted, op int) string {
	if op < w.N() {
		return "calc(" + w.Name(op) + ")"
	}
	e := w.Edge(op - w.N())
	from, to := w.Name(0), w.Name(0)
	switch {
	case e.From == plan.In:
		from = "in"
	case e.From >= 0:
		from = w.Name(e.From)
	}
	switch {
	case e.To == plan.Out:
		to = "out"
	case e.To >= 0:
		to = w.Name(e.To)
	}
	return "comm(" + from + "->" + to + ")"
}

// InOrderPeriodWithOrders returns the optimal INORDER operation list for
// the given fixed orders: the exact maximum-cycle-ratio period.
func InOrderPeriodWithOrders(w *plan.Weighted, orders Orders) (*oplist.List, error) {
	l, _, err := newInOrderEval(w).list(orders)
	return l, err
}

// graphLambda is the one degenerate-period rule, applied to a maximum
// cycle ratio query's outcome: the period is the ratio, 1 when the ratio is
// 0 or the graph has no cycle (no cyclic constraint: any period works), and
// the error otherwise.
func graphLambda(ratio rat.Rat, err error) (rat.Rat, error) {
	switch err {
	case nil:
		if ratio.Sign() == 0 {
			return rat.One, nil
		}
		return ratio, nil
	case eventgraph.ErrNoCycle:
		return rat.One, nil
	default:
		return rat.Zero, err
	}
}

// inOrderEval is the INORDER order-search evaluator and the one encoding
// of the INORDER event graph: the value of an assignment is the maximum
// cycle ratio of its graph, computed on a reused graph, and list
// materializes the winning orders (potentials + validation) from the same
// graph once the search is over.
type inOrderEval struct {
	w     *plan.Weighted
	g     *eventgraph.Graph
	arcs  graphArcs // chainEdges' sink: g
	pi    []rat.Rat
	cexec []rat.Rat // per-server one-port execution time (Cin+comp+Cout)
	fl    rat.Rat
}

func newInOrderEval(w *plan.Weighted) *inOrderEval {
	g := eventgraph.New(opCount(w))
	e := &inOrderEval{
		w:     w,
		g:     g,
		arcs:  graphArcs{w: w, g: g},
		cexec: make([]rat.Rat, w.N()),
		fl:    w.PeriodLowerBound(plan.InOrder),
	}
	for v := 0; v < w.N(); v++ {
		e.cexec[v] = w.Cexec(v, plan.InOrder)
	}
	return e
}

func (e *inOrderEval) floor() rat.Rat { return e.fl }

// build fills the scratch graph with the INORDER constraints of a partial
// assignment (nil decided flags: every side decided). Per server, the
// one-port chain (chainEdges) — exact on decided sides, only what every
// completion implies on open ones — plus wrap edges: every possible last
// operation reaches every possible first operation of the next data set
// (one token, at least the last operation's own duration), which with both
// sides decided is the single wrap of constraint (1) of Appendix A.
// Communications appear in both endpoint servers' chains, which realizes
// the synchronous rendezvous. A server with an open side also gets a calc
// self-loop (one token, delay Cexec): its full cycle carries that floor
// whatever the orders. Once both sides are decided the server cycle itself
// carries it, so the self-loop is left out.
func (e *inOrderEval) build(o Orders, decidedIn, decidedOut []bool) {
	e.g.Reset(opCount(e.w))
	for v := 0; v < e.w.N(); v++ {
		e.serverEdges(v, o, decided(decidedIn, v), decided(decidedOut, v))
	}
}

// serverEdges adds server v's INORDER constraints (see build) to the
// scratch graph.
func (e *inOrderEval) serverEdges(v int, o Orders, din, dout bool) {
	w, g := e.w, e.g
	first, last := chainEdges(w, &e.arcs, v, o, din, dout)
	ins, outs := o.In[v], o.Out[v]
	switch {
	case dout && din:
		g.AddEdge(last, first, opDur(w, last), 1)
		return // the server cycle carries the Cexec floor: no self-loop
	case dout:
		for _, fi := range ins {
			g.AddEdge(last, commOp(w, fi), opDur(w, last), 1)
		}
	case din:
		for _, li := range outs {
			g.AddEdge(commOp(w, li), first, w.Vol(li), 1)
		}
	default:
		for _, li := range outs {
			for _, fi := range ins {
				g.AddEdge(commOp(w, li), commOp(w, fi), w.Vol(li), 1)
			}
		}
	}
	g.AddEdge(calcOp(v), calcOp(v), e.cexec[v], 1)
}

func (e *inOrderEval) value(o Orders) (rat.Rat, error) {
	e.build(o, nil, nil)
	return graphLambda(e.g.MaxCycleRatio())
}

// list materializes the INORDER schedule of complete orders o and its
// bottleneck labels from the graph value scores.
func (e *inOrderEval) list(o Orders) (*oplist.List, []string, error) {
	e.build(o, nil, nil)
	l, labels, err := solvePeriodGraph(e.w, e.g)
	if err != nil {
		return nil, nil, err
	}
	if err := l.Validate(plan.InOrder); err != nil {
		return nil, nil, fmt.Errorf("orchestrate: INORDER construction invalid: %w", err)
	}
	return l, labels, nil
}

// exceeds prunes a partial assignment when even its relaxed event graph —
// every edge of which is implied by every completion — admits no period of
// at most limit: the maximum cycle ratio of each completion is then
// strictly above limit too. The feasibility check is one longest-path
// relaxation at limit (no MCR needed), and a relaxed deadlock means every
// completion deadlocks.
func (e *inOrderEval) exceeds(o Orders, decidedIn, decidedOut []bool, limit rat.Rat) bool {
	e.build(o, decidedIn, decidedOut)
	pi, err := e.g.PotentialsInto(e.pi, limit)
	if pi != nil {
		e.pi = pi
	}
	return err != nil
}

// InOrderPeriod searches receive/send orders for the best INORDER period.
// Exact reports whether the whole order space was covered — flat product
// scoring replaced by the pruned prefix search of search.go, which
// preserves the optimum and the returned schedule (the optimum over the
// INORDER schedule family); the general problem is NP-hard (paper
// Prop. 3).
func InOrderPeriod(w *plan.Weighted, opts Options) (Result, error) {
	s, err := scoreInOrderPeriod(w, opts, NoLimit)
	return materialised(s, err, w)
}

func scoreInOrderPeriod(w *plan.Weighted, opts Options, limit Limit) (Score, error) {
	return searchOrders(w, opts, newInOrderEval(w), inOrderCycle, limit)
}

// generations returns per-node pipeline stages: the hop-length of the
// longest path from the node to an exit, plus the per-edge generation of
// every communication (its sender's stage; one more for input comms).
func generations(w *plan.Weighted) (gen []int, commGen []int) {
	gen = make([]int, w.N())
	topo := w.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		g := 0
		for _, ei := range w.OutEdges(v) {
			if to := w.Edge(ei).To; to >= 0 && gen[to]+1 > g {
				g = gen[to] + 1
			}
		}
		gen[v] = g
	}
	commGen = make([]int, len(w.Edges()))
	for ei, e := range w.Edges() {
		if e.From >= 0 {
			commGen[ei] = gen[e.From]
		} else {
			commGen[ei] = gen[e.To] + 1
		}
	}
	return gen, commGen
}

// outOrderEval is the OUTORDER order-search evaluator and the one encoding
// of the pipelined template: the value of an assignment is the better of
// its INORDER period and its pipelined-template period (an INORDER list is
// always OUTORDER-valid), each an MCR on a reused event graph; list
// materializes the winning orders from the same two graphs once the search
// is over.
type outOrderEval struct {
	ino     *inOrderEval
	g       *eventgraph.Graph // pipelined-template scratch
	pi      []rat.Rat
	gen     []int
	commGen []int
	fl      rat.Rat
}

func newOutOrderEval(w *plan.Weighted) *outOrderEval {
	e := &outOrderEval{
		ino: newInOrderEval(w),
		g:   eventgraph.New(opCount(w)),
		fl:  w.PeriodLowerBound(plan.OutOrder),
	}
	e.gen, e.commGen = generations(w)
	return e
}

func (e *outOrderEval) floor() rat.Rat { return e.fl }

// build fills the pipelined scratch graph for a partial assignment (nil
// decided flags: every side decided). The software-pipelined template
// (receive data set n while computing n−1 and sending n−2) is encoded in
// generation-shifted time: each operation is retimed by its pipeline stage
// (gen, commGen), so that on every server the residue cycle "out-comms,
// calc (one token before it), in-comms, wrap" carries exactly one token
// while data precedence carries the stage differences. Per server, the
// residue cycle contributes its exact edges on decided sides; open sides
// contribute the constraints every permutation implies: each out-comm
// reaches the calc through the single wrap token carrying at least its own
// volume, the calc precedes each in-comm by the computation time, each
// in-comm reaches the first out-comm tokenlessly with at least its own
// volume — and, while a side is open, a calc self-loop keeps the residue
// cycle's floor (one token, total delay Cexec whatever the orders). The
// data-precedence edges, emitted last, do not depend on the orders and are
// exact in every completion.
func (e *outOrderEval) build(o Orders, decidedIn, decidedOut []bool) {
	w := e.ino.w
	e.g.Reset(opCount(w))
	for v := 0; v < w.N(); v++ {
		e.residueEdges(v, o, decided(decidedIn, v), decided(decidedOut, v))
	}
	// Data precedence: calc(u) → comm carries no tokens (same stage);
	// comm → calc(v) carries the stage difference ≥ 1.
	for ei, ed := range w.Edges() {
		if ed.From >= 0 {
			e.g.AddEdge(calcOp(ed.From), commOp(w, ei), w.Comp(ed.From), 0)
		}
		if ed.To >= 0 {
			e.g.AddEdge(commOp(w, ei), calcOp(ed.To), w.Vol(ei), e.commGen[ei]-e.gen[ed.To])
		}
	}
}

// residueEdges adds server v's residue-cycle constraints (see build) to the
// pipelined scratch graph.
func (e *outOrderEval) residueEdges(v int, o Orders, din, dout bool) {
	w, g := e.ino.w, e.g
	calc := calcOp(v)
	ins, outs := o.In[v], o.Out[v]
	firstOut := -1
	if dout {
		if len(outs) > 0 {
			firstOut = commOp(w, outs[0])
			prev := -1
			for _, ei := range outs {
				op := commOp(w, ei)
				if prev >= 0 {
					g.AddEdge(prev, op, opDur(w, prev), 0)
				}
				prev = op
			}
			g.AddEdge(prev, calc, opDur(w, prev), 1)
		}
	} else {
		for _, ei := range outs {
			g.AddEdge(commOp(w, ei), calc, w.Vol(ei), 1)
		}
	}
	// wrapTo closes the residue cycle from the last in-side operation
	// toward the out-comms (token 0) — toward each possible first
	// out-comm when the out side is open.
	wrapTo := func(from int, delay rat.Rat) {
		switch {
		case firstOut >= 0:
			g.AddEdge(from, firstOut, delay, 0)
		case dout: // no out-comms: the residue wraps straight to calc
			g.AddEdge(from, calc, delay, 0)
		default:
			for _, ei := range outs {
				g.AddEdge(from, commOp(w, ei), delay, 0)
			}
		}
	}
	if din {
		prev := calc
		for _, ei := range ins {
			op := commOp(w, ei)
			g.AddEdge(prev, op, opDur(w, prev), 0)
			prev = op
		}
		wrapTo(prev, opDur(w, prev))
	} else {
		for _, ei := range ins {
			g.AddEdge(calc, commOp(w, ei), w.Comp(v), 0)
			wrapTo(commOp(w, ei), w.Vol(ei))
		}
	}
	if !din || !dout {
		g.AddEdge(calc, calc, e.ino.cexec[v], 1)
	}
}

func (e *outOrderEval) value(o Orders) (rat.Rat, error) {
	inoVal, inoErr := e.ino.value(o)
	e.build(o, nil, nil)
	pipVal, pipErr := graphLambda(e.g.MaxCycleRatio())
	switch {
	case inoErr != nil && pipErr != nil:
		return rat.Zero, fmt.Errorf("orchestrate: no OUTORDER schedule for these orders (inorder: %v, pipelined: %v)", inoErr, pipErr)
	case inoErr != nil:
		return pipVal, nil
	case pipErr != nil:
		return inoVal, nil
	default:
		return rat.Min(pipVal, inoVal), nil
	}
}

// list materializes the OUTORDER schedule of complete orders o and its
// bottleneck labels from the template whose period value returned, solved
// on the graph value scored: the pipelined one when its period is strictly
// below the INORDER one, else the INORDER list. The pipelined graph is
// solved in generation-shifted time (see build): begin times are recovered
// by b = π + λ·(maxStage − stage).
func (e *outOrderEval) list(o Orders) (*oplist.List, []string, error) {
	w := e.ino.w
	inorder, inLabels, inErr := e.ino.list(o)
	e.build(o, nil, nil)
	shifted, labels, err := solvePeriodGraph(w, e.g)
	switch {
	case err != nil && inErr != nil:
		return nil, nil, fmt.Errorf("orchestrate: no OUTORDER schedule for these orders (inorder: %v, pipelined: %v)", inErr, err)
	case err != nil || inErr == nil && !shifted.Lambda().Less(inorder.Lambda()):
		return inorder, inLabels, nil
	}
	lambda, maxStage := shifted.Lambda(), max(slices.Max(e.gen), slices.Max(e.commGen))
	pipelined := oplist.New(w, lambda)
	for v := 0; v < w.N(); v++ {
		pipelined.SetCalc(v, shifted.CalcBegin(v).Add(lambda.MulInt(int64(maxStage-e.gen[v]))))
	}
	for ei := range w.Edges() {
		pipelined.SetComm(ei, shifted.CommBegin(ei).Add(lambda.MulInt(int64(maxStage-e.commGen[ei]))))
	}
	if err := pipelined.Validate(plan.OutOrder); err != nil {
		return nil, nil, fmt.Errorf("orchestrate: pipelined construction invalid: %w", err)
	}
	return pipelined, labels, nil
}

// exceeds prunes a partial assignment only when BOTH templates rule the
// limit out: the OUTORDER value is the minimum of the two, so the bound
// must hold for whichever branch a completion ends up taking.
func (e *outOrderEval) exceeds(o Orders, decidedIn, decidedOut []bool, limit rat.Rat) bool {
	if !e.ino.exceeds(o, decidedIn, decidedOut, limit) {
		return false
	}
	e.build(o, decidedIn, decidedOut)
	pi, err := e.g.PotentialsInto(e.pi, limit)
	if pi != nil {
		e.pi = pi
	}
	return err != nil
}

// OutOrderPeriod searches orders for the best OUTORDER period found. The
// schedule family (per-server pipelined residue orders) does not cover
// every conceivable OUTORDER schedule, so Exact refers to the family; the
// general problem is NP-hard (paper Prop. 2).
func OutOrderPeriod(w *plan.Weighted, opts Options) (Result, error) {
	s, err := scoreOutOrderPeriod(w, opts, NoLimit)
	return materialised(s, err, w)
}

func scoreOutOrderPeriod(w *plan.Weighted, opts Options, limit Limit) (Score, error) {
	return searchOrders(w, opts, newOutOrderEval(w), outOrderCycle, limit)
}
