package orchestrate

import (
	"fmt"
	"sort"

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

// buildInOrderGraph encodes the INORDER semantics for fixed orders as a
// timed event graph: per server, the chain in-comms → calc → out-comms with
// zero tokens and a one-token wrap edge from the last operation back to the
// first (constraint (1) of Appendix A). Communications appear in both
// endpoint servers' chains, which realizes the synchronous rendezvous.
func buildInOrderGraph(w *plan.Weighted, orders Orders) *eventgraph.Graph {
	g := eventgraph.New(opCount(w))
	for v := 0; v < w.N(); v++ {
		seq := serverSequence(w, orders, v)
		for i := 0; i+1 < len(seq); i++ {
			g.AddEdge(seq[i], seq[i+1], opDur(w, seq[i]), 0)
		}
		last := seq[len(seq)-1]
		g.AddEdge(last, seq[0], opDur(w, last), 1)
	}
	return g
}

// solvePeriodGraph computes the MCR of g and the earliest schedule at that
// period, returning the operation list and the critical cycle as
// human-readable operation labels.
func solvePeriodGraph(w *plan.Weighted, g *eventgraph.Graph) (rat.Rat, *oplist.List, []string, error) {
	res, err := g.MaximumCycleRatio()
	lambda := rat.One
	var critical []string
	switch err {
	case nil:
		lambda = res.Ratio
		if lambda.Sign() == 0 {
			lambda = rat.One
		}
		critical = describeCycle(w, g, res.CriticalCycle)
	case eventgraph.ErrNoCycle:
		// No cyclic constraint: any period works; keep 1.
	default:
		return rat.Zero, nil, nil, err
	}
	pi, err := g.Potentials(lambda)
	if err != nil {
		return rat.Zero, nil, nil, err
	}
	return lambda, listFromTimes(w, lambda, pi), critical, nil
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
	_, l, _, err := solvePeriodGraph(w, buildInOrderGraph(w, orders))
	if err != nil {
		return nil, err
	}
	if err := l.Validate(plan.InOrder); err != nil {
		return nil, fmt.Errorf("orchestrate: INORDER construction invalid: %w", err)
	}
	return l, nil
}

// extractOrders reads the per-server receive/send orders realized by an
// operation list (sorting each side by communication begin time).
func extractOrders(l *oplist.List) Orders {
	w := l.Plan()
	orders := DefaultOrders(w)
	byBegin := func(s []int) {
		sort.SliceStable(s, func(i, j int) bool {
			return l.CommBegin(s[i]).Less(l.CommBegin(s[j]))
		})
	}
	for v := 0; v < w.N(); v++ {
		byBegin(orders.In[v])
		byBegin(orders.Out[v])
	}
	return orders
}

// InOrderBottleneck identifies the critical cycle binding an INORDER
// schedule's period: the sequence of operations whose durations sum to
// exactly λ times the number of data-set wraps on the cycle. Returns nil
// when the schedule's period is not the cycle optimum for its own orders
// (e.g. a schedule with deliberate slack).
func InOrderBottleneck(l *oplist.List) []string {
	g := buildInOrderGraph(l.Plan(), extractOrders(l))
	res, err := g.MaximumCycleRatio()
	if err != nil || !res.Ratio.Equal(l.Lambda()) {
		return nil
	}
	return describeCycle(l.Plan(), g, res.CriticalCycle)
}

// graphLambda maps an MCR outcome to the schedule period the way
// solvePeriodGraph does: the exact ratio (1 for degenerate all-zero
// cycles), 1 when no cyclic constraint exists, and the error otherwise.
func graphLambda(g *eventgraph.Graph) (rat.Rat, error) {
	ratio, err := g.MaxCycleRatio()
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

// inOrderEval is the INORDER order-search evaluator: the value of an
// assignment is the maximum cycle ratio of its event graph, computed on a
// reused graph; InOrderPeriodWithOrders materializes the winning orders
// (potentials + validation) once the search is over.
type inOrderEval struct {
	w     *plan.Weighted
	g     *eventgraph.Graph
	pi    []rat.Rat
	cexec []rat.Rat // per-server one-port execution time (Cin+comp+Cout)
	fl    rat.Rat
}

func newInOrderEval(w *plan.Weighted) *inOrderEval {
	e := &inOrderEval{
		w:     w,
		g:     eventgraph.New(opCount(w)),
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
// assignment. Decided sides contribute their exact chain and wrap edges
// (with both sides decided the graph matches buildInOrderGraph plus the
// dominated per-server self-loops); open sides contribute only constraints
// every completion implies:
//
//   - each in-comm precedes the computation by at least its own volume,
//     the computation precedes each out-comm by at least the computation
//     time (zero tokens: sub-paths of the completed chain);
//   - every possible last operation reaches every possible first operation
//     of the next data set through the wrap (one token, at least the last
//     operation's own duration);
//   - the full server cycle carries one token and total delay Cexec
//     whatever the orders — the calc self-loop keeps that per-server floor
//     in every partial graph.
func (e *inOrderEval) build(o Orders, decidedIn, decidedOut []bool) {
	e.g.Reset(opCount(e.w))
	for v := 0; v < e.w.N(); v++ {
		din := decidedIn == nil || decidedIn[v]
		dout := decidedOut == nil || decidedOut[v]
		e.serverEdges(v, o, din, dout)
	}
}

// serverEdges adds server v's INORDER constraints (see build) to the
// scratch graph.
func (e *inOrderEval) serverEdges(v int, o Orders, din, dout bool) {
	w, g := e.w, e.g
	calc := calcOp(v)
	ins, outs := o.In[v], o.Out[v]
	first := calc
	if din {
		prev := -1
		for _, ei := range ins {
			op := commOp(w, ei)
			if prev >= 0 {
				g.AddEdge(prev, op, opDur(w, prev), 0)
			}
			prev = op
		}
		if prev >= 0 {
			g.AddEdge(prev, calc, opDur(w, prev), 0)
			first = commOp(w, ins[0])
		}
	} else {
		for _, ei := range ins {
			g.AddEdge(commOp(w, ei), calc, w.Vol(ei), 0)
		}
	}
	last := calc
	if dout {
		prev := calc
		for _, ei := range outs {
			op := commOp(w, ei)
			g.AddEdge(prev, op, opDur(w, prev), 0)
			prev = op
		}
		last = prev
	} else {
		for _, ei := range outs {
			g.AddEdge(calc, commOp(w, ei), w.Comp(v), 0)
		}
	}
	// Wrap edges (one token): every possible last op to every possible
	// first op of the next data set.
	switch {
	case dout && din:
		g.AddEdge(last, first, opDur(w, last), 1)
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
	g.AddEdge(calc, calc, e.cexec[v], 1)
}

func (e *inOrderEval) value(o Orders) (rat.Rat, error) {
	e.build(o, nil, nil)
	return graphLambda(e.g)
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
	s, err := scoreInOrderPeriod(w, opts)
	return materialised(s, err, w)
}

func scoreInOrderPeriod(w *plan.Weighted, opts Options) (Score, error) {
	return searchOrders(w, opts, newInOrderEval(w),
		w.PeriodLowerBound(plan.InOrder), inOrderCycle)
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

// buildPipelinedGraph encodes the software-pipelined OUTORDER template in
// generation-shifted time: each operation is retimed by its pipeline stage
// (μ = stage), so that on every server the cycle "out-comms, calc, in-comms"
// carries exactly one token (between the last out-comm and the calc) while
// data precedence edges carry the stage differences. Begin times recovered
// by b = π + λ·(maxStage − μ) satisfy the original OUTORDER constraints.
func buildPipelinedGraph(w *plan.Weighted, orders Orders) (*eventgraph.Graph, []int, int) {
	gen, commGen := generations(w)
	mu := make([]int, opCount(w))
	maxMu := 0
	for v := 0; v < w.N(); v++ {
		mu[calcOp(v)] = gen[v]
	}
	for ei := range w.Edges() {
		mu[commOp(w, ei)] = commGen[ei]
	}
	for _, m := range mu {
		if m > maxMu {
			maxMu = m
		}
	}
	g := eventgraph.New(opCount(w))
	// Per-server residue cycle: O_1..O_q, calc, I_1..I_p, wrap to O_1.
	for v := 0; v < w.N(); v++ {
		outs := orders.Out[v]
		ins := orders.In[v]
		seq := make([]int, 0, len(outs)+1+len(ins))
		for _, e := range outs {
			seq = append(seq, commOp(w, e))
		}
		seq = append(seq, calcOp(v))
		for _, e := range ins {
			seq = append(seq, commOp(w, e))
		}
		for i := 0; i+1 < len(seq); i++ {
			tok := 0
			if seq[i+1] == calcOp(v) {
				tok = 1 // the single wrap token sits before the calc
			}
			g.AddEdge(seq[i], seq[i+1], opDur(w, seq[i]), tok)
		}
		last := seq[len(seq)-1]
		g.AddEdge(last, seq[0], opDur(w, last), 0)
	}
	// Data precedence in shifted time: calc(u) → comm carries no tokens
	// (same stage); comm → calc(v) carries the stage difference ≥ 1.
	for ei, e := range w.Edges() {
		if e.From >= 0 {
			g.AddEdge(calcOp(e.From), commOp(w, ei), w.Comp(e.From), 0)
		}
		if e.To >= 0 {
			g.AddEdge(commOp(w, ei), calcOp(e.To), w.Vol(ei), commGen[ei]-gen[e.To])
		}
	}
	return g, mu, maxMu
}

// OutOrderPeriodWithOrders builds the pipelined OUTORDER schedule for fixed
// orders and returns the better of it and the INORDER schedule (an INORDER
// list is always OUTORDER-valid).
func OutOrderPeriodWithOrders(w *plan.Weighted, orders Orders) (*oplist.List, error) {
	inorder, inErr := InOrderPeriodWithOrders(w, orders)

	g, mu, maxMu := buildPipelinedGraph(w, orders)
	lambda, shifted, _, err := solvePeriodGraph(w, g)
	var pipelined *oplist.List
	if err == nil {
		pipelined = oplist.New(w, lambda)
		for v := 0; v < w.N(); v++ {
			shift := lambda.MulInt(int64(maxMu - mu[calcOp(v)]))
			pipelined.SetCalc(v, shifted.CalcBegin(v).Add(shift))
		}
		for ei := range w.Edges() {
			shift := lambda.MulInt(int64(maxMu - mu[commOp(w, ei)]))
			pipelined.SetComm(ei, shifted.CommBegin(ei).Add(shift))
		}
		if verr := pipelined.Validate(plan.OutOrder); verr != nil {
			return nil, fmt.Errorf("orchestrate: pipelined construction invalid: %w", verr)
		}
	}
	switch {
	case pipelined == nil && inorder == nil:
		return nil, fmt.Errorf("orchestrate: no OUTORDER schedule for these orders (inorder: %v, pipelined: %v)", inErr, err)
	case pipelined == nil:
		return inorder, nil
	case inorder == nil || pipelined.Lambda().Less(inorder.Lambda()):
		return pipelined, nil
	default:
		return inorder, nil
	}
}

// outOrderEval is the OUTORDER order-search evaluator: the value of an
// assignment is the better of its INORDER period and its pipelined-
// template period (an INORDER list is always OUTORDER-valid), each an MCR
// on a reused event graph; OutOrderPeriodWithOrders materializes the
// winning orders once the search is over.
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

// build fills the pipelined scratch graph for a partial assignment. The
// data-precedence edges (stage-shifted, cf. buildPipelinedGraph) do not
// depend on the orders and are exact in every completion. Per server, the
// residue cycle "out-comms, calc (one token before it), in-comms, wrap"
// contributes its exact edges on decided sides; open sides contribute the
// constraints every permutation implies: each out-comm reaches the calc
// through the single wrap token carrying at least its own volume, the
// calc precedes each in-comm by the computation time, each in-comm
// reaches the first out-comm tokenlessly with at least its own volume —
// and the full residue cycle carries one token and total delay Cexec
// whatever the orders (the calc self-loop).
func (e *outOrderEval) build(o Orders, decidedIn, decidedOut []bool) {
	w := e.ino.w
	e.g.Reset(opCount(w))
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
	for v := 0; v < w.N(); v++ {
		din := decidedIn == nil || decidedIn[v]
		dout := decidedOut == nil || decidedOut[v]
		e.residueEdges(v, o, din, dout)
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
	g.AddEdge(calc, calc, e.ino.cexec[v], 1)
}

func (e *outOrderEval) value(o Orders) (rat.Rat, error) {
	inoVal, inoErr := e.ino.value(o)
	e.build(o, nil, nil)
	pipVal, pipErr := graphLambda(e.g)
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
	s, err := scoreOutOrderPeriod(w, opts)
	return materialised(s, err, w)
}

func scoreOutOrderPeriod(w *plan.Weighted, opts Options) (Score, error) {
	return searchOrders(w, opts, newOutOrderEval(w),
		w.PeriodLowerBound(plan.OutOrder), outOrderCycle)
}

// OutOrderBottleneck identifies the critical cycle of an OUTORDER schedule
// produced by this package: it re-analyzes the schedule's realized orders
// under both the in-order and the pipelined event-graph templates and
// reports the cycle of whichever matches the schedule's period. Returns nil
// when neither does.
func OutOrderBottleneck(l *oplist.List) []string {
	if labels := InOrderBottleneck(l); labels != nil {
		return labels
	}
	w := l.Plan()
	g, _, _ := buildPipelinedGraph(w, extractOrders(l))
	res, err := g.MaximumCycleRatio()
	if err != nil || !res.Ratio.Equal(l.Lambda()) {
		return nil
	}
	return describeCycle(w, g, res.CriticalCycle)
}
