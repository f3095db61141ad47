package orchestrate

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/eventgraph"
	"repro/internal/oplist"
	"repro/internal/plan"
	"repro/internal/rat"
)

// OnePortLatencyWithOrders computes the single-data-set schedule induced by
// fixed per-server orders under one-port communications: the begin times
// are the longest paths of the order-induced DAG. It fails when the orders
// deadlock (cross-server circular wait). It always solves the exact-rational
// event graph, which makes that lane the integer lane's oracle.
func OnePortLatencyWithOrders(w *plan.Weighted, orders Orders) (*oplist.List, error) {
	e := newRatOnePortEval(w)
	e.build(orders, nil, nil)
	pi, err := e.arcs.g.Potentials(rat.One) // tokens are all 0: period-independent
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

// onePortEval is the latency order-search evaluator and the one encoding of
// the order-induced DAG: the value of an assignment is its longest path.
// Every arc of that DAG carries its source operation's duration and no
// token, so the longest path is a sum of durations: on the integer lane
// (intLane), taken whenever the plan's durations fit it, one Kahn pass over
// scaled int64 durations scores an assignment. Otherwise (lane nil) the
// arcs go into a reused event graph and its exact-rational longest-path
// relaxation; OnePortLatencyWithOrders materializes the winning orders
// from that graph once the search is over. fl is LatencyPathBound, on the
// lane's durations when there is one. The lane lives in laneBuf, so an
// evaluator on it is two allocations until its first build: a search whose
// floor already exceeds its limit builds nothing else.
type onePortEval struct {
	w       *plan.Weighted
	fl      rat.Rat
	lane    *intLane // &laneBuf, or nil
	laneBuf intLane
	arcs    graphArcs
	pi      []rat.Rat
}

// newOnePortEval returns w's search evaluator, on the integer lane when
// w's durations fit it.
func newOnePortEval(w *plan.Weighted) *onePortEval {
	e := &onePortEval{w: w}
	if !e.laneBuf.init(w) {
		return newRatOnePortEval(w)
	}
	e.lane = &e.laneBuf
	e.fl = e.lane.floor()
	return e
}

// newRatOnePortEval returns w's evaluator on exact rationals.
func newRatOnePortEval(w *plan.Weighted) *onePortEval {
	return &onePortEval{w: w, fl: w.LatencyPathBound(), arcs: graphArcs{w: w, g: eventgraph.New(opCount(w))}}
}

func (e *onePortEval) floor() rat.Rat { return e.fl }

// build emits the one-port precedence constraints of a partial assignment
// (nil decided flags: every side decided) into the evaluator's lane: one
// chainEdges per server, exact on decided sides.
func (e *onePortEval) build(o Orders, decidedIn, decidedOut []bool) {
	var sink arcSink = &e.arcs
	if e.lane != nil {
		e.lane.reset()
		sink = e.lane
	} else {
		e.arcs.g.Reset(opCount(e.w))
	}
	for v := 0; v < e.w.N(); v++ {
		chainEdges(e.w, sink, v, o, decided(decidedIn, v), decided(decidedOut, v))
	}
}

// latency runs the longest-path relaxation on the built arcs and returns
// the latest communication end — List.Latency of the induced schedule. The
// error is the deadlock of the (partial) orders, the same on both lanes.
func (e *onePortEval) latency() (rat.Rat, error) {
	if e.lane != nil {
		lat, ok := e.lane.latency()
		if !ok {
			return rat.Zero, eventgraph.ErrZeroTokenCycle
		}
		return rat.New(lat, e.lane.den), nil
	}
	pi, err := e.arcs.g.PotentialsInto(e.pi, rat.One) // tokens all 0: period-independent
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

// maxLaneSum caps the sum of a plan's scaled durations on the integer
// lane. A path of the order DAG visits each operation at most once, so no
// begin or end time can exceed the sum, and none overflows int64.
const maxLaneSum = 1 << 62

// intLane scores one-port latency orders on int64: the plan's operation
// durations scaled to numerators over den, the lcm of their denominators,
// and pointer-free scratch for one Kahn pass per assignment, which yields
// the deadlock test, the begin times and the latest communication end
// together. All int32 scratch shares one backing array, made by the first
// reset, as does the int64.
type intLane struct {
	w     *plan.Weighted
	den   int64
	dur   []int64 // scaled duration per operation
	begin []int64 // earliest begin per operation
	arcs  []int32 // emitted (from, to) pairs
	indeg []int32 // per operation: arcs into it not yet relaxed
	start []int32 // per operation + 1: out-arc offsets into adj
	adj   []int32 // arc heads grouped by tail
	queue []int32 // Kahn order
}

// init makes l w's integer lane and reports whether w fits it: false when a
// duration is not a small rational, den overflows int64 or the scaled
// durations sum past maxLaneSum.
func (l *intLane) init(w *plan.Weighted) bool {
	n := opCount(w)
	den := uint64(1)
	for op := 0; op < n; op++ {
		d, ok := opDur(w, op).Den64()
		if !ok {
			return false
		}
		if den, ok = rat.LCM(den, uint64(d), math.MaxInt64); !ok {
			return false
		}
	}
	i64 := make([]int64, 2*n)
	dur := i64[:n]
	var sum uint64
	for op := range dur {
		r := opDur(w, op)
		num, ok := r.Num64()
		d, _ := r.Den64()
		if !ok || num < 0 {
			return false
		}
		hi, lo := bits.Mul64(uint64(num), den/uint64(d))
		if sum += lo; hi != 0 || lo > maxLaneSum || sum > maxLaneSum {
			return false
		}
		dur[op] = int64(lo)
	}
	*l = intLane{w: w, den: int64(den), dur: dur, begin: i64[n:]}
	return true
}

// grow makes the int32 scratch.
func (l *intLane) grow() {
	n := len(l.dur)
	// Every server emits at most one arc per communication on its sides.
	arcs := 0
	for v := 0; v < l.w.N(); v++ {
		arcs += len(l.w.InEdges(v)) + len(l.w.OutEdges(v))
	}
	i32 := make([]int32, 3*arcs+3*n+1)
	l.arcs, i32 = i32[:0:2*arcs], i32[2*arcs:]
	l.adj, i32 = i32[:arcs], i32[arcs:]
	l.indeg, i32 = i32[:n], i32[n:]
	l.start, l.queue = i32[:n+1], i32[n+1:n+1:2*n+1]
}

// reset empties the arcs and their counts before a build.
func (l *intLane) reset() {
	if l.start == nil {
		l.grow()
	}
	l.arcs = l.arcs[:0]
	clear(l.indeg)
	clear(l.start)
}

// arc records one arc of the order DAG and counts it at both ends.
func (l *intLane) arc(from, to int) {
	l.arcs = append(l.arcs, int32(from), int32(to))
	l.start[from+1]++
	l.indeg[to]++
}

// latency is one Kahn pass over the built arcs: every operation begins
// once all its predecessors have ended, and the latest communication end
// is the latency (scaled by den). ok is false when the arcs close a cycle
// — the orders deadlock. It runs once per build: it turns the counts arc
// left in start into offsets.
func (l *intLane) latency() (lat int64, ok bool) {
	n := len(l.dur)
	start, adj := l.start, l.adj
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	// Filling advances start[v] to the end of v's run; shift back after.
	for i := 0; i < len(l.arcs); i += 2 {
		from := l.arcs[i]
		adj[start[from]] = l.arcs[i+1]
		start[from]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	q := l.queue[:0]
	for v := 0; v < n; v++ {
		l.begin[v] = 0
		if l.indeg[v] == 0 {
			q = append(q, int32(v))
		}
	}
	calcs := int32(l.w.N())
	for h := 0; h < len(q); h++ {
		u := q[h]
		end := l.begin[u] + l.dur[u]
		if u >= calcs {
			lat = max(lat, end)
		}
		for _, to := range adj[start[u]:start[u+1]] {
			l.begin[to] = max(l.begin[to], end)
			if l.indeg[to]--; l.indeg[to] == 0 {
				q = append(q, to)
			}
		}
	}
	return lat, len(q) == n
}

// floor is w.LatencyPathBound on the scaled durations.
func (l *intLane) floor() rat.Rat {
	w := l.w
	done := l.begin[:w.N()]
	var best int64
	for _, v := range w.Topo() {
		var start int64
		for _, ei := range w.InEdges(v) {
			t := l.dur[commOp(w, ei)]
			if from := w.Edge(ei).From; from != plan.In {
				t += done[from]
			}
			start = max(start, t)
		}
		done[v] = start + l.dur[calcOp(v)]
		for _, ei := range w.OutEdges(v) {
			if w.Edge(ei).To == plan.Out {
				best = max(best, done[v]+l.dur[commOp(w, ei)])
			}
		}
	}
	return rat.New(best, l.den)
}

// OnePortLatency searches per-server orders for the minimal one-port
// latency. The search is exact (over all schedules, since any valid
// one-port single-data-set schedule induces such orders) when the
// combination count fits the exhaustive budget. Applies to both INORDER
// and OUTORDER, which coincide for latency (paper §2.2).
func OnePortLatency(w *plan.Weighted, opts Options) (Result, error) {
	s, err := scoreOnePortLatency(w, opts, NoLimit)
	return materialised(s, err, w)
}

func scoreOnePortLatency(w *plan.Weighted, opts Options, limit Limit) (Score, error) {
	return searchOrders(w, opts, newOnePortEval(w), onePortPaths, limit)
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
	s, err := scoreOverlapLatency(w, opts, NoLimit)
	return materialised(s, err, w)
}

// scoreOverlapLatency sweeps the bandwidth-sharing schedule first, so the
// one-port search only has to beat the better of it and the caller's
// limit: a one-port optimum above the shared value loses to it anyway, and
// ties go to the one-port schedule either way.
func scoreOverlapLatency(w *plan.Weighted, opts Options, limit Limit) (Score, error) {
	e := newOnePortEval(w)
	shared := Score{Value: sharedSweep(w, nil), LowerBound: e.floor(), build: sharedBandwidth}
	onePort, err := searchOrders(w, opts, e, onePortPaths, limit.Min(shared.Value))
	switch {
	case err == nil && !onePort.NotBelow():
		if shared.Value.Less(onePort.Value) {
			return shared, nil
		}
		return onePort, nil
	case limit.excludes(shared.Value):
		return cutOff(limit), nil
	default:
		return shared, nil
	}
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
	// completion of everything below v (including output communications);
	// path[v] = the longest path below v, each operation counted once, so
	// that the roots' in-communications plus path give LatencyPathBound.
	n := w.N()
	rest := make([]rat.Rat, 2*n)
	rest, path := rest[:n], rest[n:]
	order := make([][]int, n) // chosen out-edge order per node
	flat := make([]int, 0, len(w.Edges()))
	below := func(of []rat.Rat, ei int) rat.Rat {
		if to := w.Edge(ei).To; to >= 0 {
			return of[to]
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
			for j := len(flat) - 1; j > start && below(rest, flat[j]).Greater(below(rest, flat[j-1])); j-- {
				flat[j], flat[j-1] = flat[j-1], flat[j]
			}
		}
		order[v] = flat[start:len(flat):len(flat)]
		prefix := rat.Zero
		worst, longest := rat.Zero, rat.Zero
		for _, ei := range order[v] {
			prefix = prefix.Add(w.Vol(ei))
			worst = rat.Max(worst, prefix.Add(below(rest, ei)))
			longest = rat.Max(longest, w.Vol(ei).Add(below(path, ei)))
		}
		rest[v] = w.Comp(v).Add(worst)
		path[v] = w.Comp(v).Add(longest)
	}
	latency, bound := rat.Zero, rat.Zero
	for v := 0; v < n; v++ {
		if in := w.InEdges(v)[0]; w.Edge(in).From == plan.In {
			latency = rat.Max(latency, w.Vol(in).Add(rest[v]))
			bound = rat.Max(bound, w.Vol(in).Add(path[v]))
		}
	}
	return Score{Value: latency, LowerBound: bound, Exact: true, Orders: Orders{Out: order}, build: treeSchedule}, nil
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
