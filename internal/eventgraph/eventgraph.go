// Package eventgraph implements timed event graphs and the exact maximum
// cycle ratio (MCR) computation at the core of one-port period analysis.
//
// An event graph has one node per operation and constraint edges
// u -> w carrying a delay d and a token count h, meaning
//
//	begin(w, n+h) ≥ begin(u, n) + d   for all data sets n,
//
// which for a cyclic schedule of period λ collapses to
// begin(w) ≥ begin(u) + d − λ·h. Such a system is feasible iff λ is at
// least the maximum over all cycles of Σd/Σh (every cycle must carry at
// least one token); the optimum is attained and a valid earliest schedule
// is the least fixpoint of the longest-path relaxation at λ = MCR.
//
// The MCR is computed exactly (rational arithmetic) with Howard's policy
// iteration, cross-checked in tests against brute-force simple-cycle
// enumeration.
package eventgraph

import (
	"errors"
	"fmt"

	"repro/internal/rat"
)

// ErrZeroTokenCycle is returned when the graph has a cycle whose edges
// carry no tokens: such a system deadlocks (circular wait within a single
// data set) and has no valid schedule for any period.
var ErrZeroTokenCycle = errors.New("eventgraph: cycle with zero tokens (deadlock)")

// ErrInfeasible is returned by Potentials when the requested period is
// smaller than the maximum cycle ratio.
var ErrInfeasible = errors.New("eventgraph: period below maximum cycle ratio")

// ErrNoCycle is returned by MaximumCycleRatio when the graph is acyclic:
// any period satisfies the constraints, there is no cycle-imposed bound.
var ErrNoCycle = errors.New("eventgraph: graph has no cycle")

// Edge is one precedence constraint between operations.
type Edge struct {
	From, To int
	Delay    rat.Rat
	Tokens   int
}

// weightAt returns the edge's weight at period lambda, delay − lambda·tokens
// (the delay itself on a zero-token edge): what the constraint adds to
// begin(From) in the cyclic schedule of that period. It is invariant across
// the passes of a relaxation, so one is computed per edge per query.
func (e *Edge) weightAt(lambda rat.Rat) rat.Rat {
	if e.Tokens == 0 {
		return e.Delay
	}
	return e.Delay.Sub(lambda.MulInt(int64(e.Tokens)))
}

// zeroed returns buf resized to n zero potentials, reallocated only when its
// capacity is too small.
func zeroed(buf []rat.Rat, n int) []rat.Rat {
	if cap(buf) < n {
		return make([]rat.Rat, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = rat.Zero
	}
	return buf
}

// Graph is a timed event graph. Parallel edges and self-loops are allowed
// (a self-loop with one token encodes "the operation must fit in the
// period"). A Graph is not safe for concurrent use: besides the edge
// lists it owns scratch buffers reused by the analyses, so searches that
// evaluate many graphs concurrently must give each goroutine its own
// Graph (typically one reset with Reset between candidates).
type Graph struct {
	n     int
	edges []Edge

	// Out-adjacency, built on the first analysis after a change together
	// with the zero-token DFS (analysed): the edge indices leaving v are
	// adj[start[v]:start[v+1]], in insertion order. Both are views of idx.
	idx      []int
	start    []int
	adj      []int
	analysed bool

	scratch howardScratch
	tarjan  sccScratch
	dfs     dfsScratch
	w       []rat.Rat // PotentialsInto's edge weights at the query period, reused across calls
}

// dfsScratch is the zero-token depth-first search's working state and
// output, reused across calls.
type dfsScratch struct {
	color  []uint8 // 0 white, 1 grey, 2 black; then potentials' dirty marks
	post   []int   // finishing order; reversed, a topological order of the zero-token edges
	cyclic bool
}

// New returns an empty event graph with n operation nodes.
func New(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset empties the graph and resizes it to n operation nodes, keeping the
// allocated edge and adjacency storage for reuse. Hot search loops that
// build one event graph per candidate call Reset instead of New so the
// per-candidate allocations disappear after the first candidate.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("eventgraph: negative node count")
	}
	g.n, g.edges, g.analysed = n, g.edges[:0], false
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Edges returns all edges; the slice is owned by the graph.
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge inserts the constraint begin(to, n+tokens) ≥ begin(from, n)+delay.
// Delays must be non-negative and token counts ≥ 0.
func (g *Graph) AddEdge(from, to int, delay rat.Rat, tokens int) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("eventgraph: edge (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	if delay.Sign() < 0 {
		panic(fmt.Sprintf("eventgraph: negative delay %s", delay))
	}
	if tokens < 0 {
		panic(fmt.Sprintf("eventgraph: negative token count %d", tokens))
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Delay: delay, Tokens: tokens})
	g.analysed = false
}

// index builds the out-adjacency of the current edges by a counting sort on
// the source — stable, so every node lists its edges in insertion order —
// into storage reused across calls.
func (g *Graph) index() {
	if need := g.n + 1 + len(g.edges); cap(g.idx) < need {
		g.idx = make([]int, need)
	}
	start, adj := g.idx[:g.n+1], g.idx[g.n+1:g.n+1+len(g.edges)]
	for v := range start {
		start[v] = 0
	}
	for i := range g.edges {
		start[g.edges[i].From+1]++
	}
	for v := 0; v < g.n; v++ {
		start[v+1] += start[v]
	}
	// Filling advances start[v] to the end of v's run; shift back after.
	for i := range g.edges {
		from := g.edges[i].From
		adj[start[from]] = i
		start[from]++
	}
	copy(start[1:], start[:g.n])
	start[0] = 0
	g.start, g.adj = start, adj
}

// out returns the indices of the edges leaving v; the graph must be analysed.
func (g *Graph) out(v int) []int { return g.adj[g.start[v]:g.start[v+1]] }

// checkZeroTokenAcyclic verifies that the subgraph of zero-token edges is
// acyclic; otherwise the system deadlocks.
func (g *Graph) checkZeroTokenAcyclic() error {
	if g.zeroTokenCyclic() {
		return ErrZeroTokenCycle
	}
	return nil
}

// zeroTokenCyclic runs a depth-first search over the zero-token edges,
// recording its finishing order in g.dfs.post, and reports whether it
// closed a zero-token cycle — a deadlock, so the search stops there. Every
// analysis starts here, so this is also where the adjacency is indexed;
// both depend on the edges alone and are reused until the graph changes.
func (g *Graph) zeroTokenCyclic() bool {
	d := &g.dfs
	if g.analysed {
		return d.cyclic
	}
	g.index()
	if cap(d.color) < g.n {
		d.color, d.post = make([]uint8, g.n), make([]int, 0, g.n)
	}
	d.color, d.post = d.color[:g.n], d.post[:0]
	d.cyclic, g.analysed = false, true
	for i := range d.color {
		d.color[i] = 0
	}
	for v := 0; v < g.n && !d.cyclic; v++ {
		if d.color[v] == 0 {
			d.cyclic = !g.zeroTokenVisit(v)
		}
	}
	return d.cyclic
}

// zeroTokenVisit is the depth-first step of zeroTokenCyclic: false when it
// closes a zero-token cycle.
func (g *Graph) zeroTokenVisit(v int) bool {
	d := &g.dfs
	d.color[v] = 1
	for _, ei := range g.out(v) {
		e := &g.edges[ei]
		if e.Tokens != 0 {
			continue
		}
		switch d.color[e.To] {
		case 1:
			return false
		case 0:
			if !g.zeroTokenVisit(e.To) {
				return false
			}
		}
	}
	d.color[v] = 2
	d.post = append(d.post, v)
	return true
}

// sccScratch is Tarjan's working state plus its output, reused across
// calls: the components are stored back to back in nodes, component c
// being nodes[start[c]:start[c+1]].
type sccScratch struct {
	index   []int
	low     []int
	onStack []bool
	stack   []int
	counter int
	nodes   []int
	start   []int
}

// comp returns component c of the last sccs run.
func (t *sccScratch) comp(c int) []int { return t.nodes[t.start[c]:t.start[c+1]] }

// sccs computes the strongly connected components (Tarjan) into g.tarjan
// and returns their number: nodes in pop order within each component,
// components in reverse topological order.
func (g *Graph) sccs() int {
	t := &g.tarjan
	if n := g.n; cap(t.index) < n {
		ints := make([]int, 5*n+1)
		t.index, t.low = ints[:n:n], ints[n:2*n:2*n]
		t.stack, t.nodes, t.start = ints[2*n:2*n:3*n], ints[3*n:3*n:4*n], ints[4*n:4*n]
		t.onStack = make([]bool, n)
	}
	t.index, t.low, t.onStack = t.index[:g.n], t.low[:g.n], t.onStack[:g.n]
	for i := range t.index {
		t.index[i] = -1
		t.onStack[i] = false
	}
	t.stack, t.nodes, t.start = t.stack[:0], t.nodes[:0], append(t.start[:0], 0)
	t.counter = 0
	for v := 0; v < g.n; v++ {
		if t.index[v] == -1 {
			g.strongConnect(v)
		}
	}
	return len(t.start) - 1
}

func (g *Graph) strongConnect(v int) {
	t := &g.tarjan
	t.index[v] = t.counter
	t.low[v] = t.counter
	t.counter++
	t.stack = append(t.stack, v)
	t.onStack[v] = true
	for _, ei := range g.out(v) {
		w := g.edges[ei].To
		if t.index[w] == -1 {
			g.strongConnect(w)
			if t.low[w] < t.low[v] {
				t.low[v] = t.low[w]
			}
		} else if t.onStack[w] && t.index[w] < t.low[v] {
			t.low[v] = t.index[w]
		}
	}
	if t.low[v] == t.index[v] {
		for {
			w := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.onStack[w] = false
			t.nodes = append(t.nodes, w)
			if w == v {
				break
			}
		}
		t.start = append(t.start, len(t.nodes))
	}
}

// MCRResult carries the outcome of MaximumCycleRatio.
type MCRResult struct {
	// Ratio is the maximum cycle ratio Σdelay/Σtokens.
	Ratio rat.Rat
	// CriticalCycle lists edge indices of one cycle attaining the ratio,
	// in traversal order.
	CriticalCycle []int
}

// MaximumCycleRatio computes the exact maximum over all cycles of
// Σdelay/Σtokens, the smallest feasible period of the encoded cyclic
// scheduling problem, and one cycle attaining it. It returns ErrNoCycle
// for acyclic graphs and ErrZeroTokenCycle when a deadlock cycle exists.
func (g *Graph) MaximumCycleRatio() (MCRResult, error) {
	return g.mcr(true)
}

// MaxCycleRatio is MaximumCycleRatio for callers that score by the ratio
// alone: it extracts no critical cycle, and on a reused Graph (Reset
// between candidates) it allocates nothing once the scratch has grown to
// the graph's size.
func (g *Graph) MaxCycleRatio() (rat.Rat, error) {
	res, err := g.mcr(false)
	return res.Ratio, err
}

func (g *Graph) mcr(wantCycle bool) (MCRResult, error) {
	if err := g.checkZeroTokenAcyclic(); err != nil {
		return MCRResult{}, err
	}
	// One full scratch clear per call; howardSCC touches only its own
	// component's entries (and resets the shared inComp marks), so the
	// per-component cost stays proportional to the component.
	g.scratch.resize(g.n)
	best := MCRResult{Ratio: rat.Zero}
	found := false
	for c, comps := 0, g.sccs(); c < comps; c++ {
		res, ok, err := g.howardSCC(g.tarjan.comp(c), wantCycle)
		if err != nil {
			return MCRResult{}, err
		}
		if ok && (!found || res.Ratio.Greater(best.Ratio)) {
			best = res
			found = true
		}
	}
	if !found {
		return MCRResult{}, ErrNoCycle
	}
	return best, nil
}

// howardScratch holds the per-node working state of Howard's policy
// iteration, indexed by global node id and reused across calls (the order
// searches run one MCR per candidate graph, so these buffers are the hot
// allocation site of period orchestration). resize clears what it keeps,
// so each call starts clean.
type howardScratch struct {
	inComp []bool
	hasOut []bool
	policy []int
	etaSet []bool
	eta    []rat.Rat
	val    []rat.Rat
	cycAt  []int // entry nodes: offset of the node's policy cycle in cycBuf, else -1
	cycLen []int
	cycBuf []int // edge indices of the current policy's cycles, back to back
	state  []uint8
	local  []int // edge indices internal to the component
	stack  []int
	iters  int // most policy iterations one component took in the last MCR query
}

// maxIters guards Howard's policy iteration against a bug: with canonical
// cycle anchors it converges — in tens of iterations per component on the
// event graphs the orchestrators build (TestHowardCertificateOnPlanGraphs)
// — so reaching the cap is an internal error.
const maxIters = 100000

func (s *howardScratch) resize(n int) {
	if cap(s.inComp) < n {
		bools, ints, rats := make([]bool, 3*n), make([]int, 5*n), make([]rat.Rat, 2*n)
		s.inComp, s.hasOut, s.etaSet = bools[:n:n], bools[n:2*n:2*n], bools[2*n:]
		s.policy, s.cycAt, s.cycLen = ints[:n:n], ints[n:2*n:2*n], ints[2*n:3*n:3*n]
		s.cycBuf, s.stack = ints[3*n:3*n:4*n], ints[4*n:4*n]
		s.eta, s.val = rats[:n:n], rats[n:]
		s.state = make([]uint8, n)
	}
	s.inComp = s.inComp[:n]
	s.hasOut = s.hasOut[:n]
	s.policy = s.policy[:n]
	s.etaSet = s.etaSet[:n]
	s.eta = s.eta[:n]
	s.val = s.val[:n]
	s.cycAt = s.cycAt[:n]
	s.cycLen = s.cycLen[:n]
	s.state = s.state[:n]
	for i := 0; i < n; i++ {
		s.inComp[i] = false
		s.hasOut[i] = false
		s.policy[i] = -1
		s.etaSet[i] = false
		s.eta[i] = rat.Zero
		s.val[i] = rat.Zero
		s.cycAt[i] = -1
		s.state[i] = 0
	}
	s.local = s.local[:0]
	s.stack = s.stack[:0]
	s.iters = 0
}

// howardSCC runs Howard's policy iteration (maximum version) on one
// strongly connected component of a graph whose scratch MaximumCycleRatio
// just cleared. ok is false when the component contains no cycle (single
// node without self-loop). All state lives in slice scratch indexed by
// node id and every scan follows slice order, so the tie-break among
// equal-ratio policy cycles — and therefore the returned critical cycle —
// is deterministic. Only the component's own entries are written, except
// inComp, whose marks are reset on return (cross-component edges read
// other nodes' entries). Policy cycles live in reused scratch (scoring
// needs only their ratios); the critical cycle is copied out once, for the
// converged winner, and only when wantCycle asks for it.
func (g *Graph) howardSCC(comp []int, wantCycle bool) (MCRResult, bool, error) {
	s := &g.scratch
	s.local = s.local[:0]
	for _, v := range comp {
		s.inComp[v] = true
	}
	defer func() {
		for _, v := range comp {
			s.inComp[v] = false
		}
	}()
	for _, v := range comp {
		for _, ei := range g.out(v) {
			if s.inComp[g.edges[ei].To] {
				s.local = append(s.local, ei)
				s.hasOut[v] = true
			}
		}
	}
	if len(s.local) == 0 {
		return MCRResult{}, false, nil
	}
	if len(comp) > 1 {
		// In a nontrivial SCC every node has an internal out-edge.
		for _, v := range comp {
			if !s.hasOut[v] {
				return MCRResult{}, false, fmt.Errorf("eventgraph: internal error: SCC node %d without out-edge", v)
			}
		}
	} else if !s.hasOut[comp[0]] {
		return MCRResult{}, false, nil // single node, no self-loop
	}

	// policy[v] = chosen out-edge index (into g.edges).
	for _, v := range comp {
		for _, ei := range g.out(v) {
			if s.inComp[g.edges[ei].To] {
				s.policy[v] = ei
				break
			}
		}
	}

	evaluate := func() error {
		s.cycBuf = s.cycBuf[:0]
		for _, v := range comp {
			s.etaSet[v] = false
			s.cycAt[v] = -1
			s.state[v] = 0
		}
		for _, start := range comp {
			if s.state[start] != 0 {
				continue
			}
			// Walk the functional graph until reaching a visited node.
			s.stack = s.stack[:0]
			v := start
			for s.state[v] == 0 {
				s.state[v] = 1
				s.stack = append(s.stack, v)
				v = g.edges[s.policy[v]].To
			}
			if s.state[v] == 1 {
				// Found a new policy cycle; v is its entry point.
				at := len(s.cycBuf)
				i := len(s.stack) - 1
				for s.stack[i] != v {
					i--
				}
				cycNodes := s.stack[i:]
				sumD, sumH, low := rat.Zero, 0, 0
				for j, u := range cycNodes {
					e := g.edges[s.policy[u]]
					sumD = sumD.Add(e.Delay)
					sumH += e.Tokens
					s.cycBuf = append(s.cycBuf, s.policy[u])
					if u < cycNodes[low] {
						low = j
					}
				}
				if sumH == 0 {
					return ErrZeroTokenCycle
				}
				ratio := sumD.Div(rat.I(int64(sumH)))
				// Values around the cycle: anchor the cycle's lowest node id at
				// 0, whichever node the walk entered by, so a cycle the policy
				// keeps keeps its values. (Anchored at the entry node, an
				// unchanged cycle is re-valued whenever the walk enters it
				// elsewhere, and the iteration can cycle without end.) Walk
				// backwards from the anchor so each successor value is known.
				s.cycAt[v], s.cycLen[v] = at, len(cycNodes)
				k := len(cycNodes)
				anchor := cycNodes[low]
				s.etaSet[anchor] = true
				s.eta[anchor] = ratio
				s.val[anchor] = rat.Zero
				for t := 1; t < k; t++ {
					u := cycNodes[(low-t+k)%k]
					e := g.edges[s.policy[u]]
					s.etaSet[u] = true
					s.eta[u] = ratio
					s.val[u] = e.weightAt(ratio).Add(s.val[e.To])
				}
			}
			// Unwind the tail: nodes leading into the (now evaluated) cycle.
			for j := len(s.stack) - 1; j >= 0; j-- {
				u := s.stack[j]
				if !s.etaSet[u] {
					e := g.edges[s.policy[u]]
					s.etaSet[u] = true
					s.eta[u] = s.eta[e.To]
					s.val[u] = e.weightAt(s.eta[u]).Add(s.val[e.To])
				}
				s.state[u] = 2
			}
		}
		return nil
	}

	for iter := 1; iter <= maxIters; iter++ {
		s.iters = max(s.iters, iter)
		if err := evaluate(); err != nil {
			return MCRResult{}, false, err
		}
		// Phase 1: ratio improvements.
		changed := false
		for _, ei := range s.local {
			e := g.edges[ei]
			if s.eta[e.To].Greater(s.eta[e.From]) {
				s.policy[e.From] = ei
				changed = true
			}
		}
		if changed {
			continue
		}
		// Phase 2: value improvements at equal ratio.
		for _, ei := range s.local {
			e := g.edges[ei]
			if !s.eta[e.To].Equal(s.eta[e.From]) {
				continue
			}
			cand := e.weightAt(s.eta[e.From]).Add(s.val[e.To])
			if cand.Greater(s.val[e.From]) {
				s.policy[e.From] = ei
				changed = true
			}
		}
		if !changed {
			// Converged: the best policy cycle carries the MCR; comp-order
			// scanning keeps the winner deterministic among equal ratios.
			winner := -1
			for _, v := range comp {
				if s.cycAt[v] >= 0 && (winner < 0 || s.eta[v].Greater(s.eta[winner])) {
					winner = v
				}
			}
			if winner < 0 {
				return MCRResult{}, false, fmt.Errorf("eventgraph: internal error: converged without cycle")
			}
			best := MCRResult{Ratio: s.eta[winner]}
			if wantCycle {
				at := s.cycAt[winner]
				best.CriticalCycle = append([]int(nil), s.cycBuf[at:at+s.cycLen[winner]]...)
			}
			return best, true, nil
		}
	}
	return MCRResult{}, false, fmt.Errorf("eventgraph: internal error: Howard iteration did not converge in %d iterations", maxIters)
}

// Potentials returns the earliest begin times for the cyclic schedule of
// period lambda: the least non-negative fixpoint of
// begin(w) ≥ begin(u) + delay − lambda·tokens. It returns ErrInfeasible if
// lambda is below the maximum cycle ratio and ErrZeroTokenCycle on
// deadlock.
func (g *Graph) Potentials(lambda rat.Rat) ([]rat.Rat, error) {
	pi, err := g.PotentialsInto(nil, lambda)
	if err != nil {
		return nil, err
	}
	return pi, nil
}

// PotentialsInto is Potentials writing into the caller's buffer (grown
// when too small, zeroed before use), so per-candidate searches can reuse
// one begin-time vector across evaluations. The returned slice aliases
// buf whenever buf had the capacity; on error it is the (possibly grown)
// working buffer with unspecified contents — callers keep it for the next
// call instead of dropping the allocation.
func (g *Graph) PotentialsInto(buf []rat.Rat, lambda rat.Rat) ([]rat.Rat, error) {
	pi, _, err := g.potentials(buf, lambda)
	return pi, err
}

// potentials is the longest-path relaxation behind PotentialsInto,
// reporting the number of passes it ran. Sources are relaxed in the reverse
// finishing order of the zero-token DFS, a topological order of the
// zero-token edges: one pass is the fixpoint of a graph without token
// edges, and otherwise passes repeat until one changes nothing (n + 1
// changing passes mean a positive cycle). The least fixpoint is unique and
// rationals are canonical, so the order changes how many passes reach it,
// never the potentials.
func (g *Graph) potentials(buf []rat.Rat, lambda rat.Rat) ([]rat.Rat, int, error) {
	pi := zeroed(buf, g.n)
	if g.zeroTokenCyclic() {
		return pi, 0, ErrZeroTokenCycle
	}
	tokens := false
	if cap(g.w) < len(g.edges) {
		g.w = make([]rat.Rat, 0, len(g.edges))
	}
	g.w = g.w[:0]
	for i := range g.edges {
		g.w = append(g.w, g.edges[i].weightAt(lambda))
		tokens = tokens || g.edges[i].Tokens != 0
	}
	// A source whose potential did not rise since it was last relaxed
	// cannot raise anything: only dirty sources are relaxed, which leaves
	// every pass's outcome — and so the pass count — as a full pass's.
	post, dirty := g.dfs.post, g.dfs.color
	for v := range dirty {
		dirty[v] = 1
	}
	for pass := 1; pass <= g.n+1; pass++ {
		changed := false
		for i := len(post) - 1; i >= 0; i-- {
			u := post[i]
			if dirty[u] == 0 {
				continue
			}
			dirty[u] = 0
			for _, ei := range g.out(u) {
				to := g.edges[ei].To
				if bound := pi[u].Add(g.w[ei]); bound.Greater(pi[to]) {
					pi[to] = bound
					dirty[to] = 1
					changed = true
				}
			}
		}
		if !changed || !tokens {
			return pi, pass, nil
		}
	}
	return pi, g.n + 1, ErrInfeasible
}

// FeasiblePeriod reports whether the given period admits a schedule.
func (g *Graph) FeasiblePeriod(lambda rat.Rat) bool {
	_, err := g.Potentials(lambda)
	return err == nil
}

// BruteForceMCR enumerates all simple cycles (Johnson-style DFS) and
// returns the maximum ratio; exponential, used to cross-check Howard in
// tests and usable on small graphs. Self-loops count as simple cycles.
func (g *Graph) BruteForceMCR() (MCRResult, error) {
	if err := g.checkZeroTokenAcyclic(); err != nil {
		return MCRResult{}, err
	}
	best := MCRResult{}
	found := false
	onPath := make([]bool, g.n)
	var path []int // edge indices
	var dfs func(start, v int, sumD rat.Rat, sumH int)
	dfs = func(start, v int, sumD rat.Rat, sumH int) {
		for _, ei := range g.out(v) {
			e := g.edges[ei]
			// Only consider cycles whose smallest node is start, to avoid
			// revisiting each cycle once per rotation.
			if e.To < start {
				continue
			}
			if e.To == start {
				d := sumD.Add(e.Delay)
				h := sumH + e.Tokens
				if h > 0 {
					ratio := d.Div(rat.I(int64(h)))
					if !found || ratio.Greater(best.Ratio) {
						cyc := append(append([]int(nil), path...), ei)
						best = MCRResult{Ratio: ratio, CriticalCycle: cyc}
						found = true
					}
				}
				continue
			}
			if onPath[e.To] {
				continue
			}
			onPath[e.To] = true
			path = append(path, ei)
			dfs(start, e.To, sumD.Add(e.Delay), sumH+e.Tokens)
			path = path[:len(path)-1]
			onPath[e.To] = false
		}
	}
	for v := 0; v < g.n; v++ {
		onPath[v] = true
		dfs(v, v, rat.Zero, 0)
		onPath[v] = false
	}
	if !found {
		return MCRResult{}, ErrNoCycle
	}
	return best, nil
}
