package solve

// Admissible lower bounds on partially decided execution graphs, the
// pruning engine of the branch-and-bound searches (bnb.go).
//
// Each enumeration family decides its graphs incrementally — chains place
// one service per position, forests assign parents in node order, DAGs
// orient one node pair at a time — and every function here bounds the
// objective of EVERY completion of a partial decision from below:
//
//	bound(partial) ≤ objective(G)   for every graph G completing partial.
//
// Admissibility is what makes pruning safe: a subtree is discarded only
// when its bound strictly exceeds the incumbent, so a subtree containing an
// optimal graph (bound ≤ optimum ≤ incumbent) is never cut. The bounds
// build on the same per-server quantities as the complete-graph bounds
// (plan.Weighted's PeriodLowerBound and LatencyPathBound, and the climbs'
// graphEval), with the undecided part replaced by its best case:
//
//   - a node's input product can only shrink by the selectivities < 1 of
//     services that may still become ancestors (never by current
//     descendants, which would close a cycle);
//   - a node's out-degree, and its set of decided children, only grow;
//   - once a node's ancestor chain ends at a permanently decided root, its
//     input product is final and enters the bound exactly.
//
// The admissibility of every bound against the completed graphs is pinned
// by TestPartialBoundsAdmissible.
//
// A bound costs O(n) rat operations per node. Node sets — decided
// ancestors and descendants, precedence predecessors and successors, the
// nodes still open — are uint64 masks, and a node's smallest reachable
// input product (Π σ over its fixed ancestors, times Π shrink over the
// services that may still move above it) is two subsetProducts reads and
// one Mul. The masks cap the exact searches at maxMaskN services.

import (
	"math/bits"
	"slices"

	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// shrinkFactor returns the multiplicative worst case a service can apply to
// a downstream input product: its selectivity when < 1, else 1.
func shrinkFactor(app *workflow.App, u int) rat.Rat {
	if s := app.Selectivity(u); s.Less(rat.One) {
		return s
	}
	return rat.One
}

// unitTables are the per-unit-volume costs of one solve under one model,
// read by the partial bounds, the chain search and the hill climbs' move
// filter: unit(v, k) is the Cexec of service v with 0 ≤ k ≤ n consumers on
// input product 1 (Cin = 1, Ccomp = c, Cout = σ·max(1,k), combined by max
// under OVERLAP and summed otherwise), so scaling it by a service's input
// product gives its per-server period bound on forests and chains; cs[v] =
// c+σ.
type unitTables struct {
	m         plan.Model
	cexec, cs []rat.Rat
}

func unitCosts(app *workflow.App, m plan.Model) unitTables {
	n := app.N()
	u := unitTables{m: m, cexec: make([]rat.Rat, n*(n+1)), cs: make([]rat.Rat, n)}
	for v := 0; v < n; v++ {
		u.cs[v] = app.Cost(v).Add(app.Selectivity(v))
		for k := 0; k <= n; k++ {
			u.cexec[v*(n+1)+k] = unitCexec(app, m, v, k)
		}
	}
	return u
}

// unitCexec is the Cexec of service v with k consumers on input product 1
// under model m (see unitTables).
func unitCexec(app *workflow.App, m plan.Model, v, k int) rat.Rat {
	c, sK := app.Cost(v), app.Selectivity(v).MulInt(int64(max(1, k)))
	if m == plan.Overlap {
		return rat.MaxOf(rat.One, c, sK)
	}
	return rat.One.Add(c).Add(sK)
}

// unit returns the unit-volume Cexec of v with k consumers.
func (u unitTables) unit(v, k int) rat.Rat { return u.cexec[v*(len(u.cs)+1)+k] }

// --- per-solve tables, per-shard scratch ---

// maxMaskN is the largest instance the partial bounds can represent: they
// keep node sets as uint64 masks, so maxN clamps every exact-search cap to it.
const maxMaskN = 64

// subsetProducts tabulates a per-service factor's product over every subset
// of each 8-service chunk of a node mask: chunk c holds 2^min(8, n-8c)
// products, so the product over any mask costs one table read and one Mul
// per non-empty chunk after the first. Exact Rats are canonical, so the
// grouping gives the same value in the same form as a left-to-right loop.
type subsetProducts [][]rat.Rat

func newSubsetProducts(f []rat.Rat) subsetProducts {
	t := make(subsetProducts, max(1, (len(f)+7)/8)) // n = 0: one table, {1}
	for c := range t {
		tab := make([]rat.Rat, 1<<min(8, len(f)-8*c))
		tab[0] = rat.One
		for s := 1; s < len(tab); s++ {
			tab[s] = tab[s&(s-1)].Mul(f[8*c+bits.TrailingZeros(uint(s))])
		}
		t[c] = tab
	}
	return t
}

// of returns the product of the factors of the services in mask.
func (t subsetProducts) of(mask uint64) rat.Rat {
	p := t[0][mask&0xff]
	for c := 1; c < len(t); c++ {
		if s := mask >> (8 * c) & 0xff; s != 0 {
			p = p.Mul(t[c][s])
		}
	}
	return p
}

// boundTables are the constants of one solve the partial bounds read: built
// once by newBoundTables, shared read-only by every shard. Node sets are
// uint64 masks (bit u = service u), and the input products the bounds need
// are subset products of the selectivities and shrink factors.
type boundTables struct {
	unitTables
	n          int
	every      uint64 // the mask of all n nodes
	obj        Objective
	sel        []rat.Rat // selectivities
	cost       []rat.Rat
	tail       []rat.Rat // computation plus one output copy per unit volume: max(c, σ) for the OVERLAP period, c+σ otherwise
	selProd    subsetProducts
	shrinkProd subsetProducts // of shrinkFactor
	mandPred   []uint64       // mandPred[v]: the services precedence puts before v in every valid completion
	mandSucc   []uint64       // mandSucc[v]: the services precedence puts after v
	openAt     []uint64       // openAt[d]: the nodes touched by the undecided pairs[d:]
}

// newBoundTables builds the tables; prec is the transitive closure of the
// application's precedence constraints (nil or edgeless means unconstrained)
// and pairs the DAG search's pair order (nil for forests).
func newBoundTables(app *workflow.App, m plan.Model, obj Objective, prec *dag.Graph, pairs [][2]int) *boundTables {
	n := app.N()
	t := &boundTables{unitTables: unitCosts(app, m), n: n, every: 1<<uint(n) - 1, obj: obj}
	t.tail = append([]rat.Rat(nil), t.cs...)
	rats := make([]rat.Rat, 3*n)
	shrink := rats[2*n:]
	t.sel, t.cost = rats[:n], rats[n:2*n]
	for v := 0; v < n; v++ {
		t.sel[v], t.cost[v], shrink[v] = app.Selectivity(v), app.Cost(v), shrinkFactor(app, v)
		if obj == PeriodObjective && m == plan.Overlap {
			t.tail[v] = rat.Max(t.cost[v], t.sel[v])
		}
	}
	t.selProd, t.shrinkProd = newSubsetProducts(t.sel), newSubsetProducts(shrink)
	masks := make([]uint64, 2*n+len(pairs)+1)
	t.mandPred, t.mandSucc, t.openAt = masks[:n], masks[n:2*n], masks[2*n:]
	if prec != nil {
		for _, e := range prec.Edges() {
			t.mandPred[e[1]] |= 1 << uint(e[0])
			t.mandSucc[e[0]] |= 1 << uint(e[1])
		}
	}
	for d := len(pairs) - 1; d >= 0; d-- {
		t.openAt[d] = t.openAt[d+1] | 1<<uint(pairs[d][0]) | 1<<uint(pairs[d][1])
	}
	return t
}

// boundScratch is one shard's working storage for the partial bounds, sized
// once: a bound computed on a warm scratch allocates nothing. anc and desc
// hold each node's ancestor and descendant masks in the decided graph: the
// forest bound walks them off the parent chains; on DAGs, acyclic's Kahn
// pass builds anc and order, and the bound builds desc in reverse order.
type boundScratch struct {
	*boundTables
	anc, desc []uint64
	kids      []int     // forests: decided children
	indeg     []int     // DAGs: Kahn in-degrees
	order     []int     // DAGs: topological order
	minProd   []rat.Rat // smallest reachable input product
	minOut    []rat.Rat // minProd times the node's selectivity
	done      []rat.Rat
}

func newBoundScratch(t *boundTables) *boundScratch {
	n := t.n
	rats, masks, ints := make([]rat.Rat, 3*n), make([]uint64, 2*n), make([]int, 3*n)
	return &boundScratch{boundTables: t, anc: masks[:n], desc: masks[n:], kids: ints[:n], indeg: ints[n : 2*n],
		order: ints[2*n:], minProd: rats[:n], minOut: rats[n : 2*n], done: rats[2*n:]}
}

// acyclic is g.IsAcyclic on the shard's storage: one Kahn pass (smallest
// ready node first) that also leaves g's topological order in order and
// its ancestor masks in anc.
func (b *boundScratch) acyclic(g *dag.Graph) bool {
	var ready uint64
	for v := 0; v < b.n; v++ {
		b.anc[v], b.indeg[v] = 0, len(g.Pred(v))
		if b.indeg[v] == 0 {
			ready |= 1 << uint(v)
		}
	}
	order := b.order[:0]
	for ready != 0 {
		v := bits.TrailingZeros64(ready)
		ready &^= 1 << uint(v)
		order = append(order, v)
		for _, w := range g.Succ(v) {
			b.anc[w] |= b.anc[v] | 1<<uint(v)
			if b.indeg[w]--; b.indeg[w] == 0 {
				ready |= 1 << uint(w)
			}
		}
	}
	return len(order) == b.n
}

// reduced reports whether g, whose ancestor masks acyclic has just filled,
// is transitively reduced. Another path implies the edge p→v exactly when p
// is an ancestor of another predecessor of v, so one pass over Pred
// settles it.
func (b *boundScratch) reduced(g *dag.Graph) bool {
	for v := 0; v < b.n; v++ {
		var preds, above uint64
		for _, p := range g.Pred(v) {
			preds |= 1 << uint(p)
			above |= b.anc[p]
		}
		if preds&above != 0 {
			return false
		}
	}
	return true
}

// --- forests ---

// forest bounds the objective of every forest that completes the partial
// parent assignment: nodes 0..decided-1 carry their final parent (-1 =
// permanent root), nodes decided.. must still be -1 (free). The bound is
// exact-per-chain where possible: a decided node whose ancestor chain ends at
// a decided root keeps its input product forever, while chains ending at a
// free node may still gain every remaining shrinking service as an ancestor.
func (b *boundScratch) forest(parent []int, decided int) rat.Rat {
	n, anc, desc, kids, minProd := b.n, b.anc, b.desc, b.kids, b.minProd
	for v := range kids {
		kids[v], desc[v] = 0, 0
	}
	// anc[v]: v's decided ancestor chain, desc its mirror; fixed: the nodes
	// whose chain ends at a decided root, so no completion can extend it.
	var fixed uint64
	for v := 0; v < n; v++ {
		var mask uint64
		u := v
		for parent[u] >= 0 {
			u = parent[u]
			mask |= 1 << uint(u)
			desc[u] |= 1 << uint(v)
		}
		anc[v] = mask
		if u < decided {
			fixed |= 1 << uint(v)
		}
		if p := parent[v]; p >= 0 {
			kids[p]++
		}
	}
	// minProd[v]: the smallest input product v can reach in any completion.
	// Any service that is neither v, an ancestor of v, nor a decided
	// descendant of v (v on its chain) may still end up above an unfixed v.
	for v := 0; v < n; v++ {
		minProd[v] = b.selProd.of(anc[v])
		if fixed&(1<<uint(v)) == 0 {
			minProd[v] = minProd[v].Mul(b.shrinkProd.of(b.every &^ (anc[v] | desc[v] | 1<<uint(v))))
		}
	}
	bound := rat.Zero
	if b.obj == PeriodObjective {
		for v := 0; v < n; v++ {
			bound = rat.Max(bound, minProd[v].Mul(b.unit(v, kids[v])))
		}
		return bound
	}
	// Latency: the heaviest decided root-to-v chain, each computation and
	// each traversed communication at its smallest possible volume, plus the
	// unit input communication. Services inserted above a free chain top
	// only lengthen the path, so the partial chain is a valid witness.
	for v := 0; v < n; v++ {
		t := rat.One
		for u := v; u >= 0; u = parent[u] {
			t = t.Add(minProd[u].Mul(b.tail[u]))
		}
		bound = rat.Max(bound, t)
	}
	return bound
}

// --- DAGs ---

// dag bounds the objective of every DAG that completes the first `decided`
// orientations of pairs on the (acyclic) partial graph g: the remaining
// pairs may each stay absent or add one edge in either direction. Only nodes
// touched by an undecided pair ("open") can gain predecessors, successors or
// ancestors.
//
// A valid completion must contain every precedence edge in its own closure,
// so a precedence predecessor u of v (mand) is an ancestor of v in EVERY
// valid completion: its selectivity enters v's input product exactly —
// growth (σ > 1) included, where the optional-ancestor worst case must clamp
// to 1 — and precedence descendants of v can never feed or precede v. This
// is what lets the last-position floor below recover the chain family's
// exact floor when precedence is a total order.
func (b *boundScratch) dag(g *dag.Graph, decided int) rat.Rat {
	n, anc, desc, minProd, minOut := b.n, b.anc, b.desc, b.minProd, b.minOut
	if !b.acyclic(g) {
		return rat.Zero // cyclic partial graph: the caller prunes it outright
	}
	for i := n - 1; i >= 0; i-- {
		v := b.order[i]
		desc[v] = 0
		for _, w := range g.Succ(v) {
			desc[v] |= desc[w] | 1<<uint(w)
		}
	}
	open := b.openAt[decided]
	// minProd[v]: smallest reachable input product. Decided and
	// precedence-mandated ancestors contribute their exact selectivity;
	// the ancestor set is final once neither v nor any of its ancestors is
	// open; otherwise every service that may still move above v — not a
	// decided or mandated descendant — contributes its worst case.
	for v := 0; v < n; v++ {
		above := anc[v] | b.mandPred[v]
		p := b.selProd.of(above)
		if open&(anc[v]|1<<uint(v)) != 0 {
			p = p.Mul(b.shrinkProd.of(b.every &^ (above | desc[v] | b.mandSucc[v] | 1<<uint(v))))
		}
		minProd[v] = p
		minOut[v] = p.Mul(b.sel[v])
	}
	bound := rat.Zero
	if b.obj == LatencyObjective {
		// Longest path over the decided edges with minimal volumes; every
		// node still pays its input (≥ the unit entry communication somewhere
		// upstream), its computation and one outgoing copy. done[v] ends
		// after that copy.
		for _, v := range b.order {
			start := rat.One
			for _, p := range g.Pred(v) {
				start = rat.Max(start, b.done[p])
			}
			b.done[v] = start.Add(minProd[v].Mul(b.cost[v])).Add(minOut[v])
			bound = rat.Max(bound, b.done[v])
		}
		return bound
	}
	for v := 0; v < n; v++ {
		// Cin: decided predecessors stay and new ones only add volume. A
		// node with no predecessors yet either remains an entry (volume
		// 1) or gains one with at least the smallest producible volume.
		cin := rat.One
		if preds := g.Pred(v); len(preds) > 0 {
			cin = rat.Zero
			for _, p := range preds {
				cin = cin.Add(minOut[p])
			}
		} else if open&(1<<uint(v)) != 0 {
			// Decided or mandated descendants cannot feed v.
			for feed := b.every &^ (desc[v] | b.mandSucc[v] | 1<<uint(v)); feed != 0; feed &= feed - 1 {
				cin = rat.Min(cin, minOut[bits.TrailingZeros64(feed)])
			}
		}
		ccomp := minProd[v].Mul(b.cost[v])
		cout := minOut[v].MulInt(int64(max(1, g.OutDegree(v))))
		if b.m == plan.Overlap {
			bound = rat.MaxOf(bound, cin, ccomp, cout)
		} else {
			bound = rat.Max(bound, cin.Add(ccomp).Add(cout))
		}
	}
	// Source floor — every completion is acyclic, so its topological
	// first node has NO predecessors: it runs on input product exactly
	// 1, not the shrunk minProd the per-node terms use. Only a node
	// without decided predecessors — and without precedence
	// predecessors, which force a predecessor in every valid
	// completion — can end up there, edges only get added (its final
	// out-degree ≥ the decided one, and the unit Cexec is monotone in k),
	// so the minimum unit-volume Cexec over those candidates bounds
	// every completion. On shrinking workloads with most pairs still
	// open the per-node terms collapse toward the full shrink product
	// and this floor is the binding part.
	//
	// Last-position floor — the mirror at the other end of the
	// topological order: every completion has a last node, which can only
	// be a node without decided successors and without precedence
	// successors, and that node pays at least its computation and one
	// output copy (tail) on its smallest reachable input product. The unit
	// term deliberately omits the Cin component: with several
	// predecessors, Cin sums pred out-volumes while minProd multiplies
	// ancestor selectivities, and a product of expanding branches can
	// exceed the sum — including Cin here would overshoot. The floor's
	// strength comes from minProd's precedence-exact products: under a
	// total-order precedence the (unique) candidate carries every other
	// selectivity exactly, growth included — the chain family's exact
	// last-position floor.
	var src, last rat.Rat
	haveSrc, haveLast := false, false
	for v := 0; v < n; v++ {
		if len(g.Pred(v)) == 0 && b.mandPred[v] == 0 {
			if t := b.unit(v, g.OutDegree(v)); !haveSrc || t.Less(src) {
				src, haveSrc = t, true
			}
		}
		if g.OutDegree(v) == 0 && b.mandSucc[v] == 0 {
			if t := minProd[v].Mul(b.tail[v]); !haveLast || t.Less(last) {
				last, haveLast = t, true
			}
		}
	}
	if haveSrc {
		bound = rat.Max(bound, src)
	}
	if haveLast {
		bound = rat.Max(bound, last)
	}
	return bound
}

// --- the period floor ---

// periodFloor bounds the period of every plan of app under model m from
// below, with or without precedence constraints: chainCompletionBound's
// pigeonhole argument, carried from chains to every DAG. In a topological
// order of a plan, the service v at position k has at most k ancestors,
// so its input product is at least P_k(v), the product of the k smallest
// shrink factors among the other services. Each term of its Cexec — Cin
// (a sum of predecessor outputs, each a product over at most k of those
// services; or 1 at a source), Ccomp and Cout — is then at least the unit
// one scaled by P_k(v), so the plan's period is at least
// max_k unitCexec(π_k, 0)·P_k(π_k) for its order π. The floor is the
// bottleneck assignment: the minimum of that maximum over every order π.
// Precedence only adds ancestors, so it holds under precedence as well.
//
// A cost P_k(v)·unitCexec(v, 0) never grows with k (every shrink factor is
// at most 1), so under a threshold T each service may stand on a suffix of
// the positions, and an assignment exists iff, for every k, at least k+1
// services may stand at position k or before (the i-th smallest first
// feasible position is at most i). That holds iff the (k+1)-th smallest
// cost at position k is at most T, so the floor is the largest of those
// n order statistics: n² Muls and n sorts of n Rats, in two allocations
// whatever n (while the products fit int64 Rats).
func periodFloor(app *workflow.App, m plan.Model) rat.Rat {
	n := app.N()
	rats, ints := make([]rat.Rat, 4*n), make([]int, 2*n)
	factor, unit, prod, col := rats[:n], rats[n:2*n], rats[2*n:3*n], rats[3*n:]
	byFactor, rank := ints[:n], ints[n:]
	for v := 0; v < n; v++ {
		factor[v], unit[v], prod[v], byFactor[v] = shrinkFactor(app, v), unitCexec(app, m, v, 0), rat.One, v
	}
	slices.SortStableFunc(byFactor, func(a, b int) int { return factor[a].Cmp(factor[b]) })
	for r, v := range byFactor {
		rank[v] = r
	}
	floor := rat.Zero
	for k := 0; k < n; k++ {
		// prod[v] is P_k(v); col, sorted, holds position k's costs.
		for v := range col {
			col[v] = unit[v].Mul(prod[v])
		}
		slices.SortFunc(col, rat.Rat.Cmp)
		floor = rat.Max(floor, col[k])
		if k+1 == n {
			break
		}
		// P_{k+1}(v) gains the (k+1)-th smallest factor of the others:
		// byFactor[k], or byFactor[k+1] once v itself is among the first k+1.
		for v := range prod {
			j := k
			if rank[v] <= k {
				j = k + 1
			}
			prod[v] = prod[v].Mul(factor[byFactor[j]])
		}
	}
	return floor
}

// atFloor reports whether v meets floor (nil: no floor). Every plan's
// period is at least the floor, so a search holding a plan of value v
// can find nothing strictly better.
func atFloor(floor *rat.Rat, v rat.Rat) bool {
	return floor != nil && v.Leq(*floor)
}

// --- chains ---

// chainCompletionBound bounds every chain extending an exact prefix state:
// prefixObj is the objective accumulated over the placed prefix (the max
// per-server Cexec for MINPERIOD, the running latency for MINLATENCY),
// inProd the data volume leaving the prefix, rest the unplaced services, u
// the solve's unit tables.
//
// Both objectives use the same dominance argument over the suffix. A
// service placed with k other rest services before it keeps an input
// product of at least inProd times the k smallest shrink factors of rest,
// and the predecessor counts of the suffix are exactly {0, .., r-1}:
//
//   - MINPERIOD: among the t services with the largest per-volume Cexec,
//     one has at most r-t rest predecessors (pigeonhole), so some server
//     costs at least inProd·Π(r-t smallest factors)·(t-th largest unit);
//     the bound maximizes over t. t = r recovers "the next service runs on
//     the prefix's volume undiminished".
//   - MINLATENCY: every service adds its computation and one outgoing
//     copy; by the rearrangement inequality the sum is smallest when the
//     largest weights take the most-shrunk positions, so pairing the t-th
//     largest weight with the product of the r-t smallest factors bounds
//     the total from below.
func chainCompletionBound(app *workflow.App, u unitTables, obj Objective, prefixObj, inProd rat.Rat, rest []int) rat.Rat {
	r := len(rest)
	if r == 0 {
		return prefixObj
	}
	// shrink[k]: product of the k smallest shrink factors of rest.
	factors := make([]rat.Rat, r)
	for i, s := range rest {
		factors[i] = shrinkFactor(app, s)
	}
	sortRats(factors)
	shrink := make([]rat.Rat, r+1)
	shrink[0] = rat.One
	for k := 0; k < r; k++ {
		shrink[k+1] = shrink[k].Mul(factors[k])
	}
	// weights, descending: per-volume Cexec (period) or comp+copy (latency).
	weights := make([]rat.Rat, r)
	for i, s := range rest {
		if obj == PeriodObjective {
			weights[i] = u.unit(s, 1)
		} else {
			weights[i] = u.cs[s]
		}
	}
	sortRats(weights)
	reverseRats(weights)
	if obj == PeriodObjective {
		bound := prefixObj
		for t := 1; t <= r; t++ {
			bound = rat.Max(bound, inProd.Mul(shrink[r-t]).Mul(weights[t-1]))
		}
		// Last-position floor: whichever service ends the chain receives
		// the product of every other remaining selectivity EXACTLY — growth
		// included — so min over the possible last services bounds every
		// completion. This is the binding floor on expanding workloads,
		// where the shrink products above degenerate to 1.
		pre := make([]rat.Rat, r+1)
		pre[0] = rat.One
		for i, s := range rest {
			pre[i+1] = pre[i].Mul(app.Selectivity(s))
		}
		suf := rat.One
		var last rat.Rat
		for i := r - 1; i >= 0; i-- {
			v := pre[i].Mul(suf).Mul(u.unit(rest[i], 1))
			if i == r-1 || v.Less(last) {
				last = v
			}
			suf = suf.Mul(app.Selectivity(rest[i]))
		}
		return rat.Max(bound, inProd.Mul(last))
	}
	total := prefixObj
	for t := 1; t <= r; t++ {
		total = total.Add(inProd.Mul(shrink[r-t]).Mul(weights[t-1]))
	}
	return total
}

// sortRats sorts ascending (insertion sort: slices are search-suffix sized).
func sortRats(s []rat.Rat) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Less(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func reverseRats(s []rat.Rat) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
