package solve

// Admissible lower bounds on partially decided execution graphs, the
// pruning engine of the branch-and-bound searches (bnb.go).
//
// Each enumeration family decides its graphs incrementally — forests assign
// parents in node order, DAGs orient one node pair at a time — and every
// function here bounds the
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
// A bound costs O(n) operations per node. Node sets — decided ancestors
// and descendants, precedence predecessors and successors, the nodes still
// open — are uint64 masks, which cap the exact searches at maxMaskN
// services. A node's smallest reachable input product is Π σ over its
// fixed ancestors times Π shrink over the services that may still move
// above it.
//
// The bounds have two lanes, chosen once per solve by newBoundTables. On
// the int64 lane (boundLane) every bound is an integer B over one per-solve
// denominator D: the input product is three subset-table reads and two
// multiplies, and the bound is handed on as rat.New(B, D). A solve whose
// numbers do not fit the lane runs the exact-rational code instead, where
// the product is two subsetProducts reads and one Mul. Both lanes give the
// same Rat in the same form (TestPartialBoundLanesAgree), so every pruning
// decision is the same on either.

import (
	"math"
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
// read by the partial bounds and the hill climbs' move filter: unit(v, k)
// is the Cexec of service v with 0 ≤ k ≤ n consumers on input product 1
// (Cin = 1, Ccomp = c, Cout = σ·max(1,k), combined by max under OVERLAP
// and summed otherwise), so scaling it by a service's input product gives
// its per-server period bound on forests; cs[v] = c+σ.
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

// subsetTables tabulates a per-service factor's product over every subset
// of each 8-service chunk of a node mask: chunk c holds 2^min(8, n-8c)
// products, so the product over any mask costs one table read per chunk
// and one multiply per non-empty chunk after the first.
func subsetTables[T any](f []T, one T, mul func(T, T) T) [][]T {
	t := make([][]T, max(1, (len(f)+7)/8)) // n = 0: one table, {1}
	for c := range t {
		tab := make([]T, 1<<min(8, len(f)-8*c))
		tab[0] = one
		for s := 1; s < len(tab); s++ {
			tab[s] = mul(tab[s&(s-1)], f[8*c+bits.TrailingZeros(uint(s))])
		}
		t[c] = tab
	}
	return t
}

// subsetProducts are the subset tables of a Rat factor. Exact Rats are
// canonical, so the grouping gives the same value in the same form as a
// left-to-right loop.
type subsetProducts [][]rat.Rat

func newSubsetProducts(f []rat.Rat) subsetProducts {
	return subsetTables(f, rat.One, rat.Rat.Mul)
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
// are subset products of the selectivities and shrink factors: as Rats for
// the fallback, and scaled to integers in lane when the solve fits the
// int64 lane (nil: it does not, and every bound runs on Rats).
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
	lane       *boundLane
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
	t.lane = newBoundLane(t)
	return t
}

// --- the int64 lane ---

// laneCap bounds every integer the int64 lane computes (see newBoundLane).
const laneCap = 1 << 62

// boundLane is the partial bounds' int64 lane: every bound of one solve as
// a numerator over one denominator D = Dσ·L, where Dσ = Π_u den σ_u and
// L = lcm_u den c_u. A node's input product minProd[v] has one factor per
// other service: σ_u over its fixed ancestors A, the shrink factor over the
// services S that may still move above it, 1 over the rest R. So
// minProd[v]·Dσ/den σ_v is the integer
//
//	q[v] = Π_A num σ_u · Π_S shr_u · Π_R den σ_u,   shr_u = num σ_u if σ_u < 1, else den σ_u,
//
// three reads of the subset tables num, shr and dens (prod) and two
// multiplies. The per-service constants carry the rest of the scale,
// den σ_v·L, so every term of a bound is q[v] times one of them.
type boundLane struct {
	den            int64     // D
	num, shr, dens [][]int64 // subset tables of num σ_u, shr_u and den σ_u
	out            []int64   // num σ_v·L: minOut[v]·D = q[v]·out[v]
	comp           []int64   // c_v·den σ_v·L
	tail           []int64   // tail_v·den σ_v·L
	unit           []int64   // unit(v, k)·den σ_v·L, n+1 per service
	others         []int64   // Dσ/den σ_v, so unit(v, k)·D = unit[v*(n+1)+k]·others[v]
}

// newBoundLane returns t's int64 lane, or nil when the solve does not fit
// it. The guard asks that every selectivity and cost be a small rational
// and that Pmax·T·(n+1) ≤ laneCap, where
//   - Pmax = Π_u max(num σ_u, den σ_u) bounds every q[v] and every
//     subset-table entry;
//   - T = max(1, max_v max(unit(v, n), c_v+σ_v)·den σ_v·L) bounds every
//     per-service constant, and out[v]·k for every out-degree k < n;
//   - D ≤ Pmax·T.
//
// Every term of a bound is then at most Pmax·T, and a bound adds at most
// n+1 of them: a latency path's unit entry and one term per node, or a
// Cin's one term per predecessor and the node's own. So nothing the lane
// computes passes laneCap, and neither does any intermediate of the guard.
func newBoundLane(t *boundTables) *boundLane {
	n := t.n
	i64 := make([]int64, 3*n)
	sn, sd, shr := i64[:n], i64[n:2*n], i64[2*n:]
	dsig, lcm, pmax := uint64(1), uint64(1), uint64(1)
	for v := 0; v < n; v++ {
		num, ok1 := t.sel[v].Num64()
		den, ok2 := t.sel[v].Den64()
		cd, ok3 := t.cost[v].Den64()
		if !(ok1 && ok2 && ok3) {
			return nil
		}
		sn[v], sd[v], shr[v] = num, den, min(num, den) // σ < 1 iff num < den
		var ok4, ok5, ok6 bool
		dsig, ok4 = mulCap(dsig, uint64(den))
		lcm, ok5 = rat.LCM(lcm, uint64(cd), laneCap)
		pmax, ok6 = mulCap(pmax, uint64(max(num, den)))
		if !(ok4 && ok5 && ok6) {
			return nil
		}
	}
	l := &boundLane{num: subsetTables(sn, 1, mul64), shr: subsetTables(shr, 1, mul64), dens: subsetTables(sd, 1, mul64)}
	consts := make([]int64, n*(n+1)+4*n)
	l.unit, consts = consts[:n*(n+1)], consts[n*(n+1):]
	l.out, l.comp, l.tail, l.others = consts[:n], consts[n:2*n], consts[2*n:3*n], consts[3*n:]
	top := uint64(1) // T
	// scaled returns r·s, an integer here, and whether it is at most
	// laneCap; T keeps the largest.
	scaled := func(r rat.Rat, s uint64) (int64, bool) {
		x, ok := r.Mul(rat.I(int64(s))).Num64()
		top = max(top, uint64(x))
		return x, ok && x <= laneCap
	}
	for v := 0; v < n; v++ {
		s, ok := mulCap(uint64(sd[v]), lcm)
		if !ok {
			return nil
		}
		var ok1, ok2, ok3, ok4 bool
		l.out[v], ok1 = scaled(t.sel[v], s) // num σ_v·L
		l.comp[v], ok2 = scaled(t.cost[v], s)
		l.tail[v], ok3 = scaled(t.tail[v], s)
		_, ok4 = scaled(t.cs[v], s) // c+σ enters T only
		if !(ok1 && ok2 && ok3 && ok4) {
			return nil
		}
		for k := 0; k <= n; k++ {
			if l.unit[v*(n+1)+k], ok = scaled(t.unit(v, k), s); !ok {
				return nil
			}
		}
		l.others[v] = int64(dsig) / sd[v]
	}
	guard, ok1 := mulCap(pmax, top)
	if _, ok2 := mulCap(guard, uint64(n+1)); !(ok1 && ok2) {
		return nil
	}
	l.den = int64(dsig * lcm) // at most Pmax·T
	return l
}

// mulCap returns a·b and whether it is at most laneCap.
func mulCap(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi == 0 && lo <= laneCap
}

func mul64(a, b int64) int64 { return a * b }

// prod returns q for a node whose fixed ancestors, shrinking candidates
// and remaining services are the disjoint masks a, s and r.
func (l *boundLane) prod(a, s, r uint64) int64 {
	p := l.num[0][a&0xff] * l.shr[0][s&0xff] * l.dens[0][r&0xff]
	if len(l.num) > 1 {
		p *= l.prodAbove8(a, s, r)
	}
	return p
}

// prodAbove8 is prod's factor from the chunks past the first.
func (l *boundLane) prodAbove8(a, s, r uint64) int64 {
	p := int64(1)
	for c := 1; c < len(l.num); c++ {
		sh := 8 * uint(c)
		p *= l.num[c][a>>sh&0xff] * l.shr[c][s>>sh&0xff] * l.dens[c][r>>sh&0xff]
	}
	return p
}

// boundScratch is one shard's working storage for the partial bounds, sized
// once: a bound computed on a warm scratch allocates nothing. anc and desc
// hold each node's ancestor and descendant masks in the decided graph: the
// forest bound walks them off the parent chains; on DAGs, acyclic's Kahn
// pass builds anc and order, and the bound builds desc in reverse order.
// The per-node values are the fallback's Rats, or the int64 lane's scaled
// integers (see boundLane).
type boundScratch struct {
	*boundTables
	anc, desc []uint64
	kids      []int     // forests: decided children
	indeg     []int     // DAGs: Kahn in-degrees
	order     []int     // DAGs: topological order
	minProd   []rat.Rat // smallest reachable input product
	minOut    []rat.Rat // minProd times the node's selectivity
	done      []rat.Rat
	q, out    []int64 // the lane's minProd (as q) and minOut·D
	doneD     []int64 // the lane's done·D
}

func newBoundScratch(t *boundTables) *boundScratch {
	n := t.n
	rats, masks, ints := make([]rat.Rat, 3*n), make([]uint64, 2*n), make([]int, 3*n)
	b := &boundScratch{boundTables: t, anc: masks[:n], desc: masks[n:], kids: ints[:n], indeg: ints[n : 2*n],
		order: ints[2*n:], minProd: rats[:n], minOut: rats[n : 2*n], done: rats[2*n:]}
	if t.lane != nil {
		i64 := make([]int64, 3*n)
		b.q, b.out, b.doneD = i64[:n], i64[n:2*n], i64[2*n:]
	}
	return b
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
	if b.lane != nil {
		return b.forestLane(parent, fixed)
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

// forestLane is forest's bound on the int64 lane, from the masks forest
// has built: the same terms, scaled by D.
func (b *boundScratch) forestLane(parent []int, fixed uint64) rat.Rat {
	l, n, q := b.lane, b.n, b.q
	var bound int64
	for v := 0; v < n; v++ {
		var shrink uint64
		if fixed&(1<<uint(v)) == 0 {
			shrink = b.every &^ (b.anc[v] | b.desc[v] | 1<<uint(v))
		}
		q[v] = l.prod(b.anc[v], shrink, b.every&^(b.anc[v]|shrink|1<<uint(v)))
		if b.obj == PeriodObjective {
			bound = max(bound, q[v]*l.unit[v*(n+1)+b.kids[v]])
		}
	}
	if b.obj == PeriodObjective {
		return rat.New(bound, l.den)
	}
	for v := 0; v < n; v++ {
		t := l.den
		for u := v; u >= 0; u = parent[u] {
			t += q[u] * l.tail[u]
		}
		bound = max(bound, t)
	}
	return rat.New(bound, l.den)
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
// is what lets the last-position floor below be exact when precedence is a
// total order (the one chain it admits).
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
	if b.lane != nil {
		return b.dagLane(g, open)
	}
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
	// selectivity exactly, growth included — the exact last-position floor
	// of the one chain that order admits.
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

// dagLane is dag's bound on the int64 lane, from the masks dag has built:
// the same terms, scaled by D.
func (b *boundScratch) dagLane(g *dag.Graph, open uint64) rat.Rat {
	l, n, q, out := b.lane, b.n, b.q, b.out
	for v := 0; v < n; v++ {
		above := b.anc[v] | b.mandPred[v]
		var shrink uint64
		if open&(b.anc[v]|1<<uint(v)) != 0 {
			shrink = b.every &^ (above | b.desc[v] | b.mandSucc[v] | 1<<uint(v))
		}
		q[v] = l.prod(above, shrink, b.every&^(above|shrink|1<<uint(v)))
		out[v] = q[v] * l.out[v]
	}
	var bound int64
	if b.obj == LatencyObjective {
		for _, v := range b.order {
			start := l.den
			for _, p := range g.Pred(v) {
				start = max(start, b.doneD[p])
			}
			b.doneD[v] = start + q[v]*l.comp[v] + out[v]
			bound = max(bound, b.doneD[v])
		}
		return rat.New(bound, l.den)
	}
	src, last := int64(math.MaxInt64), int64(math.MaxInt64) // none yet
	for v := 0; v < n; v++ {
		cin, preds := l.den, g.Pred(v)
		if len(preds) > 0 {
			cin = 0
			for _, p := range preds {
				cin += out[p]
			}
		} else if open&(1<<uint(v)) != 0 {
			for feed := b.every &^ (b.desc[v] | b.mandSucc[v] | 1<<uint(v)); feed != 0; feed &= feed - 1 {
				cin = min(cin, out[bits.TrailingZeros64(feed)])
			}
		}
		k := g.OutDegree(v)
		ccomp, cout := q[v]*l.comp[v], out[v]*int64(max(1, k))
		if b.m == plan.Overlap {
			bound = max(bound, cin, ccomp, cout)
		} else {
			bound = max(bound, cin+ccomp+cout)
		}
		if len(preds) == 0 && b.mandPred[v] == 0 {
			src = min(src, l.unit[v*(n+1)+k]*l.others[v])
		}
		if k == 0 && b.mandSucc[v] == 0 {
			last = min(last, q[v]*l.tail[v])
		}
	}
	if src < math.MaxInt64 {
		bound = max(bound, src)
	}
	if last < math.MaxInt64 {
		bound = max(bound, last)
	}
	return rat.New(bound, l.den)
}

// --- the period floor ---

// periodFloor bounds the period of every plan of app under model m from
// below, with or without precedence constraints, by a pigeonhole argument
// over positions. In a topological order of a plan, the service v at
// position k has at most k ancestors, so its input product is at least
// P_k(v), the product of the k smallest shrink factors among the other
// services. Each term of its Cexec — Cin
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
