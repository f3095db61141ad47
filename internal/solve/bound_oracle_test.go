package solve

// The partial bounds as they were before they moved onto per-shard scratch
// (bound.go): every call allocates its working slices, asks the graph for
// fresh ancestor bitsets and recomputes the solve's constants. Kept verbatim
// as the oracle TestScratchBoundsMatchAllocatingReference holds the shipped
// bounds to — equal Rats on every node of full searches, not just admissible.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// forestPartialBoundRef bounds the objective of every forest that completes the
// partial parent assignment: nodes 0..decided-1 carry their final parent
// (-1 = permanent root), nodes decided.. must still be -1 (free). The bound
// is exact-per-chain where possible: a decided node whose ancestor chain
// ends at a decided root keeps its input product forever, while chains
// ending at a free node may still gain every remaining shrinking service as
// an ancestor.
func forestPartialBoundRef(app *workflow.App, m plan.Model, obj Objective, parent []int, decided int) rat.Rat {
	n := app.N()
	if n == 0 {
		return rat.Zero
	}
	// anc[v]: bitmask of v's decided ancestor chain; fixed[v]: the chain
	// ends at a decided root, so no completion can extend it.
	anc := make([]uint64, n)
	fixed := make([]bool, n)
	kids := make([]int, n)
	for v := 0; v < n; v++ {
		var mask uint64
		u := v
		for parent[u] >= 0 {
			u = parent[u]
			mask |= 1 << uint(u)
		}
		anc[v] = mask
		fixed[v] = u < decided
		if p := parent[v]; p >= 0 {
			kids[p]++
		}
	}
	// minProd[v]: the smallest input product v can reach in any completion.
	minProd := make([]rat.Rat, n)
	for v := 0; v < n; v++ {
		p := rat.One
		for u := 0; u < n; u++ {
			if anc[v]&(1<<uint(u)) != 0 {
				p = p.Mul(app.Selectivity(u))
			}
		}
		chain := anc[v]
		if !fixed[v] {
			// Any service that is neither v, an ancestor of v, nor a decided
			// descendant of v (v on its chain) may still end up above v.
			for u := 0; u < n; u++ {
				if u == v || chain&(1<<uint(u)) != 0 || anc[u]&(1<<uint(v)) != 0 {
					continue
				}
				p = p.Mul(shrinkFactor(app, u))
			}
		}
		minProd[v] = p
	}
	if obj == PeriodObjective {
		bound, units := rat.Zero, unitCosts(app, m)
		for v := 0; v < n; v++ {
			bound = rat.Max(bound, minProd[v].Mul(units.unit(v, kids[v])))
		}
		return bound
	}
	// Latency: the heaviest decided root-to-v chain, each computation and
	// each traversed communication at its smallest possible volume, plus the
	// unit input communication. Services inserted above a free chain top
	// only lengthen the path, so the partial chain is a valid witness.
	best := rat.Zero
	for v := 0; v < n; v++ {
		t := rat.One
		u := v
		for {
			t = t.Add(minProd[u].Mul(app.Cost(u).Add(app.Selectivity(u))))
			if parent[u] < 0 {
				break
			}
			u = parent[u]
		}
		best = rat.Max(best, t)
	}
	return best
}

// dagPartialBoundRef bounds the objective of every DAG that completes the
// first `decided` orientations of pairs on the (acyclic) partial graph g:
// the remaining pairs may each stay absent or add one edge in either
// direction. Only nodes touched by an undecided pair ("open") can gain
// predecessors, successors or ancestors.
//
// prec is the transitive closure of the application's precedence
// constraints (nil or edgeless means unconstrained). A valid completion
// must contain every precedence edge in its own closure, so a precedence
// predecessor u of v is an ancestor of v in EVERY valid completion: its
// selectivity enters v's input product exactly — growth (σ > 1)
// included, where the optional-ancestor worst case must clamp to 1 — and
// precedence descendants of v can never feed or precede v. This is what
// lets the last-position floor below recover the chain family's exact
// floor when precedence is a total order.
func dagPartialBoundRef(app *workflow.App, m plan.Model, obj Objective, g *dag.Graph, prec *dag.Graph, pairs [][2]int, decided int) rat.Rat {
	n := app.N()
	if n == 0 {
		return rat.Zero
	}
	_, anc, err := g.AncestorsInto(new(dag.Scratch))
	if err != nil {
		return rat.Zero // cyclic partial graph: the caller prunes it outright
	}
	constrained := prec != nil && prec.EdgeCount() > 0
	// mandated(u, v): u precedes v in every valid completion.
	mandated := func(u, v int) bool {
		return constrained && prec.HasEdge(u, v)
	}
	open := make([]bool, n)
	for i := decided; i < len(pairs); i++ {
		open[pairs[i][0]] = true
		open[pairs[i][1]] = true
	}
	// minProd[v]: smallest reachable input product. Decided and
	// precedence-mandated ancestors contribute their exact selectivity;
	// the ancestor set is final once neither v nor any of its ancestors is
	// open; otherwise every service that may still move above v — not a
	// decided or mandated descendant — contributes its worst case.
	minProd := make([]rat.Rat, n)
	minOut := make([]rat.Rat, n)
	for v := 0; v < n; v++ {
		p := rat.One
		grows := open[v]
		anc[v].ForEach(func(u int) {
			p = p.Mul(app.Selectivity(u))
			if open[u] {
				grows = true
			}
		})
		if constrained {
			for _, u := range prec.Pred(v) { // closure: preds = all mandated ancestors
				if !anc[v].Has(u) {
					p = p.Mul(app.Selectivity(u))
				}
			}
		}
		if grows {
			for u := 0; u < n; u++ {
				if u == v || anc[v].Has(u) || anc[u].Has(v) ||
					mandated(u, v) || mandated(v, u) {
					continue
				}
				p = p.Mul(shrinkFactor(app, u))
			}
		}
		minProd[v] = p
		minOut[v] = p.Mul(app.Selectivity(v))
	}
	if obj == PeriodObjective {
		bound := rat.Zero
		for v := 0; v < n; v++ {
			// Cin: decided predecessors stay and new ones only add volume. A
			// node with no predecessors yet either remains an entry (volume
			// 1) or gains one with at least the smallest producible volume.
			var cin rat.Rat
			if preds := g.Pred(v); len(preds) > 0 {
				cin = rat.Zero
				for _, p := range preds {
					cin = cin.Add(minOut[p])
				}
			} else if !open[v] {
				cin = rat.One
			} else {
				cin = rat.One
				for u := 0; u < n; u++ {
					// Decided or mandated descendants cannot feed v.
					if u == v || anc[u].Has(v) || mandated(v, u) {
						continue
					}
					cin = rat.Min(cin, minOut[u])
				}
			}
			ccomp := minProd[v].Mul(app.Cost(v))
			k := g.OutDegree(v)
			if k < 1 {
				k = 1
			}
			cout := minOut[v].MulInt(int64(k))
			var cexec rat.Rat
			if m == plan.Overlap {
				cexec = rat.MaxOf(cin, ccomp, cout)
			} else {
				cexec = cin.Add(ccomp).Add(cout)
			}
			bound = rat.Max(bound, cexec)
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
		var src rat.Rat
		haveSrc, units := false, unitCosts(app, m)
		for v := 0; v < n; v++ {
			if len(g.Pred(v)) > 0 || (constrained && len(prec.Pred(v)) > 0) {
				continue
			}
			t := units.unit(v, g.OutDegree(v))
			if !haveSrc || t.Less(src) {
				src, haveSrc = t, true
			}
		}
		if haveSrc {
			bound = rat.Max(bound, src)
		}
		// Last-position floor — the mirror of the source floor at the
		// other end of the topological order: every completion has a last
		// node, which can only be a node without decided successors and
		// without precedence successors, and that node pays at least its
		// computation and one output copy on its smallest reachable input
		// product. The unit term deliberately omits the Cin component:
		// with several predecessors, Cin sums pred out-volumes while
		// minProd multiplies ancestor selectivities, and a product of
		// expanding branches can exceed the sum — including Cin here would
		// overshoot. The floor's strength comes from minProd's
		// precedence-exact products: under a total-order precedence the
		// (unique) candidate carries every other selectivity exactly,
		// growth included — the chain family's exact last-position floor.
		var last rat.Rat
		haveLast := false
		for v := 0; v < n; v++ {
			if g.OutDegree(v) > 0 || (constrained && len(prec.Succ(v)) > 0) {
				continue
			}
			var unit rat.Rat
			if m == plan.Overlap {
				unit = rat.Max(app.Cost(v), app.Selectivity(v))
			} else {
				unit = app.Cost(v).Add(app.Selectivity(v))
			}
			t := minProd[v].Mul(unit)
			if !haveLast || t.Less(last) {
				last, haveLast = t, true
			}
		}
		if haveLast {
			bound = rat.Max(bound, last)
		}
		return bound
	}
	// Latency: longest path over the decided edges with minimal volumes;
	// every node still pays its input (≥ the unit entry communication
	// somewhere upstream), its computation and one outgoing copy.
	topo, err := g.TopoSort()
	if err != nil {
		return rat.Zero
	}
	done := make([]rat.Rat, n)
	best := rat.Zero
	for _, v := range topo {
		start := rat.One
		for _, p := range g.Pred(v) {
			start = rat.Max(start, done[p].Add(minOut[p]))
		}
		done[v] = start.Add(minProd[v].Mul(app.Cost(v)))
		best = rat.Max(best, done[v].Add(minOut[v]))
	}
	return best
}

// forestPartialBound and dagPartialBound compute the shipped bounds on a
// fresh scratch, for tests that query one partial decision at a time.
func forestPartialBound(app *workflow.App, m plan.Model, obj Objective, parent []int, decided int) rat.Rat {
	return newBoundScratch(newBoundTables(app, m, obj, nil, nil)).forest(parent, decided)
}

func dagPartialBound(app *workflow.App, m plan.Model, obj Objective, g *dag.Graph, prec *dag.Graph, pairs [][2]int, decided int) rat.Rat {
	return newBoundScratch(newBoundTables(app, m, obj, prec, pairs)).dag(g, decided)
}

// sameBound fails unless the scratch bound is the reference's Rat: same
// value in the same (canonical) form.
func sameBound(t *testing.T, what string, got, want rat.Rat) {
	t.Helper()
	if !got.Equal(want) || got.String() != want.String() {
		t.Fatalf("%s: scratch bound %s, allocating reference %s", what, got, want)
	}
}

// walkForestTree visits every partial parent assignment of the forest
// search on n nodes, in bnbForestRec's depth-first order without pruning:
// visit(parent, v) sees nodes 0..v-1 decided.
func walkForestTree(n int, visit func(parent []int, v int)) {
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -1
	}
	var walk func(v int)
	walk = func(v int) {
		visit(parent, v)
		if v == n {
			return
		}
		for p := -1; p < n; p++ {
			if p == v || (p >= 0 && parentChainReaches(parent, p, v)) {
				continue
			}
			parent[v] = p
			walk(v + 1)
		}
		parent[v] = -1
	}
	walk(0)
}

// walkDAGTree visits every partial orientation of the DAG search, in
// bnbDAGRec's depth-first order without pruning (no edge, then each
// direction that reverses no precedence path and passes acyclic):
// visit(g, i) sees pairs[:i] decided.
func walkDAGTree(prec *dag.Graph, pairs [][2]int, acyclic func(*dag.Graph) bool, visit func(g *dag.Graph, i int)) {
	g := dag.New(prec.N())
	var walk func(i int)
	walk = func(i int) {
		visit(g, i)
		if i == len(pairs) {
			return
		}
		walk(i + 1)
		for _, e := range [][2]int{pairs[i], {pairs[i][1], pairs[i][0]}} {
			if prec.HasEdge(e[1], e[0]) {
				continue
			}
			g.AddEdge(e[0], e[1])
			if acyclic(g) {
				walk(i + 1)
			}
			g.RemoveEdge(e[0], e[1])
		}
	}
	walk(0)
}

// onLane fails unless the tables take the int64 lane exactly when want
// says so.
func onLane(t *testing.T, name string, tables *boundTables, want bool) *boundTables {
	t.Helper()
	if (tables.lane != nil) != want {
		t.Fatalf("%s: int64 lane taken %v, want %v", name, tables.lane != nil, want)
	}
	return tables
}

// TestScratchBoundsMatchAllocatingReference walks the complete branching
// tree of the forest and DAG searches — every partial decision any pruned
// run can expand, in the searches' own depth-first order, so each bound is
// computed on a scratch left dirty by the previous node — and holds the
// scratch bounds to the allocating reference, Rat for Rat. 120 random
// instances, every profile, half of the DAG ones with precedence, on the
// int64 lane; and each again with one selectivity widened to
// 999999937/1000000007, on the rational fallback.
func TestScratchBoundsMatchAllocatingReference(t *testing.T) {
	seeds := 10
	if testing.Short() || raceEnabled {
		seeds = 2
	}
	objectives := []Objective{PeriodObjective, LatencyObjective}
	nodes := 0
	for seed := 0; seed < seeds; seed++ {
		for _, profile := range []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding} {
			rng := gen.NewRand(int64(100*seed) + int64(profile))

			// Forests, as bnbForestRec assigns parents.
			for _, n := range []int{3, 5} {
				drawn := gen.App(rng, n, profile)
				for _, app := range []*workflow.App{drawn, wideSelectivity(drawn)} {
					lane := app == drawn
					for _, m := range plan.Models {
						for _, obj := range objectives {
							name := fmt.Sprintf("seed %d %s %s/%s forest (lane %v)", seed, profile, m, obj, lane)
							b := newBoundScratch(onLane(t, name, newBoundTables(app, m, obj, nil, nil), lane))
							walkForestTree(n, func(parent []int, v int) {
								nodes++
								sameBound(t, fmt.Sprintf("%s %v decided %d", name, parent, v),
									b.forest(parent, v), forestPartialBoundRef(app, m, obj, parent, v))
							})
						}
					}
				}
			}

			// DAGs, as bnbDAGRec orients pairs, without and with precedence.
			drawn := []*workflow.App{gen.App(rng, 4, profile), gen.AppWithPrecedence(rng, 4, profile, 0.4)}
			for i, app := range append(drawn, wideSelectivity(drawn[0]), wideSelectivity(drawn[1])) {
				lane := i < len(drawn)
				prec, err := app.Precedence().TransitiveClosure()
				if err != nil {
					t.Fatal(err)
				}
				n := app.N()
				pairs := nodePairs(n)
				for _, m := range plan.Models {
					for _, obj := range objectives {
						name := fmt.Sprintf("seed %d %s %s/%s DAG (lane %v)", seed, profile, m, obj, lane)
						b := newBoundScratch(onLane(t, name, newBoundTables(app, m, obj, prec, pairs), lane))
						acyclic := func(g *dag.Graph) bool {
							acyclic := b.acyclic(g)
							if acyclic != g.IsAcyclic() {
								t.Fatalf("scratch acyclicity %v disagrees with IsAcyclic on %v", acyclic, g.Edges())
							}
							return acyclic
						}
						walkDAGTree(prec, pairs, acyclic, func(g *dag.Graph, i int) {
							nodes++
							sameBound(t, fmt.Sprintf("%s %v decided %d", name, g.Edges(), i),
								b.dag(g, i), dagPartialBoundRef(app, m, obj, g, prec, pairs, i))
						})
					}
				}
			}
		}
	}
	t.Logf("%d partial decisions compared", nodes)
}

// TestPartialBoundAllocBudget: on a warm shard scratch a partial bound
// allocates nothing — forest and DAG, both objectives, with precedence, on
// the int64 lane and, with one selectivity widened to
// 999999937/1000000007, on the rational fallback.
func TestPartialBoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	drawn := gen.AppWithPrecedence(gen.NewRand(8), 5, gen.Mixed, 0.4)
	prec, err := drawn.Precedence().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	n := drawn.N()
	pairs := nodePairs(n)
	parent := []int{-1, 0, 0, 2, -1}
	g := dag.New(n)
	for _, e := range prec.Edges() {
		g.AddEdge(e[0], e[1])
	}
	for _, app := range []*workflow.App{drawn, wideSelectivity(drawn)} {
		lane := app == drawn
		for _, m := range []plan.Model{plan.Overlap, plan.InOrder} {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				name := fmt.Sprintf("%s/%s (lane %v)", m, obj, lane)
				b := newBoundScratch(onLane(t, name, newBoundTables(app, m, obj, prec, pairs), lane))
				run := func() {
					b.forest(parent, 4)
					b.acyclic(g)
					b.dag(g, len(pairs)/2)
					b.selProd.of(b.every)
				}
				run()
				if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
					t.Errorf("%s: partial bounds on a warm scratch allocated %.1f times per run, want 0", name, allocs)
				}
			}
		}
	}
}

// TestSubsetProducts holds the chunked subset-product table to a naive
// left-to-right product over every mask — equal Rats in equal form — at
// sizes around the 8-service chunk edges, with growth (σ > 1), σ = 0 and
// products that leave int64.
func TestSubsetProducts(t *testing.T) {
	factors := []rat.Rat{rat.New(3, 2), rat.New(999999937, 1000000007), rat.I(7), rat.New(1, 3), rat.New(2, 5)}
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17} {
		f := make([]rat.Rat, n)
		for i := range f {
			f[i] = factors[i%len(factors)]
		}
		if n > 12 {
			f[12] = rat.Zero
		}
		tab := newSubsetProducts(f)
		for mask := uint64(0); mask < 1<<uint(n); mask++ {
			want := rat.One
			for u := 0; u < n; u++ {
				if mask&(1<<uint(u)) != 0 {
					want = want.Mul(f[u])
				}
			}
			if got := tab.of(mask); !got.Equal(want) || got.String() != want.String() {
				t.Fatalf("n=%d mask %b: table product %s, naive product %s", n, mask, got, want)
			}
		}
	}
}

// boundSink keeps BenchmarkPartialBound's bounds live.
var boundSink rat.Rat

// BenchmarkPartialBound bounds every partial decision of the forest search
// at n = 7 and of the DAG search at n = 5 (without and with precedence), in
// the searches' depth-first order on one warm scratch — no pruning, so the
// whole branching tree — and reports ns/node and allocs/node (OVERLAP, both
// objectives). Every row runs on the int64 lane but the -fallback ones,
// whose DAG instance has one selectivity widened to 999999937/1000000007.
func BenchmarkPartialBound(b *testing.B) {
	rng := gen.NewRand(36)
	forestApp := gen.App(rng, 7, gen.Mixed)
	dagApp := gen.App(rng, 5, gen.Mixed)
	dagApps := []struct {
		name string
		app  *workflow.App
	}{{"dag-n5", dagApp}, {"dag-n5-prec", gen.AppWithPrecedence(rng, 5, gen.Mixed, 0.4)}, {"dag-n5-fallback", wideSelectivity(dagApp)}}
	// bench times walk(true), which bounds every node it visits and counts
	// it. allocs/node leaves out the walk's own allocations: those of a
	// second walk(false), which visits the same nodes and bounds none.
	bench := func(b *testing.B, nodes *int, walk func(bound bool)) {
		var before, after runtime.MemStats
		walk(false)
		runtime.ReadMemStats(&before)
		walk(false)
		runtime.ReadMemStats(&after)
		harness := int64(after.Mallocs - before.Mallocs)
		*nodes = 0
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			walk(true)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(*nodes), "ns/node")
		b.ReportMetric(float64(int64(after.Mallocs-before.Mallocs)-int64(b.N)*harness)/float64(*nodes), "allocs/node")
	}
	for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
		b.Run("forest-n7/"+obj.String(), func(b *testing.B) {
			sc := newBoundScratch(newBoundTables(forestApp, plan.Overlap, obj, nil, nil))
			nodes := 0
			bench(b, &nodes, func(bound bool) {
				walkForestTree(forestApp.N(), func(parent []int, v int) {
					nodes++
					if bound {
						boundSink = sc.forest(parent, v)
					}
				})
			})
		})
		for _, d := range dagApps {
			b.Run(d.name+"/"+obj.String(), func(b *testing.B) {
				prec, err := d.app.Precedence().TransitiveClosure()
				if err != nil {
					b.Fatal(err)
				}
				pairs := nodePairs(d.app.N())
				sc := newBoundScratch(newBoundTables(d.app, plan.Overlap, obj, prec, pairs))
				nodes := 0
				bench(b, &nodes, func(bound bool) {
					walkDAGTree(prec, pairs, sc.acyclic, func(g *dag.Graph, i int) {
						nodes++
						if bound {
							boundSink = sc.dag(g, i)
						}
					})
				})
			})
		}
	}
}
