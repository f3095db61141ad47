package reduction

import (
	"fmt"
	"sort"

	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// --- Proposition 2/3: period orchestration gadget (OUTORDER/INORDER) ---

// OrchPeriodGadget is the execution graph of Figure 9: computing its
// optimal one-port period decides RN3DM. The instance has a period-(2n+3)
// operation list iff the RN3DM instance is YES.
type OrchPeriodGadget struct {
	// Graph is the fixed execution graph the orchestration problem is posed
	// on.
	Graph *plan.ExecGraph
	// K is the decision bound 2n+3.
	K rat.Rat

	n int
	// service indices
	c1, c2n2, c2n3, c2n4, c2n5 int
	evens, odds                []int // C_{2i} and C_{2i+1} for i = 1..n
}

// NewOrchPeriodGadget builds the Proposition 2 gadget for instance r.
func NewOrchPeriodGadget(r RN3DM) (*OrchPeriodGadget, error) {
	n := r.N()
	if n < 1 {
		return nil, fmt.Errorf("reduction: empty RN3DM instance")
	}
	g := &OrchPeriodGadget{n: n, K: rat.I(int64(2*n + 3))}
	services := make([]workflow.Service, 2*n+5)
	for i := range services {
		services[i] = workflow.Service{Selectivity: rat.One}
	}
	g.c1 = 0
	services[g.c1].Cost = rat.I(int64(n))
	for i := 1; i <= n; i++ {
		even := 2*i - 1 // C_{2i}
		odd := 2 * i    // C_{2i+1}
		services[even].Cost = rat.I(int64(2*n + 1))
		services[odd].Cost = rat.I(int64(2*n + 1 - r.A[i-1]))
		g.evens = append(g.evens, even)
		g.odds = append(g.odds, odd)
	}
	g.c2n2 = 2*n + 1
	g.c2n3 = 2*n + 2
	g.c2n4 = 2*n + 3
	g.c2n5 = 2*n + 4
	services[g.c2n2].Cost = rat.I(int64(2*n + 1))
	services[g.c2n3].Cost = rat.I(int64(2*n + 1))
	services[g.c2n4].Cost = rat.I(int64(2*n + 1))
	services[g.c2n5].Cost = rat.I(int64(n))
	app, err := workflow.New(services, nil)
	if err != nil {
		return nil, err
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges,
			[2]int{g.c1, g.evens[i]},
			[2]int{g.evens[i], g.odds[i]},
			[2]int{g.odds[i], g.c2n5})
	}
	edges = append(edges,
		[2]int{g.c1, g.c2n2}, [2]int{g.c2n2, g.c2n3}, [2]int{g.c2n3, g.c2n5},
		[2]int{g.c1, g.c2n4}, [2]int{g.c2n4, g.c2n5})
	eg, err := plan.Build(app, edges)
	if err != nil {
		return nil, err
	}
	g.Graph = eg
	return g, nil
}

// WitnessOrders returns the per-server communication orders the YES proof
// prescribes for permutations lam1/lam2 (1-based): C1 sends to C_{2n+2}
// first, then the even services in λ1 order, then C_{2n+4}; C_{2n+5}
// receives from C_{2n+4} first, then the odd services by decreasing λ2,
// then C_{2n+3}.
func (g *OrchPeriodGadget) WitnessOrders(lam1, lam2 []int) orchestrate.Orders {
	w := g.Graph.Weighted()
	orders := orchestrate.DefaultOrders(w)

	edgeIdx := func(from, to int) int {
		idx := w.EdgeIndex(plan.Edge{From: from, To: to})
		if idx < 0 {
			panic(fmt.Sprintf("reduction: missing edge %d->%d", from, to))
		}
		return idx
	}
	// C1's send order.
	var out []int
	out = append(out, edgeIdx(g.c1, g.c2n2))
	evenByPos := make([]int, g.n) // position λ1(i) (1-based) -> even service
	for i := 0; i < g.n; i++ {
		evenByPos[lam1[i]-1] = g.evens[i]
	}
	for _, even := range evenByPos {
		out = append(out, edgeIdx(g.c1, even))
	}
	out = append(out, edgeIdx(g.c1, g.c2n4))
	orders.Out[g.c1] = out

	// C_{2n+5}'s receive order.
	var in []int
	in = append(in, edgeIdx(g.c2n4, g.c2n5))
	oddByPos := make([]int, g.n) // position n+1-λ2(i) -> odd service
	for i := 0; i < g.n; i++ {
		oddByPos[g.n-lam2[i]] = g.odds[i]
	}
	for _, odd := range oddByPos {
		in = append(in, edgeIdx(odd, g.c2n5))
	}
	in = append(in, edgeIdx(g.c2n3, g.c2n5))
	orders.In[g.c2n5] = in
	return orders
}

// --- Proposition 9/10/11: fork-join latency orchestration gadget ---

// ForkJoinLatencyGadget is the Figure 12 instance: n+2 unit-selectivity
// services arranged as a fork-join; the optimal one-port latency is
// n²+n+4 iff the RN3DM instance is YES.
type ForkJoinLatencyGadget struct {
	Graph *plan.ExecGraph
	K     rat.Rat
}

// NewForkJoinLatencyGadget builds the Proposition 9 gadget.
func NewForkJoinLatencyGadget(r RN3DM) (*ForkJoinLatencyGadget, error) {
	n := r.N()
	if n < 1 {
		return nil, fmt.Errorf("reduction: empty RN3DM instance")
	}
	services := make([]workflow.Service, n+2)
	services[0] = workflow.Service{Cost: rat.One, Selectivity: rat.One} // C0
	for i := 1; i <= n; i++ {
		// B[i] = n − A[i] + n².
		services[i] = workflow.Service{
			Cost:        rat.I(int64(n - r.A[i-1] + n*n)),
			Selectivity: rat.One,
		}
	}
	services[n+1] = workflow.Service{Cost: rat.One, Selectivity: rat.One} // C_{n+1}
	app, err := workflow.New(services, nil)
	if err != nil {
		return nil, err
	}
	var edges [][2]int
	for i := 1; i <= n; i++ {
		edges = append(edges, [2]int{0, i}, [2]int{i, n + 1})
	}
	eg, err := plan.Build(app, edges)
	if err != nil {
		return nil, err
	}
	return &ForkJoinLatencyGadget{
		Graph: eg,
		K:     rat.I(int64(n + 4 + n*n)),
	}, nil
}

// --- Proposition 13/14/15: MINLATENCY gadget (full problem) ---

// MinLatencyGadget is the Proposition 13 instance: a fork service F, n
// filter services and a join service J; the optimal plan's latency is at
// most K iff the RN3DM instance is YES (and the optimal plan is the
// fork-join).
type MinLatencyGadget struct {
	R   RN3DM
	App *workflow.App
	K   rat.Rat
	// Fork, Join are the service indices of F and J; the filters are
	// 1..n in instance order.
	Fork, Join int
}

// NewMinLatencyGadget builds the Proposition 13 gadget.
func NewMinLatencyGadget(r RN3DM) (*MinLatencyGadget, error) {
	n := r.N()
	if n < 2 {
		return nil, fmt.Errorf("reduction: Proposition 13 gadget needs n ≥ 2")
	}
	inv20n := rat.New(1, int64(20*n))
	sigma := rat.One.Sub(rat.New(1, int64(2*n)))
	services := make([]workflow.Service, n+2)
	services[0] = workflow.Service{Cost: inv20n, Selectivity: inv20n} // F
	for i := 1; i <= n; i++ {
		services[i] = workflow.Service{
			Cost:        rat.I(int64(10*n - r.A[i-1])),
			Selectivity: sigma,
		}
	}
	services[n+1] = workflow.Service{ // J
		Cost:        rat.One,
		Selectivity: rat.I(int64(200*n*n - 1)),
	}
	app, err := workflow.New(services, nil)
	if err != nil {
		return nil, err
	}
	// The paper's bound is K = 1/2 + 10n·σ^n + 1/(20n); its derivation
	// drops the input communication (δ0 = 1 time unit), which every plan
	// pays once at the head of each path, so in the full cost model of
	// §2 the decision threshold is K+1.
	k := rat.New(1, 2).Add(rat.I(int64(10 * n)).Mul(sigma.PowInt(n))).Add(inv20n).Add(rat.One)
	return &MinLatencyGadget{R: r, App: app, K: k, Fork: 0, Join: n + 1}, nil
}

// ForkJoinPlan returns the fork-join execution graph the YES direction uses.
func (g *MinLatencyGadget) ForkJoinPlan() (*plan.ExecGraph, error) {
	n := g.R.N()
	var edges [][2]int
	for i := 1; i <= n; i++ {
		edges = append(edges, [2]int{g.Fork, i}, [2]int{i, g.Join})
	}
	return plan.Build(g.App, edges)
}

// --- Proposition 5: MINPERIOD-OVERLAP gadget ---

// MinPeriodOverlapGadget is the Proposition 5 instance: 3n services whose
// optimal OVERLAP period is K = 3/2 iff the RN3DM instance is YES; the
// optimal plan consists of n independent chains C1,λ1(i) → C2,λ2(i) → C3,i.
type MinPeriodOverlapGadget struct {
	R   RN3DM
	App *workflow.App
	K   rat.Rat
	// Index helpers: L1[i], L2[i], L3[i] are the service indices of
	// C_{1,i+1}, C_{2,i+1}, C_{3,i+1}.
	L1, L2, L3 []int
}

// NewMinPeriodOverlapGadget builds the Proposition 5 gadget, choosing
// rational constants a < b in ((3/4)^(1/2n), (4/5)^(1/2n)) and
// γ ∈ (1, (b/a)^(1/n)), verified exactly.
func NewMinPeriodOverlapGadget(r RN3DM) (*MinPeriodOverlapGadget, error) {
	n := r.N()
	if n < 2 {
		return nil, fmt.Errorf("reduction: Proposition 5 gadget needs n ≥ 2")
	}
	a, b, gamma, err := prop5Constants(n)
	if err != nil {
		return nil, err
	}
	k := rat.New(3, 2)
	services := make([]workflow.Service, 3*n)
	g := &MinPeriodOverlapGadget{R: r, K: k}
	for i := 1; i <= n; i++ {
		sel := a.Mul(gamma.PowInt(i))
		i1, i2, i3 := i-1, n+i-1, 2*n+i-1
		g.L1 = append(g.L1, i1)
		g.L2 = append(g.L2, i2)
		g.L3 = append(g.L3, i3)
		services[i1] = workflow.Service{Name: fmt.Sprintf("C1_%d", i), Cost: k, Selectivity: sel}
		services[i2] = workflow.Service{Name: fmt.Sprintf("C2_%d", i), Cost: k.MulInt(2).Div(b.AddInt(1)), Selectivity: sel}
		services[i3] = workflow.Service{
			Name:        fmt.Sprintf("C3_%d", i),
			Cost:        k.Div(a.Mul(a)).Mul(gamma.PowInt(-r.A[i-1])),
			Selectivity: k.Div(b.Mul(b)),
		}
	}
	app, err := workflow.New(services, nil)
	if err != nil {
		return nil, err
	}
	g.App = app
	return g, nil
}

// prop5Constants searches dyadic rationals satisfying the proof's exact
// inequalities: 3/4 < a^2n < b^2n < 4/5 and 1 < γ^n < b/a.
func prop5Constants(n int) (a, b, gamma rat.Rat, err error) {
	const den = 1 << 14
	lo, hi := rat.New(3, 4), rat.New(4, 5)
	found := false
	var ks int64
	for k := int64(den - 1); k > den/2; k-- {
		cand := rat.New(k, den)
		p := cand.PowInt(2 * n)
		if p.Less(hi) && p.Greater(lo) {
			ks = k
			found = true
			break
		}
	}
	if !found {
		return a, b, gamma, fmt.Errorf("reduction: no dyadic a for n=%d", n)
	}
	b = rat.New(ks, den)
	a = rat.New(ks-1, den)
	if !a.PowInt(2 * n).Greater(lo) {
		return a, b, gamma, fmt.Errorf("reduction: a^2n below 3/4 for n=%d", n)
	}
	// γ: smallest dyadic above 1 with γ^n < b/a.
	target := b.Div(a)
	for shift := int64(1 << 20); shift >= 2; shift /= 2 {
		cand := rat.One.Add(rat.New(1, shift))
		if cand.PowInt(n).Less(target) {
			return a, b, cand, nil
		}
	}
	return a, b, gamma, fmt.Errorf("reduction: no dyadic γ for n=%d", n)
}

// WitnessPlan returns the n-chain plan of the YES direction for
// permutations lam1, lam2 (1-based): chain C1,λ1(i) → C2,λ2(i) → C3,i.
func (g *MinPeriodOverlapGadget) WitnessPlan(lam1, lam2 []int) (*plan.ExecGraph, error) {
	var edges [][2]int
	for i := 0; i < g.R.N(); i++ {
		edges = append(edges,
			[2]int{g.L1[lam1[i]-1], g.L2[lam2[i]-1]},
			[2]int{g.L2[lam2[i]-1], g.L3[i]})
	}
	return plan.Build(g.App, edges)
}

// --- Proposition 17: 2-Partition forest latency gadget ---

// TwoPartition is a 2-Partition instance over positive integers.
type TwoPartition struct {
	X []int64
}

// ForestLatencyGadget is the Proposition 17 instance: n small services plus
// a heavy terminal C_{n+1}; among forest-shaped plans, latency ≤ K is
// achievable iff the 2-Partition instance is YES.
type ForestLatencyGadget struct {
	App *workflow.App
	K   rat.Rat
	// Terminal is the index of C_{n+1}.
	Terminal int
}

// NewForestLatencyGadget builds the Proposition 17 gadget.
func NewForestLatencyGadget(tp TwoPartition) (*ForestLatencyGadget, error) {
	n := len(tp.X)
	if n < 2 {
		return nil, fmt.Errorf("reduction: 2-Partition gadget needs n ≥ 2")
	}
	var xm, s int64
	for _, x := range tp.X {
		if x <= 0 {
			return nil, fmt.Errorf("reduction: 2-Partition entries must be positive")
		}
		if x > xm {
			xm = x
		}
		s += x
	}
	// A > (4/3)·n·3^n·β^n·x_M³ with β < 1/2: A = 2·n·3^n·x_M³ suffices and
	// keeps the rationals manageable.
	pow3 := int64(1)
	for i := 0; i < n; i++ {
		pow3 *= 3
	}
	// β = (A−S)/(2A+S) shapes the selectivities 1 − c_i + β·c_i².
	bigA := rat.I(2 * int64(n) * pow3 * xm * xm * xm)
	S := rat.I(s)
	beta := bigA.Sub(S).Div(bigA.MulInt(2).Add(S))
	services := make([]workflow.Service, n+1)
	for i := 0; i < n; i++ {
		xi := rat.I(tp.X[i])
		ci := xi.Div(bigA)
		services[i] = workflow.Service{
			Cost:        ci,
			Selectivity: rat.One.Sub(ci).Add(beta.Mul(ci).Mul(ci)),
		}
	}
	services[n] = workflow.Service{
		Cost:        bigA.MulInt(2).Add(S).Div(bigA.MulInt(2).Sub(S.MulInt(2))),
		Selectivity: rat.One,
	}
	app, err := workflow.New(services, nil)
	if err != nil {
		return nil, err
	}
	// K = c_{n+1} − 3S²/(8A(A−S)) + n·3^n·β^n·x_M³/A³.
	k := services[n].Cost.
		Sub(S.Mul(S).MulInt(3).Div(bigA.MulInt(8).Mul(bigA.Sub(S)))).
		Add(rat.I(int64(n) * pow3).Mul(beta.PowInt(n)).Mul(rat.I(xm * xm * xm)).Div(bigA.PowInt(3)))
	return &ForestLatencyGadget{App: app, K: k, Terminal: n}, nil
}

// SubsetPlan builds the forest plan for a subset mask: the chosen services
// form a chain (in index order) feeding C_{n+1}; the rest run in parallel.
func (g *ForestLatencyGadget) SubsetPlan(subset []bool) (*plan.ExecGraph, error) {
	var chain []int
	for i, in := range subset {
		if in {
			chain = append(chain, i)
		}
	}
	sort.Ints(chain)
	chain = append(chain, g.Terminal)
	var edges [][2]int
	for i := 0; i+1 < len(chain); i++ {
		edges = append(edges, [2]int{chain[i], chain[i+1]})
	}
	return plan.Build(g.App, edges)
}

// SubsetLatency returns the exact optimal latency of the subset plan under
// the full communication model of §2 (forest plans have a polynomial
// optimal latency, Prop. 12).
//
// Reproduction note: under the full model this gadget degenerates — every
// chain communication costs ≈1 time unit to save only O(x/A) computation,
// so the empty chain is always optimal. The Prop. 17 proof evaluates chain
// latency as Σ (selectivity products)·costs only, i.e. with free
// communications; the package's tests check the gadget under those
// semantics.
func (g *ForestLatencyGadget) SubsetLatency(subset []bool) (rat.Rat, error) {
	eg, err := g.SubsetPlan(subset)
	if err != nil {
		return rat.Zero, err
	}
	res, err := orchestrate.TreeLatency(eg.Weighted())
	if err != nil {
		return rat.Zero, err
	}
	return res.Value, nil
}
