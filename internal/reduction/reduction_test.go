package reduction

import (
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
)

// --- RN3DM ---

func TestRN3DMSolveYes(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := gen.NewRand(seed)
		n := 2 + rng.Intn(6)
		r := RandomYes(rng, n)
		if !r.Valid() {
			t.Fatalf("seed %d: YES instance fails validity", seed)
		}
		lam1, lam2, ok := r.Solve()
		if !ok {
			t.Fatalf("seed %d: YES instance unsolved", seed)
		}
		seen1 := make([]bool, n+1)
		seen2 := make([]bool, n+1)
		for i := 0; i < n; i++ {
			if lam1[i]+lam2[i] != r.A[i] {
				t.Fatalf("seed %d: λ1+λ2 != A at %d", seed, i)
			}
			if lam1[i] < 1 || lam1[i] > n || seen1[lam1[i]] || seen2[lam2[i]] {
				t.Fatalf("seed %d: not a permutation pair", seed)
			}
			seen1[lam1[i]] = true
			seen2[lam2[i]] = true
		}
	}
}

func TestRN3DMNoInstance(t *testing.T) {
	for n := 4; n <= 8; n++ {
		r, err := NoInstance(n)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Valid() {
			t.Fatalf("n=%d: NO instance must pass the necessary conditions", n)
		}
		if _, _, ok := r.Solve(); ok {
			t.Fatalf("n=%d: NO instance solved", n)
		}
	}
	if _, err := NoInstance(3); err == nil {
		t.Fatal("n=3 has no valid NO instance")
	}
}

func TestRN3DMInvalidInstances(t *testing.T) {
	if (RN3DM{A: []int{1, 5}}).Valid() { // entry below 2
		t.Fatal("A[i]=1 must be invalid")
	}
	if (RN3DM{A: []int{3, 4}}).Valid() { // sum != n(n+1)
		t.Fatal("wrong sum must be invalid")
	}
	if _, _, ok := (RN3DM{A: []int{3, 4}}).Solve(); ok {
		t.Fatal("invalid instance must not solve")
	}
}

// --- Proposition 2: one-port period orchestration gadget ---

func TestProp2GadgetStructure(t *testing.T) {
	r := RandomYes(gen.NewRand(1), 3)
	g, err := NewOrchPeriodGadget(r)
	if err != nil {
		t.Fatal(err)
	}
	w := g.Graph.Weighted()
	// The six zero-idle services have Cexec exactly 2n+3.
	for _, v := range []int{g.c1, g.c2n2, g.c2n3, g.c2n4, g.c2n5} {
		if !w.Cexec(v, plan.InOrder).Equal(g.K) {
			t.Fatalf("Cexec(%d) = %s, want %s", v, w.Cexec(v, plan.InOrder), g.K)
		}
	}
	for _, v := range g.evens {
		if !w.Cexec(v, plan.InOrder).Equal(g.K) {
			t.Fatalf("even service Cexec = %s", w.Cexec(v, plan.InOrder))
		}
	}
	// The one-port lower bound is exactly K.
	if !w.PeriodLowerBound(plan.InOrder).Equal(g.K) {
		t.Fatalf("bound = %s, want %s", w.PeriodLowerBound(plan.InOrder), g.K)
	}
}

func TestProp2YesInstancesReachK(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, n := range []int{2, 3, 4} {
			r := RandomYes(gen.NewRand(seed), n)
			lam1, lam2, ok := r.Solve()
			if !ok {
				t.Fatal("unsolvable YES instance")
			}
			g, err := NewOrchPeriodGadget(r)
			if err != nil {
				t.Fatal(err)
			}
			w := g.Graph.Weighted()
			orders := g.WitnessOrders(lam1, lam2)
			l, err := orchestrate.InOrderPeriodWithOrders(w, orders)
			if err != nil {
				t.Fatalf("seed %d n=%d: %v", seed, n, err)
			}
			if !l.Lambda().Equal(g.K) {
				t.Fatalf("seed %d n=%d: witness period %s, want %s", seed, n, l.Lambda(), g.K)
			}
			// INORDER-valid implies OUTORDER-valid: Prop 2 and 3 share it.
			if err := l.Validate(plan.OutOrder); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestProp2NoInstanceStaysAboveK(t *testing.T) {
	r, err := NoInstance(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewOrchPeriodGadget(r)
	if err != nil {
		t.Fatal(err)
	}
	w := g.Graph.Weighted()
	// Heuristic search (exhaustive would need (n+2)!² evaluations); by
	// Prop 2 no operation list reaches K on a NO instance, so any valid
	// result must be strictly above.
	res, err := orchestrate.InOrderPeriod(w, orchestrate.Options{MaxExhaustive: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Greater(g.K) {
		t.Fatalf("NO instance reached period %s ≤ K=%s: contradicts Prop 2", res.Value, g.K)
	}
}

// --- Proposition 9: fork-join latency orchestration gadget ---

func TestProp9Equivalence(t *testing.T) {
	// YES instances: exact one-port latency == K. NO instance: > K.
	for seed := int64(0); seed < 5; seed++ {
		for _, n := range []int{2, 3, 4} {
			r := RandomYes(gen.NewRand(seed), n)
			g, err := NewForkJoinLatencyGadget(r)
			if err != nil {
				t.Fatal(err)
			}
			res, err := orchestrate.OnePortLatency(g.Graph.Weighted(), orchestrate.Options{MaxExhaustive: 2000})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact {
				t.Fatal("fork-join order space must be searched exhaustively")
			}
			if !res.Value.Equal(g.K) {
				t.Fatalf("seed %d n=%d: YES latency %s, want %s", seed, n, res.Value, g.K)
			}
		}
	}
	no, err := NoInstance(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewForkJoinLatencyGadget(no)
	if err != nil {
		t.Fatal(err)
	}
	res, err := orchestrate.OnePortLatency(g.Graph.Weighted(), orchestrate.Options{MaxExhaustive: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || !res.Value.Greater(g.K) {
		t.Fatalf("NO latency %s (exact=%v), want > %s", res.Value, res.Exact, g.K)
	}
}

// --- Proposition 13: MINLATENCY gadget ---

func TestProp13YesForkJoinMeetsK(t *testing.T) {
	// K is the proof's upper bound: YES instances admit a fork-join
	// schedule of latency ≤ K (the exact optimum can be marginally below),
	// while any plan of latency ≤ K yields an RN3DM solution.
	for seed := int64(0); seed < 4; seed++ {
		for _, n := range []int{2, 3} {
			r := RandomYes(gen.NewRand(seed), n)
			g, err := NewMinLatencyGadget(r)
			if err != nil {
				t.Fatal(err)
			}
			fj, err := g.ForkJoinPlan()
			if err != nil {
				t.Fatal(err)
			}
			res, err := orchestrate.OnePortLatency(fj.Weighted(), orchestrate.Options{MaxExhaustive: 2000})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exact {
				t.Fatal("fork-join search must be exhaustive")
			}
			if !res.Value.Leq(g.K) {
				t.Fatalf("seed %d n=%d: fork-join latency %s exceeds K=%s", seed, n, res.Value, g.K)
			}
			// The bound is tight: the optimum sits within σf of K.
			slack := g.K.Sub(res.Value)
			if slack.Greater(rat.New(1, int64(20*n))) {
				t.Fatalf("seed %d n=%d: K slack %s unexpectedly large", seed, n, slack)
			}
		}
	}
	// NO side: latency ≤ K would yield an RN3DM solution, so the exact
	// fork-join optimum must exceed K.
	no, err := NoInstance(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewMinLatencyGadget(no)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := g.ForkJoinPlan()
	if err != nil {
		t.Fatal(err)
	}
	res, err := orchestrate.OnePortLatency(fj.Weighted(), orchestrate.Options{MaxExhaustive: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || !res.Value.Greater(g.K) {
		t.Fatalf("NO fork-join latency %s (exact=%v) must exceed K=%s", res.Value, res.Exact, g.K)
	}
}

func TestProp13CompetingPlansAreWorse(t *testing.T) {
	r := RandomYes(gen.NewRand(7), 2)
	g, err := NewMinLatencyGadget(r)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's lower-bound cases: J unfiltered costs ≥ cj+σj ≫ K; a
	// filter service without the fork ahead costs ≥ its own cost ≫ K.
	parallel, err := plan.Parallel(g.App)
	if err != nil {
		t.Fatal(err)
	}
	res, err := orchestrate.OnePortLatency(parallel.Weighted(), orchestrate.Options{MaxExhaustive: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Greater(g.K) {
		t.Fatalf("parallel plan latency %s must exceed K=%s", res.Value, g.K)
	}
}

// --- Proposition 5: MINPERIOD-OVERLAP gadget ---

func TestProp5ConstantsSatisfyProofInequalities(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6} {
		a, b, gamma, err := prop5Constants(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lo, hi := rat.New(3, 4), rat.New(4, 5)
		if !a.PowInt(2*n).Greater(lo) || !a.PowInt(2*n).Less(hi) {
			t.Fatalf("n=%d: a out of band", n)
		}
		if !b.PowInt(2*n).Greater(lo) || !b.PowInt(2*n).Less(hi) {
			t.Fatalf("n=%d: b out of band", n)
		}
		if !a.Less(b) || !gamma.Greater(rat.One) || !gamma.PowInt(n).Less(b.Div(a)) {
			t.Fatalf("n=%d: ordering constraints violated", n)
		}
	}
}

func TestProp5WitnessPlanHasPeriodExactlyK(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, n := range []int{3, 4, 5} {
			r := RandomYes(gen.NewRand(seed), n)
			lam1, lam2, ok := r.Solve()
			if !ok {
				t.Fatal("unsolvable YES instance")
			}
			g, err := NewMinPeriodOverlapGadget(r)
			if err != nil {
				t.Fatal(err)
			}
			eg, err := g.WitnessPlan(lam1, lam2)
			if err != nil {
				t.Fatal(err)
			}
			// Theorem 1: the OVERLAP period equals the bound; the proof
			// makes every Cexec ≤ K with equality on the C1 services.
			res, err := orchestrate.OverlapPeriod(eg.Weighted())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Value.Equal(g.K) {
				t.Fatalf("seed %d n=%d: witness period %s, want %s", seed, n, res.Value, g.K)
			}
		}
	}
}

func TestProp5WrongMatchingExceedsK(t *testing.T) {
	r := RN3DM{A: []int{2, 4, 6}} // solved by identity permutations
	g, err := NewMinPeriodOverlapGadget(r)
	if err != nil {
		t.Fatal(err)
	}
	// λ1 correct, λ2 deliberately misaligned: some chain gets
	// λ1(i)+λ2(i) > A[i], pushing Ccomp(C3,i) above K.
	eg, err := g.WitnessPlan([]int{1, 2, 3}, []int{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := orchestrate.OverlapPeriod(eg.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Greater(g.K) {
		t.Fatalf("wrong matching period %s must exceed K=%s", res.Value, g.K)
	}
}

// --- Proposition 17: 2-Partition forest gadget (reproduction finding) ---

func TestProp17GadgetConstruction(t *testing.T) {
	tp := TwoPartition{X: []int64{1, 2, 3, 4}}
	g, err := NewForestLatencyGadget(tp)
	if err != nil {
		t.Fatal(err)
	}
	// All selectivities lie in (0,1); β < 1/2; terminal cost > 1.
	for i := 0; i < len(tp.X); i++ {
		s := g.App.Selectivity(i)
		if s.Sign() <= 0 || s.Geq(rat.One) {
			t.Fatalf("selectivity %s out of (0,1)", s)
		}
	}
	// σ_i = 1 − c_i + β·c_i², so β = (σ_i − 1 + c_i)/c_i².
	c0 := g.App.Cost(0)
	if beta := g.App.Selectivity(0).Sub(rat.One).Add(c0).Div(c0.Mul(c0)); beta.Sign() <= 0 || beta.Geq(rat.New(1, 2)) {
		t.Fatalf("β = %s outside (0, 1/2)", beta)
	}
	if g.App.Cost(g.Terminal).Leq(rat.One) {
		t.Fatal("terminal cost must exceed 1")
	}
	if _, err := NewForestLatencyGadget(TwoPartition{X: []int64{1}}); err == nil {
		t.Fatal("n=1 must be rejected")
	}
	if _, err := NewForestLatencyGadget(TwoPartition{X: []int64{0, 1}}); err == nil {
		t.Fatal("non-positive entries must be rejected")
	}
}

func TestTwoPartitionSolve(t *testing.T) {
	if _, ok := (TwoPartition{X: []int64{1, 2, 3, 4}}).solve(); !ok {
		t.Fatal("{1,2,3,4} is solvable (1+4 = 2+3)")
	}
	if sub, ok := (TwoPartition{X: []int64{2, 2, 2, 3, 5}}).solve(); !ok {
		t.Fatal("{2,2,2,3,5} is solvable")
	} else {
		s := int64(0)
		for i, in := range sub {
			if in {
				s += []int64{2, 2, 2, 3, 5}[i]
			}
		}
		if s != 7 {
			t.Fatalf("subset sums to %d, want 7", s)
		}
	}
	if _, ok := (TwoPartition{X: []int64{1, 1, 4, 8}}).solve(); ok {
		t.Fatal("{1,1,4,8} has no equal partition")
	}
	if _, ok := (TwoPartition{X: []int64{1, 1, 1}}).solve(); ok {
		t.Fatal("odd total cannot partition")
	}
}

// TestProp17DiscrepancyFinding documents a reproduction finding: with the
// constants printed in the paper, the Prop. 17 gadget does not separate
// YES from NO instances in exact arithmetic.
//
//   - Under the paper's full §2 cost model, every chain communication has
//     volume ≈ 1 while chaining saves only O(x/A) computation, so the
//     empty chain is optimal for every instance.
//   - Under the proof's own communication-free chain-latency formula, the
//     latency is monotone decreasing in the chained subset's sum (the
//     claimed quadratic term is smaller than stated by a factor ≈ S/A),
//     so the full chain is optimal for every instance.
//
// Either way min-latency plans do not encode 2-Partition with the printed
// K. The test pins down both behaviours so any future fix is visible.
func TestProp17DiscrepancyFinding(t *testing.T) {
	yes := TwoPartition{X: []int64{1, 2, 3, 4}}
	no := TwoPartition{X: []int64{1, 1, 4, 8}}
	for _, tp := range []TwoPartition{yes, no} {
		g, err := NewForestLatencyGadget(tp)
		if err != nil {
			t.Fatal(err)
		}
		n := len(tp.X)
		empty := make([]bool, n)
		full := make([]bool, n)
		for i := range full {
			full[i] = true
		}
		// Full model: the empty chain beats the full chain by ≈ n (the
		// inter-service communications).
		le, err := g.SubsetLatency(empty)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := g.SubsetLatency(full)
		if err != nil {
			t.Fatal(err)
		}
		if !le.Less(lf) {
			t.Fatal("full model: empty chain no longer dominates; discrepancy resolved?")
		}
		// Proof's model: latency decreases monotonically with the subset
		// sum, so the full chain is best and is below K for YES and NO
		// alike.
		if !g.subsetLatencyNoComm(full).Less(g.subsetLatencyNoComm(empty)) {
			t.Fatal("no-comm model: chaining no longer helps; discrepancy resolved?")
		}
		if !g.subsetLatencyNoComm(full).Leq(g.K) {
			t.Fatal("no-comm full chain above K; discrepancy resolved?")
		}
	}
}

// solve reports whether a subset sums to half the total, returning the
// subset mask: the exponential reference the Prop. 17 gadget checks decide
// 2-Partition instances with.
func (tp TwoPartition) solve() ([]bool, bool) {
	total := int64(0)
	for _, x := range tp.X {
		total += x
	}
	if total%2 != 0 {
		return nil, false
	}
	half := total / 2
	n := len(tp.X)
	for mask := 0; mask < 1<<n; mask++ {
		s := int64(0)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s += tp.X[i]
			}
		}
		if s == half {
			out := make([]bool, n)
			for i := 0; i < n; i++ {
				out[i] = mask&(1<<i) != 0
			}
			return out, true
		}
	}
	return nil, false
}

// subsetLatencyNoComm evaluates the chain latency exactly as the Prop. 17
// proof does: the sum over chain services of (product of upstream
// selectivities)·cost, plus the terminal service's scaled cost — no
// communication terms. The decision "min over subsets ≤ K" under this
// semantics is equivalent to the 2-Partition instance.
func (g *ForestLatencyGadget) subsetLatencyNoComm(subset []bool) rat.Rat {
	var chain []int
	for i, in := range subset {
		if in {
			chain = append(chain, i)
		}
	}
	sort.Ints(chain)
	chain = append(chain, g.Terminal)
	total := rat.Zero
	prod := rat.One
	for _, s := range chain {
		total = total.Add(prod.Mul(g.App.Cost(s)))
		prod = prod.Mul(g.App.Selectivity(s))
	}
	return total
}
