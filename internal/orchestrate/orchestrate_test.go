package orchestrate

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/rat"
)

// --- E1: the §2.3 example (Figure 1) ---

func TestFig1OverlapPeriodIsFour(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	res, err := OverlapPeriod(w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(rat.I(4)) {
		t.Fatalf("OVERLAP period = %s, want 4", res.Value)
	}
	if !res.Exact {
		t.Fatal("Theorem 1 result must be exact")
	}
	if err := res.List.Validate(plan.Overlap); err != nil {
		t.Fatal(err)
	}
}

func TestFig1InOrderPeriodIsTwentyThreeThirds(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	res, err := InOrderPeriod(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("Fig1 order space is tiny; search must be exhaustive")
	}
	if !res.Value.Equal(rat.New(23, 3)) {
		t.Fatalf("INORDER period = %s, want 23/3", res.Value)
	}
	if err := res.List.Validate(plan.InOrder); err != nil {
		t.Fatal(err)
	}
	if !res.LowerBound.Equal(rat.I(7)) {
		t.Fatalf("lower bound = %s, want 7", res.LowerBound)
	}
}

func TestFig1OutOrderPeriodIsSeven(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	res, err := OutOrderPeriod(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(rat.I(7)) {
		t.Fatalf("OUTORDER period = %s, want 7", res.Value)
	}
	if err := res.List.Validate(plan.OutOrder); err != nil {
		t.Fatal(err)
	}
}

func TestFig1LatencyIsTwentyOne(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	onePort, err := OnePortLatency(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !onePort.Value.Equal(rat.I(21)) {
		t.Fatalf("one-port latency = %s, want 21", onePort.Value)
	}
	if !onePort.Exact {
		t.Fatal("search must be exhaustive on Fig1")
	}
	// Multi-port cannot do better on this instance (paper §2.3).
	overlap, err := OverlapLatency(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !overlap.Value.Equal(rat.I(21)) {
		t.Fatalf("overlap latency = %s, want 21", overlap.Value)
	}
}

// --- E3: counter-example B.2 (Figure 5), one-port vs multi-port latency ---

func TestB2MultiportLatencyTwenty(t *testing.T) {
	w := paperex.B2Graph().Weighted()
	shared, err := OverlapLatencyShared(w)
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Latency().Equal(rat.I(20)) {
		t.Fatalf("multi-port latency = %s, want 20", shared.Latency())
	}
	res, err := OverlapLatency(w, Options{MaxExhaustive: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(rat.I(20)) {
		t.Fatalf("OverlapLatency = %s, want 20", res.Value)
	}
}

func TestB2OnePortStrictlyWorse(t *testing.T) {
	w := paperex.B2Graph().Weighted()
	res, err := OnePortLatency(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper proves no one-port schedule reaches 20; our best valid
	// schedule demonstrates the gap (21 is achievable).
	if !res.Value.Greater(rat.I(20)) {
		t.Fatalf("one-port latency %s contradicts the paper's strict bound > 20", res.Value)
	}
	if res.Value.Greater(rat.I(22)) {
		t.Fatalf("one-port latency %s unexpectedly poor (heuristic regression)", res.Value)
	}
}

// --- E4: counter-example B.3 (Figure 6), one-port vs multi-port period ---

func TestB3MultiportPeriodTwelve(t *testing.T) {
	w := paperex.B3Weighted()
	res, err := OverlapPeriod(w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Equal(rat.I(12)) {
		t.Fatalf("multi-port period = %s, want 12", res.Value)
	}
}

func TestB3OnePortStrictlyWorse(t *testing.T) {
	w := paperex.B3Weighted()
	res, err := OutOrderPeriod(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value.Greater(rat.I(12)) {
		t.Fatalf("one-port period %s contradicts the paper's strict bound > 12", res.Value)
	}
	if res.Value.Greater(rat.I(16)) {
		t.Fatalf("one-port period %s unexpectedly poor", res.Value)
	}
	if err := res.List.Validate(plan.OutOrder); err != nil {
		t.Fatal(err)
	}
}

// --- Theorem 1 and general properties on random instances ---

func TestRandomPlansModelOrdering(t *testing.T) {
	// Theorem 1: the constructed OVERLAP schedule meets max_k Cexec(k) on
	// 400 random execution graphs of 3 to 10 services, DAG plans over
	// Mixed applications on even seeds and random weighted graphs on odd.
	compared := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := gen.NewRand(seed)
		var w *plan.Weighted
		if seed%2 == 0 {
			app := gen.App(rng, 3+rng.Intn(8), gen.Mixed)
			w = gen.DAGPlan(rng, app, 0.35).Weighted()
		} else {
			w = gen.Weighted(rng, 3+rng.Intn(8), 0.35)
		}
		res, err := OverlapPeriod(w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Value.Equal(w.PeriodLowerBound(plan.Overlap)) {
			t.Fatalf("seed %d: Theorem 1 period %s != bound %s", seed, res.Value, w.PeriodLowerBound(plan.Overlap))
		}
		compared++
	}
	if compared != 400 {
		t.Fatalf("compared %d Theorem 1 periods, want 400", compared)
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := gen.NewRand(seed)
		var w *plan.Weighted
		if seed%2 == 0 {
			app := gen.App(rng, 3+rng.Intn(4), gen.Mixed)
			w = gen.DAGPlan(rng, app, 0.4).Weighted()
		} else {
			w = gen.Weighted(rng, 3+rng.Intn(4), 0.4)
		}
		ovl, err := OverlapPeriod(w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ino, err := InOrderPeriod(w, Options{MaxExhaustive: 720})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out, err := OutOrderPeriod(w, Options{MaxExhaustive: 720})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Model power ordering: OVERLAP ≤ OUTORDER ≤ INORDER.
		if ovl.Value.Greater(out.Value) {
			t.Fatalf("seed %d: overlap %s > outorder %s", seed, ovl.Value, out.Value)
		}
		if out.Value.Greater(ino.Value) {
			t.Fatalf("seed %d: outorder %s > inorder %s", seed, out.Value, ino.Value)
		}
		// Bounds.
		if ovl.Value.Less(w.PeriodLowerBound(plan.Overlap)) ||
			ino.Value.Less(w.PeriodLowerBound(plan.InOrder)) {
			t.Fatalf("seed %d: value below lower bound", seed)
		}
		// The Theorem-1 schedule achieves the bound exactly.
		if !ovl.Value.Equal(w.PeriodLowerBound(plan.Overlap)) {
			t.Fatalf("seed %d: Theorem 1 missed the bound", seed)
		}
	}
}

func TestRandomPlansLatencyProperties(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := gen.NewRand(seed)
		w := gen.Weighted(rng, 3+rng.Intn(4), 0.4)
		op, err := OnePortLatency(w, Options{MaxExhaustive: 720})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if op.Value.Less(w.LatencyPathBound()) {
			t.Fatalf("seed %d: latency %s below path bound %s", seed, op.Value, w.LatencyPathBound())
		}
		ovl, err := OverlapLatency(w, Options{MaxExhaustive: 720})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ovl.Value.Greater(op.Value) {
			t.Fatalf("seed %d: overlap latency %s > one-port %s", seed, ovl.Value, op.Value)
		}
		// Latency of any schedule is at least the period bound.
		if op.Value.Less(w.PeriodLowerBound(plan.Overlap)) {
			t.Fatalf("seed %d: latency below overlap period bound", seed)
		}
	}
}

func TestTreeLatencyMatchesExhaustiveSearch(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 80; seed++ {
		rng := gen.NewRand(seed)
		app := gen.App(rng, 3+rng.Intn(4), gen.Filtering)
		w := gen.ForestPlan(rng, app).Weighted()
		tree, err := TreeLatency(w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exhaustive, err := OnePortLatency(w, Options{MaxExhaustive: 50000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !exhaustive.Exact {
			continue // too wide for the exhaustive search: counted below
		}
		if !tree.Value.Equal(exhaustive.Value) {
			t.Fatalf("seed %d: tree latency %s != exhaustive %s", seed, tree.Value, exhaustive.Value)
		}
		compared++
	}
	if compared != 80 {
		t.Fatalf("compared %d of 80 forests: the exhaustive search was cut short on the rest", compared)
	}
}

func TestTreeLatencyFeedsLargestSubtreeFirst(t *testing.T) {
	// Root with two children: heavy (rest 10) and light (rest 1), unit
	// volumes. Feeding heavy first: max(1+10, 2+1) = 11; light first:
	// max(1+1, 2+10) = 12.
	one := rat.One
	w := plan.MustNewWeighted(nil,
		[]rat.Rat{one, rat.I(9), one},
		[]plan.Edge{
			{From: plan.In, To: 0},
			{From: 0, To: 1}, {From: 0, To: 2},
			{From: 1, To: plan.Out}, {From: 2, To: plan.Out},
		},
		[]rat.Rat{one, one, one, one, one})
	res, err := TreeLatency(w)
	if err != nil {
		t.Fatal(err)
	}
	// in[0,1) calc0[1,2) comm->C2[2,3) calc2(9)[3,12) out[12,13)
	// comm->C3[3,4) calc3[4,5) out[5,6): latency 13.
	if !res.Value.Equal(rat.I(13)) {
		t.Fatalf("latency = %s, want 13", res.Value)
	}
}

func TestTreeLatencyRejectsNonForest(t *testing.T) {
	w := paperex.Fig1Graph().Weighted() // C5 has two predecessors
	if _, err := TreeLatency(w); err == nil {
		t.Fatal("expected error on non-forest plan")
	}
}

func TestLatencyDispatcherUsesTreeOnForests(t *testing.T) {
	rng := gen.NewRand(9)
	app := gen.App(rng, 6, gen.Filtering)
	w := gen.ForestPlan(rng, app).Weighted()
	for _, m := range plan.Models {
		res, err := Latency(w, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("forest latency under %s must be exact", m)
		}
	}
}

func TestPeriodDispatcher(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	for _, m := range plan.Models {
		res, err := Period(w, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.List.Validate(m); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	if _, err := Period(w, plan.Model(9), Options{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := Latency(w, plan.Model(9), Options{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestInOrderPeriodChainMeetsBound(t *testing.T) {
	// On chains the one-port bound max Cexec is always reached (the event
	// graph has no cross-server critical cycle).
	for seed := int64(0); seed < 15; seed++ {
		rng := gen.NewRand(seed)
		app := gen.App(rng, 2+rng.Intn(5), gen.Mixed)
		w := randomChain(rng, app).Weighted()
		res, err := InOrderPeriod(w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Value.Equal(w.PeriodLowerBound(plan.InOrder)) {
			t.Fatalf("seed %d: chain period %s != bound %s", seed, res.Value, w.PeriodLowerBound(plan.InOrder))
		}
	}
}

func TestHeuristicPathOnWidePlan(t *testing.T) {
	// Force the heuristic (non-exhaustive) path with a tiny budget and
	// check it still returns valid schedules.
	w := paperex.B2Graph().Weighted()
	res, err := InOrderPeriod(w, Options{MaxExhaustive: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("must not be exact with budget 1")
	}
	if err := res.List.Validate(plan.InOrder); err != nil {
		t.Fatal(err)
	}
	if res.Value.Less(w.PeriodLowerBound(plan.InOrder)) {
		t.Fatal("value below lower bound")
	}
}

func TestOrderCombinationsCounting(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	// C1 has 2 outs (2), C5 has 2 ins (2): total 4 combinations.
	if got := orderCombinations(w, 1000); got != 4 {
		t.Fatalf("combinations = %d, want 4", got)
	}
	if got := orderCombinations(w, 3); got != 4 {
		t.Fatalf("capped combinations = %d, want 4 (just above cap)", got)
	}
	count := 0
	forEachOrders(w, func(Orders) bool { count++; return true })
	if count != 4 {
		t.Fatalf("forEachOrders visited %d, want 4", count)
	}
}

func TestOverlapPeriodB1Instances(t *testing.T) {
	// E2 ingredient: the two B.1 plans under OVERLAP.
	chain := paperex.B1ChainFanGraph().Weighted()
	res, err := OverlapPeriod(chain)
	if err != nil {
		t.Fatal(err)
	}
	want := rat.I(200).Mul(rat.New(9999, 10000).PowInt(2))
	if !res.Value.Equal(want) {
		t.Fatalf("chain-fan period = %s, want %s", res.Value, want)
	}
	opt := paperex.B1OptimalGraph().Weighted()
	res2, err := OverlapPeriod(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Value.Equal(rat.I(100)) {
		t.Fatalf("optimal plan period = %s, want 100", res2.Value)
	}
}

func TestBottleneckDiagnostics(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	ino, err := InOrderPeriod(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ino.Bottleneck) == 0 {
		t.Fatal("INORDER result must report its critical cycle")
	}
	// The 23/3 cycle traverses the full pipeline: it must mention C1's
	// input comm and C5's output comm among its operations.
	joined := strings.Join(ino.Bottleneck, " ")
	if !strings.Contains(joined, "comm(in->C1)") || !strings.Contains(joined, "comm(C5->out)") {
		t.Fatalf("unexpected critical cycle: %v", ino.Bottleneck)
	}
	// The cycle's duration sum equals λ times its wrap count; with three
	// wraps on the 23/3 cycle the sum is 23.
	out, err := OutOrderPeriod(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Bottleneck) == 0 {
		t.Fatal("OUTORDER result must report its critical cycle")
	}
}
