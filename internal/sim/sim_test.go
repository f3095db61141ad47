package sim

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

func TestReplayPeriodAndLatency(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	res, err := orchestrate.OverlapPeriod(w)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Replay(res.List, 50)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 50 {
		t.Fatalf("N = %d", tr.N())
	}
	// Every inter-completion gap equals the period exactly.
	for n := 1; n < tr.N(); n++ {
		if !tr.Gap(n).Equal(rat.I(4)) {
			t.Fatalf("gap(%d) = %s, want 4", n, tr.Gap(n))
		}
	}
	sp, err := tr.SteadyPeriod(10)
	if err != nil || !sp.Equal(rat.I(4)) {
		t.Fatalf("steady period = %s, err=%v", sp, err)
	}
	// Latency is the same for every data set.
	l0 := tr.Latency(0)
	for n := 1; n < tr.N(); n++ {
		if !tr.Latency(n).Equal(l0) {
			t.Fatalf("latency(%d) = %s != latency(0) = %s", n, tr.Latency(n), l0)
		}
	}
}

func TestReplayErrors(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	res, err := orchestrate.OverlapPeriod(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(res.List, 0); err == nil {
		t.Fatal("nData=0 must fail")
	}
	tr, _ := Replay(res.List, 5)
	if _, err := tr.SteadyPeriod(10); err == nil {
		t.Fatal("window larger than trace must fail")
	}
	if _, err := tr.SteadyPeriod(0); err == nil {
		t.Fatal("zero window must fail")
	}
}

// The self-timed INORDER execution must converge to the analytical period
// (the MCR of the event graph) for the same orders.
func TestSelfTimedConvergesToAnalyticalPeriod(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	orders := orchestrate.DefaultOrders(w)
	analytic, err := orchestrate.InOrderPeriodWithOrders(w, orders)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := SelfTimedInOrder(w, orders, 200)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := tr.SteadyPeriod(60)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Equal(analytic.Lambda()) {
		t.Fatalf("self-timed steady period %s != analytical MCR %s", sp, analytic.Lambda())
	}
}

func TestSelfTimedMatchesMCROnRandomPlans(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := gen.NewRand(seed)
		var w *plan.Weighted
		if seed%2 == 0 {
			w = gen.Weighted(rng, 3+rng.Intn(4), 0.4)
		} else {
			app := gen.App(rng, 3+rng.Intn(4), gen.Mixed)
			w = gen.DAGPlan(rng, app, 0.4).Weighted()
		}
		orders := orchestrate.DefaultOrders(w)
		analytic, err := orchestrate.InOrderPeriodWithOrders(w, orders)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr, err := SelfTimedInOrder(w, orders, 160)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Average over a large window divisible by plausible regime lengths.
		sp, err := tr.SteadyPeriod(60)
		if err != nil {
			t.Fatal(err)
		}
		if !sp.Equal(analytic.Lambda()) {
			t.Fatalf("seed %d: self-timed %s != MCR %s", seed, sp, analytic.Lambda())
		}
	}
}

// A slowed-down server must shift the self-timed throughput to the new MCR:
// failure/degradation injection agrees with the analysis.
func TestSelfTimedDegradationTracksAnalysis(t *testing.T) {
	app := workflow.Uniform(4, rat.I(2), rat.One)
	eg, err := plan.ChainFromOrder(app, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	w := eg.Weighted()
	orders := orchestrate.DefaultOrders(w)
	base, err := orchestrate.InOrderPeriodWithOrders(w, orders)
	if err != nil {
		t.Fatal(err)
	}

	// Degrade service C3 by 5x: rebuild the app with a higher cost.
	services := app.Services()
	services[2].Cost = rat.I(10)
	slowApp := workflow.MustNew(services, nil)
	slowEg, err := plan.ChainFromOrder(slowApp, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	slow := slowEg.Weighted()
	slowOrders := orchestrate.DefaultOrders(slow)
	slowAnalytic, err := orchestrate.InOrderPeriodWithOrders(slow, slowOrders)
	if err != nil {
		t.Fatal(err)
	}
	if !slowAnalytic.Lambda().Greater(base.Lambda()) {
		t.Fatal("degradation must raise the period")
	}
	tr, err := SelfTimedInOrder(slow, slowOrders, 120)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := tr.SteadyPeriod(40)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Equal(slowAnalytic.Lambda()) {
		t.Fatalf("degraded self-timed %s != analysis %s", sp, slowAnalytic.Lambda())
	}
}

func TestSelfTimedLatencyAtLeastPathBound(t *testing.T) {
	for seed := int64(30); seed < 40; seed++ {
		rng := gen.NewRand(seed)
		w := gen.Weighted(rng, 4, 0.5)
		tr, err := SelfTimedInOrder(w, orchestrate.DefaultOrders(w), 20)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < tr.N(); n++ {
			if tr.Latency(n).Less(w.LatencyPathBound()) {
				t.Fatalf("seed %d: latency(%d) = %s below path bound %s",
					seed, n, tr.Latency(n), w.LatencyPathBound())
			}
		}
	}
}

func TestSelfTimedRejectsBadInput(t *testing.T) {
	w := paperex.Fig1Graph().Weighted()
	if _, err := SelfTimedInOrder(w, orchestrate.DefaultOrders(w), 0); err == nil {
		t.Fatal("nData=0 must fail")
	}
}
