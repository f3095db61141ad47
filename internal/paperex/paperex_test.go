package paperex

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
)

func TestFig1Invariants(t *testing.T) {
	eg := Fig1Graph()
	if eg.N() != 5 || eg.Graph().EdgeCount() != 5 {
		t.Fatal("Fig1 shape wrong")
	}
	w := eg.Weighted()
	if !w.PeriodLowerBound(plan.Overlap).Equal(rat.I(4)) {
		t.Fatalf("overlap bound = %s", w.PeriodLowerBound(plan.Overlap))
	}
	if !w.PeriodLowerBound(plan.InOrder).Equal(rat.I(7)) {
		t.Fatalf("one-port bound = %s", w.PeriodLowerBound(plan.InOrder))
	}
	if !w.LatencyPathBound().Equal(rat.I(21)) {
		t.Fatalf("latency bound = %s", w.LatencyPathBound())
	}
}

func TestB1ChainFanBlowsUpWithCommunication(t *testing.T) {
	chain := B1ChainFanGraph()
	// Without communication this plan is fine: all Ccomp <= 100.
	for v := 0; v < chain.N(); v++ {
		if chain.Ccomp(v).Greater(rat.I(100)) {
			t.Fatalf("Ccomp(%d) = %s > 100", v, chain.Ccomp(v))
		}
	}
	// With communication, C2's outgoing volume wrecks the period:
	// Cout(C2) = 200·(9999/10000)² = 199.960002 > 100.
	w := chain.Weighted()
	want := rat.I(200).Mul(rat.New(9999, 10000).PowInt(2))
	if !w.Cout(1).Equal(want) {
		t.Fatalf("Cout(C2) = %s, want %s", w.Cout(1), want)
	}
	if !w.PeriodLowerBound(plan.Overlap).Equal(want) {
		t.Fatalf("overlap bound = %s", w.PeriodLowerBound(plan.Overlap))
	}
}

func TestB1OptimalGraphAchieves100(t *testing.T) {
	opt := B1OptimalGraph()
	if !opt.IsForest() {
		t.Fatal("Figure 4 plan must be a forest")
	}
	// Ccomp of every fan service is exactly 100: (9999/10000)·(100/(9999/10000)).
	if !opt.Ccomp(2).Equal(rat.I(100)) {
		t.Fatalf("Ccomp(C3) = %s", opt.Ccomp(2))
	}
	w := opt.Weighted()
	// Cout(C1) = 100·(9999/10000) = 99.99 < 100.
	if !w.Cout(0).Equal(rat.New(9999, 100)) {
		t.Fatalf("Cout(C1) = %s", w.Cout(0))
	}
	if !w.PeriodLowerBound(plan.Overlap).Equal(rat.I(100)) {
		t.Fatalf("overlap bound = %s", w.PeriodLowerBound(plan.Overlap))
	}
}

func TestB2GraphCostStructure(t *testing.T) {
	eg := B2Graph()
	w := eg.Weighted()
	// Every right-side service receives 1+2+3 = 6, computes 6, sends 6.
	for j := 6; j < 12; j++ {
		if !w.Cin(j).Equal(rat.I(6)) {
			t.Fatalf("Cin(C%d) = %s", j+1, w.Cin(j))
		}
		if !eg.Ccomp(j).Equal(rat.I(6)) {
			t.Fatalf("Ccomp(C%d) = %s", j+1, eg.Ccomp(j))
		}
		if !w.Cout(j).Equal(rat.I(6)) {
			t.Fatalf("Cout(C%d) = %s", j+1, w.Cout(j))
		}
	}
	// Every left-side service sends a total volume of 6.
	for i := 0; i < 6; i++ {
		if !w.Cout(i).Equal(rat.I(6)) {
			t.Fatalf("Cout(C%d) = %s", i+1, w.Cout(i))
		}
	}
	if !w.PeriodLowerBound(plan.Overlap).Equal(rat.I(6)) {
		t.Fatalf("overlap bound = %s", w.PeriodLowerBound(plan.Overlap))
	}
}

func TestB3WeightedCostStructure(t *testing.T) {
	w := B3Weighted()
	// Cout(C1)=Cout(C2)=Cout(C3)=12, Cout(C4)=8.
	for _, c := range []struct {
		v    int
		want int64
	}{{0, 12}, {1, 12}, {2, 12}, {3, 8}} {
		if !w.Cout(c.v).Equal(rat.I(c.want)) {
			t.Fatalf("Cout(C%d) = %s, want %d", c.v+1, w.Cout(c.v), c.want)
		}
	}
	// Cin(C5)=Cin(C6)=Cin(C7)=12, Cin(C8)=8.
	for _, c := range []struct {
		v    int
		want int64
	}{{4, 12}, {5, 12}, {6, 12}, {7, 8}} {
		if !w.Cin(c.v).Equal(rat.I(c.want)) {
			t.Fatalf("Cin(C%d) = %s, want %d", c.v+1, w.Cin(c.v), c.want)
		}
	}
	if !w.PeriodLowerBound(plan.Overlap).Equal(rat.I(12)) {
		t.Fatalf("overlap bound = %s", w.PeriodLowerBound(plan.Overlap))
	}
}

func TestB2OnePort21Witness(t *testing.T) {
	l := B2OnePort21List()
	if !l.Latency().Equal(rat.I(21)) {
		t.Fatalf("witness latency = %s, want 21", l.Latency())
	}
	for _, m := range plan.Models {
		if err := l.Validate(m); err != nil {
			t.Fatalf("witness invalid under %s: %v", m, err)
		}
	}
}
