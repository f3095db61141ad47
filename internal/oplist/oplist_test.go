package oplist

import (
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// fig1Weighted rebuilds the §2.3 example's weighted plan locally (the
// shared paperex fixtures import this package, so tests here cannot use
// them without a cycle).
func fig1Weighted() *plan.Weighted {
	app := workflow.Uniform(5, rat.I(4), rat.One)
	eg := plan.MustBuild(app, [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 4}, {3, 4}})
	return eg.Weighted()
}

// fig1Latency builds the §2.3 operation list of the paper: the latency-21
// schedule for Figure 1 (service indices: C1=0, ..., C5=4).
func fig1Latency(t testing.TB) *List {
	t.Helper()
	w := fig1Weighted()
	l := New(w, rat.I(21))
	set := func(e plan.Edge, begin int64) {
		l.SetComm(w.EdgeIndex(e), rat.I(begin))
	}
	l.SetCalc(0, rat.I(1))
	l.SetCalc(1, rat.I(6))
	l.SetCalc(2, rat.I(11))
	l.SetCalc(3, rat.I(7))
	l.SetCalc(4, rat.I(16))
	set(plan.Edge{From: plan.In, To: 0}, 0)
	set(plan.Edge{From: 0, To: 1}, 5)
	set(plan.Edge{From: 0, To: 3}, 6)
	set(plan.Edge{From: 1, To: 2}, 10)
	set(plan.Edge{From: 2, To: 4}, 15)
	set(plan.Edge{From: 3, To: 4}, 11)
	set(plan.Edge{From: 4, To: plan.Out}, 20)
	return l
}

func TestFig1LatencyScheduleValidAllModels(t *testing.T) {
	l := fig1Latency(t)
	for _, m := range plan.Models {
		if err := l.Validate(m); err != nil {
			t.Fatalf("λ=21 should be valid under %s: %v", m, err)
		}
	}
	if !l.Latency().Equal(rat.I(21)) {
		t.Fatalf("latency = %s, want 21", l.Latency())
	}
	if !l.Period().Equal(rat.I(21)) {
		t.Fatalf("period = %s", l.Period())
	}
}

func TestFig1PeriodFiveOverlapOnly(t *testing.T) {
	// Paper §2.3: "we can obtain a period P = 5 for the model OVERLAP: ...
	// keep the same list and only change λ = 21 into λ = 5".
	l := fig1Latency(t)
	l.SetLambda(rat.I(5))
	if err := l.Validate(plan.Overlap); err != nil {
		t.Fatalf("λ=5 must be OVERLAP-valid: %v", err)
	}
	if l.Validate(plan.InOrder) == nil {
		t.Fatal("λ=5 must not be INORDER-valid")
	}
	if l.Validate(plan.OutOrder) == nil {
		t.Fatal("λ=5 must not be OUTORDER-valid")
	}
}

func TestFig1PeriodFourOverlapAfterShift(t *testing.T) {
	// Paper §2.3: λ=4 becomes valid after moving comm C4->C5 from 11 to 12.
	l := fig1Latency(t)
	l.SetLambda(rat.I(4))
	if l.Validate(plan.Overlap) == nil {
		t.Fatal("λ=4 with comm(C4->C5) at 11 must violate C5's incoming capacity")
	}
	l.SetComm(l.Plan().EdgeIndex(plan.Edge{From: 3, To: 4}), rat.I(12))
	if err := l.Validate(plan.Overlap); err != nil {
		t.Fatalf("λ=4 with the paper's fix must be valid: %v", err)
	}
	// 4 is the lower bound max Cexec, so nothing smaller can ever work.
	l.SetLambda(rat.New(39, 10))
	if l.Validate(plan.Overlap) == nil {
		t.Fatal("λ=3.9 must be invalid (calc duration exceeds period)")
	}
}

func TestFig1InOrderPeriodTenWithOriginalList(t *testing.T) {
	// Paper §2.3: "With the previous operation list, we obtain a period 10"
	// for INORDER (the send of data set n blocks the receive of n+1 on C5).
	l := fig1Latency(t)
	l.SetLambda(rat.I(10))
	if err := l.Validate(plan.InOrder); err != nil {
		t.Fatalf("λ=10 must be INORDER-valid: %v", err)
	}
	l.SetLambda(rat.New(999, 100)) // 9.99
	if l.Validate(plan.InOrder) == nil {
		t.Fatal("λ=9.99 must not be INORDER-valid with this list")
	}
	// OUTORDER tolerates the same list down to λ such that mod-λ ops fit.
	l.SetLambda(rat.I(10))
	if err := l.Validate(plan.OutOrder); err != nil {
		t.Fatalf("INORDER-valid implies OUTORDER-valid: %v", err)
	}
}

func TestFig1OutOrderPeriodSeven(t *testing.T) {
	// Paper §2.3: OUTORDER reaches the bound 7 by setting BeginComm(4,5)=14
	// and BeginCalc(4)=8; the original list fails at λ=7.
	l := fig1Latency(t)
	l.SetLambda(rat.I(7))
	if l.Validate(plan.OutOrder) == nil {
		t.Fatal("original list must not be OUTORDER-valid at λ=7")
	}
	l.SetComm(l.Plan().EdgeIndex(plan.Edge{From: 3, To: 4}), rat.I(14))
	l.SetCalc(3, rat.I(8))
	if err := l.Validate(plan.OutOrder); err != nil {
		t.Fatalf("modified list must be OUTORDER-valid at λ=7: %v", err)
	}
	// The same schedule is out-of-order: C4 sends data set n after the
	// receive of data set n+1 began, so INORDER must reject it.
	if l.Validate(plan.InOrder) == nil {
		t.Fatal("modified list must not be INORDER-valid at λ=7")
	}
	// 7 is the one-port bound; OUTORDER can do no better on this plan.
	l.SetLambda(rat.New(699, 100))
	if l.Validate(plan.OutOrder) == nil {
		t.Fatal("λ=6.99 must be invalid")
	}
}

func TestFig1InOrderOptimalTwentyThreeThirds(t *testing.T) {
	// Paper §2.3: the optimal INORDER period is 23/3, achieved by spreading
	// the idle time across C1, C4 and C5.
	l := fig1Latency(t)
	l.SetLambda(rat.New(23, 3))
	l.SetComm(l.Plan().EdgeIndex(plan.Edge{From: 0, To: 3}), rat.MustParse("20/3"))
	l.SetCalc(3, rat.MustParse("23/3"))
	l.SetComm(l.Plan().EdgeIndex(plan.Edge{From: 3, To: 4}), rat.MustParse("40/3"))
	if err := l.Validate(plan.InOrder); err != nil {
		t.Fatalf("paper's 23/3 schedule must be INORDER-valid: %v", err)
	}
	// Any smaller period with the same structure is impossible.
	l.SetLambda(rat.MustParse("23/3").Sub(rat.New(1, 1000)))
	if l.Validate(plan.InOrder) == nil {
		t.Fatal("λ just below 23/3 must be invalid")
	}
}

func TestValidateRejectsBrokenLists(t *testing.T) {
	base := func() *List { return fig1Latency(t) }

	l := base()
	l.SetLambda(rat.Zero)
	if err := l.Validate(plan.Overlap); err == nil || !strings.Contains(err.Error(), "not positive") {
		t.Fatalf("zero period: %v", err)
	}

	l = base()
	l.SetCalc(0, rat.I(-1))
	if err := l.Validate(plan.Overlap); err == nil || !strings.Contains(err.Error(), "< 0") {
		t.Fatalf("negative calc begin: %v", err)
	}

	l = base()
	l.SetComm(l.Plan().EdgeIndex(plan.Edge{From: 0, To: 1}), rat.I(4))
	// Comm now begins at 4 < calcEnd(C1)=5: precedence violation.
	if err := l.Validate(plan.Overlap); err == nil || !strings.Contains(err.Error(), "before calc") {
		t.Fatalf("send-before-compute: %v", err)
	}

	l = base()
	idx := l.Plan().EdgeIndex(plan.Edge{From: 2, To: 4})
	l.SetCommStretched(idx, rat.I(15), rat.I(17)) // duration 2 != volume 1
	if err := l.Validate(plan.InOrder); err == nil || !strings.Contains(err.Error(), "one-port") {
		t.Fatalf("stretched comm under one-port: %v", err)
	}
	// Under OVERLAP a stretched (slower) comm is legal if nothing conflicts:
	// C3->C5 may take [15,17) at ratio 1/2 since calc(C5) starts at 16...
	// no: precedence requires the comm to end before calc(C5) begins.
	if err := l.Validate(plan.Overlap); err == nil || !strings.Contains(err.Error(), "after calc") {
		t.Fatalf("stretched comm crossing calc begin: %v", err)
	}
	l.SetCalc(4, rat.I(17)) // move C5's computation; now it ends at 21
	l.SetCommStretched(l.Plan().EdgeIndex(plan.Edge{From: 4, To: plan.Out}), rat.I(21), rat.I(22))
	if err := l.Validate(plan.Overlap); err != nil {
		t.Fatalf("stretched comm should now be valid: %v", err)
	}

	l = base()
	idx = l.Plan().EdgeIndex(plan.Edge{From: 2, To: 4})
	l.SetCommStretched(idx, rat.I(15), rat.New(31, 2)) // duration 1/2 < volume 1
	if err := l.Validate(plan.Overlap); err == nil || !strings.Contains(err.Error(), "shorter than volume") {
		t.Fatalf("over-fast comm: %v", err)
	}

	l = base()
	idx = l.Plan().EdgeIndex(plan.Edge{From: 2, To: 4})
	l.SetCommStretched(idx, rat.I(16), rat.I(15)) // ends before it begins
	if err := l.Validate(plan.Overlap); err == nil || !strings.Contains(err.Error(), "ends before") {
		t.Fatalf("negative duration: %v", err)
	}

	if base().Plan().EdgeIndex(plan.Edge{From: 4, To: 0}) >= 0 {
		t.Fatal("EdgeIndex must reject unknown edges")
	}
}

func TestOnePortRendezvousConflictDetected(t *testing.T) {
	// Two services receiving from one sender at the same time: fine for the
	// receivers (distinct servers) but a one-port violation at the sender.
	w := plan.MustNewWeighted(nil,
		[]rat.Rat{rat.One, rat.One, rat.One},
		[]plan.Edge{{From: plan.In, To: 0}, {From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: plan.Out}, {From: 2, To: plan.Out}},
		[]rat.Rat{rat.One, rat.One, rat.One, rat.One, rat.One})
	l := New(w, rat.I(100))
	l.SetCalc(0, rat.One)
	l.SetComm(0, rat.Zero)
	l.SetComm(1, rat.I(2)) // C1->C2 at [2,3)
	l.SetComm(2, rat.I(2)) // C1->C3 at [2,3): conflict on C1's out port
	l.SetCalc(1, rat.I(3))
	l.SetCalc(2, rat.I(3))
	l.SetComm(3, rat.I(4))
	l.SetComm(4, rat.I(4))
	if err := l.Validate(plan.OutOrder); err == nil {
		t.Fatal("simultaneous sends from one server must be rejected under one-port")
	}
	// Under OVERLAP multi-port the same times are legal: each comm may use
	// ratio 1... no — both at full ratio exceed capacity. Stretch them.
	if err := l.Validate(plan.Overlap); err == nil {
		t.Fatal("two full-rate sends exceed outgoing capacity")
	}
	l.SetCommStretched(1, rat.I(2), rat.I(4))
	l.SetCommStretched(2, rat.I(2), rat.I(4))
	l.SetCalc(1, rat.I(4))
	l.SetCalc(2, rat.I(4))
	l.SetComm(3, rat.I(5))
	l.SetComm(4, rat.I(5))
	if err := l.Validate(plan.Overlap); err != nil {
		t.Fatalf("half-rate concurrent sends must be valid: %v", err)
	}
}

func TestOverlapWrappedCapacity(t *testing.T) {
	// A comm wrapping the cycle boundary must still count against capacity.
	w := plan.MustNewWeighted(nil,
		[]rat.Rat{rat.One, rat.One},
		[]plan.Edge{{From: plan.In, To: 0}, {From: 0, To: 1}, {From: 1, To: plan.Out}},
		[]rat.Rat{rat.I(3), rat.I(3), rat.One})
	l := New(w, rat.I(4))
	l.SetComm(0, rat.Zero) // in->C1 [0,3)
	l.SetCalc(0, rat.I(3)) // [3,4)
	l.SetComm(1, rat.I(4)) // C1->C2 [4,7), wraps to [0,3) mod 4
	l.SetCalc(1, rat.I(7)) // [7,8)
	l.SetComm(2, rat.I(8)) // C2->out [8,9)
	if err := l.Validate(plan.Overlap); err != nil {
		t.Fatalf("expected valid: %v", err)
	}
	// Shrink λ to 3: in->C1 [0,3) and C1->C2 [1,4)≡[1,3)∪[0,1) both at rate
	// 1 would be fine per-port (different directions), but C1->C2's copies
	// now abut; the receive of the NEXT data set on C1 overlaps in-comm? No:
	// different ports. Check instead that total in-capacity catches two
	// overlapping incoming comms after wrapping.
	w2 := plan.MustNewWeighted(nil,
		[]rat.Rat{rat.One, rat.One, rat.One},
		[]plan.Edge{{From: plan.In, To: 0}, {From: plan.In, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}, {From: 2, To: plan.Out}, {From: 0, To: plan.Out}, {From: 1, To: plan.Out}},
		[]rat.Rat{rat.One, rat.One, rat.I(3), rat.I(2), rat.One, rat.One, rat.One})
	l2 := New(w2, rat.I(4))
	l2.SetComm(0, rat.Zero)
	l2.SetComm(1, rat.Zero)
	l2.SetCalc(0, rat.One)
	l2.SetCalc(1, rat.One)
	l2.SetComm(2, rat.I(2)) // C1->C3 [2,5): wraps, active on [2,4)∪[0,1)
	l2.SetComm(3, rat.I(3)) // C2->C3 [3,5): wraps, active on [3,4)∪[0,1)
	l2.SetCalc(2, rat.I(5))
	l2.SetComm(4, rat.I(6))
	l2.SetComm(5, rat.I(5))
	l2.SetComm(6, rat.I(5))
	// Both at full rate overlap on [3,4) and [0,1): capacity 2 > 1.
	if err := l2.Validate(plan.Overlap); err == nil {
		t.Fatal("wrapped overlapping full-rate comms must exceed capacity")
	}
}

func TestZeroVolumeCommsAreFree(t *testing.T) {
	// Zero-volume comms (selectivity 0 upstream) never conflict.
	w := plan.MustNewWeighted(nil,
		[]rat.Rat{rat.One, rat.Zero},
		[]plan.Edge{{From: plan.In, To: 0}, {From: 0, To: 1}, {From: 1, To: plan.Out}},
		[]rat.Rat{rat.One, rat.Zero, rat.Zero})
	l := New(w, rat.I(2))
	l.SetComm(0, rat.Zero)
	l.SetCalc(0, rat.One)
	l.SetComm(1, rat.I(2))
	l.SetCalc(1, rat.I(2))
	l.SetComm(2, rat.I(2))
	for _, m := range plan.Models {
		if err := l.Validate(m); err != nil {
			t.Fatalf("zero-volume schedule invalid under %s: %v", m, err)
		}
	}
}

func TestAccessors(t *testing.T) {
	l := fig1Latency(t)
	if l.Plan().N() != 5 {
		t.Fatal("Plan accessor wrong")
	}
	if !l.CalcEnd(0).Equal(rat.I(5)) {
		t.Fatalf("CalcEnd = %s", l.CalcEnd(0))
	}
	idx := l.Plan().EdgeIndex(plan.Edge{From: 0, To: 1})
	if !l.CommBegin(idx).Equal(rat.I(5)) || !l.CommEnd(idx).Equal(rat.I(6)) {
		t.Fatal("comm accessors wrong")
	}
}
