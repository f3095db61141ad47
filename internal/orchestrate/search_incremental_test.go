package orchestrate

// The incremental (segmented, float-gated) bound protocol against its
// from-scratch reference.

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
)

// TestIncrementalBoundMatchesRebuild pins the incremental protocol at the
// evaluator level, replaying the partial assignments the search visits:
//
//   - a patched evaluator must decide exceedsIncremental exactly like a
//     second evaluator freshly prepared on the same state (patch ≡ rebuild);
//   - exceedsIncremental(limit) == true must imply exceeds(limit) == true —
//     the segmented bound may only be weaker than the from-scratch one (it
//     skips the zero-token deadlock pre-check), never stronger.
func TestIncrementalBoundMatchesRebuild(t *testing.T) {
	evals := []struct {
		name string
		mk   func(w *plan.Weighted) orderEval
	}{
		{"inorder", func(w *plan.Weighted) orderEval { return newInOrderEval(w) }},
		{"outorder", func(w *plan.Weighted) orderEval { return newOutOrderEval(w) }},
		{"oneport", func(w *plan.Weighted) orderEval { return newOnePortEval(w) }},
	}
	for pi, w := range searchTestPlans(t, 120) {
		for _, ev := range evals {
			patched := ev.mk(w)
			scorer := ev.mk(w)
			orders := DefaultOrders(w)
			slots := collectSlots(orders)
			decIn := make([]bool, w.N())
			decOut := make([]bool, w.N())
			for v := range decIn {
				decIn[v], decOut[v] = true, true
			}
			for _, s := range slots {
				if s.out {
					decOut[s.server] = false
				} else {
					decIn[s.server] = false
				}
			}
			var st Stats
			patched.prepare(orders, decIn, decOut, &st)
			// Limits bracketing the model floor exercise both outcomes.
			limits := []struct{ mulNum, mulDen int64 }{{1, 2}, {1, 1}, {3, 2}, {4, 1}}
			for k := 0; k <= len(slots); k++ {
				if k > 0 {
					s := slots[k-1]
					side := s.side
					first := side[0]
					copy(side, side[1:])
					side[len(side)-1] = first
					if s.out {
						decOut[s.server] = true
					} else {
						decIn[s.server] = true
					}
					patched.patch(s.server, orders, decIn, decOut)
				}
				fresh := ev.mk(w)
				fresh.prepare(orders, decIn, decOut, nil)
				for _, lm := range limits {
					limit := patched.floor().Mul(rat.New(lm.mulNum, lm.mulDen))
					got := patched.exceedsIncremental(limit)
					if want := fresh.exceedsIncremental(limit); got != want {
						t.Fatalf("plan %d %s prefix %d limit %s: patched=%v, rebuilt=%v",
							pi, ev.name, k, limit, got, want)
					}
					if got && !scorer.exceeds(orders, decIn, decOut, limit) {
						t.Fatalf("plan %d %s prefix %d limit %s: incremental bound prunes where the from-scratch bound does not",
							pi, ev.name, k, limit)
					}
				}
			}
			if st.BoundEdgesBuilt == 0 && len(slots) > 0 {
				t.Fatalf("plan %d %s: prepare built no edges", pi, ev.name)
			}
		}
	}
}
