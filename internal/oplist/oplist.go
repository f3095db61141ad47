// Package oplist implements operation lists — the second half of a plan in
// the paper's sense — together with exact validators for the three
// communication models of Appendix A.
//
// An operation list fixes, for data set 0, the begin time of every
// computation and the begin/end times of every communication; the schedule
// repeats with period λ (data set n is shifted by n·λ). The validators
// check, with exact rational arithmetic, every constraint the paper imposes:
//
//   - non-preemption and fixed durations,
//   - per-data-set precedence (receive ≤ compute ≤ send),
//   - one-port exclusiveness, expressed as circular (mod λ) interval
//     disjointness of all operations touching a server (OUTORDER), or as the
//     stronger in-order constraint that sends of data set n finish before
//     receives of data set n+1 begin (INORDER),
//   - bounded multi-port bandwidth: at every instant of the cycle the
//     incoming (resp. outgoing) bandwidth ratios of a server sum to ≤ 1,
//     with each communication holding a constant ratio (OVERLAP).
package oplist

import (
	"fmt"
	"sort"

	"repro/internal/plan"
	"repro/internal/rat"
)

// List is an operation list for a weighted plan. Times refer to data set 0;
// the cyclic schedule shifts all of them by λ per data set.
type List struct {
	w         *plan.Weighted
	lambda    rat.Rat
	calcBegin []rat.Rat
	commBegin []rat.Rat
	commEnd   []rat.Rat
}

// New returns an all-zero operation list for w with the given period λ.
// Communication ends default to begin+volume (the one-port duration).
func New(w *plan.Weighted, lambda rat.Rat) *List {
	l := &List{
		w:         w,
		lambda:    lambda,
		calcBegin: make([]rat.Rat, w.N()),
		commBegin: make([]rat.Rat, len(w.Edges())),
		commEnd:   make([]rat.Rat, len(w.Edges())),
	}
	for i := range l.commEnd {
		l.commEnd[i] = w.Vol(i)
	}
	return l
}

// Plan returns the weighted plan this list schedules.
func (l *List) Plan() *plan.Weighted { return l.w }

// Lambda returns the period λ.
func (l *List) Lambda() rat.Rat { return l.lambda }

// SetLambda replaces the period (used when re-validating the same schedule
// at a different period, as the paper does in §2.3).
func (l *List) SetLambda(lambda rat.Rat) { l.lambda = lambda }

// SetCalc sets the begin time of node v's computation.
func (l *List) SetCalc(v int, begin rat.Rat) { l.calcBegin[v] = begin }

// CalcBegin returns the begin time of node v's computation.
func (l *List) CalcBegin(v int) rat.Rat { return l.calcBegin[v] }

// CalcEnd returns begin+Ccomp of node v's computation.
func (l *List) CalcEnd(v int) rat.Rat { return l.calcBegin[v].Add(l.w.Comp(v)) }

// SetComm sets the begin time of the idx-th communication with the one-port
// duration (end = begin + volume).
func (l *List) SetComm(idx int, begin rat.Rat) {
	l.commBegin[idx] = begin
	l.commEnd[idx] = begin.Add(l.w.Vol(idx))
}

// SetCommStretched sets explicit begin and end times for the idx-th
// communication; the multi-port model may stretch a communication beyond
// its volume by assigning it a bandwidth ratio < 1.
func (l *List) SetCommStretched(idx int, begin, end rat.Rat) {
	l.commBegin[idx] = begin
	l.commEnd[idx] = end
}

// CommBegin returns the begin time of the idx-th communication.
func (l *List) CommBegin(idx int) rat.Rat { return l.commBegin[idx] }

// CommEnd returns the end time of the idx-th communication.
func (l *List) CommEnd(idx int) rat.Rat { return l.commEnd[idx] }

// Period returns λ.
func (l *List) Period() rat.Rat { return l.lambda }

// Latency returns max over communications of EndComm⁰, the paper's latency
// of the plan (output communications close every path).
func (l *List) Latency() rat.Rat {
	max := rat.Zero
	for i := range l.commEnd {
		max = rat.Max(max, l.commEnd[i])
	}
	return max
}

// op is one operation on a server's timeline: the server's computation
// (comm < 0) or the communication with index comm. Checks run on every
// candidate schedule and almost always pass, so an op carries indices only;
// opLabel formats the name when a check fails.
type op struct {
	comm  int
	begin rat.Rat
	dur   rat.Rat
}

// opLabel names operation o of server v for conflict reporting.
func (l *List) opLabel(v int, o op) string {
	if o.comm < 0 {
		return fmt.Sprintf("calc(%s)", l.w.Name(v))
	}
	return fmt.Sprintf("comm(%s)", l.w.Edge(o.comm))
}

// serverOps collects into buf[:0] every operation touching server v: its
// computation and all incident communications (virtual input/output
// endpoints are private and impose no constraints of their own).
func (l *List) serverOps(v int, buf []op) []op {
	ops := append(buf[:0], op{comm: -1, begin: l.calcBegin[v], dur: l.w.Comp(v)})
	for _, idxs := range [2][]int{l.w.InEdges(v), l.w.OutEdges(v)} {
		for _, idx := range idxs {
			ops = append(ops, op{comm: idx, begin: l.commBegin[idx], dur: l.commEnd[idx].Sub(l.commBegin[idx])})
		}
	}
	return ops
}

// Validate checks the full Appendix-A constraint set for the given model
// and returns nil if the operation list is a valid cyclic schedule.
func (l *List) Validate(m plan.Model) error {
	if l.lambda.Sign() <= 0 {
		return fmt.Errorf("oplist: period %s is not positive", l.lambda)
	}
	if err := l.validateCommon(m); err != nil {
		return err
	}
	switch m {
	case plan.Overlap:
		return l.validateOverlap()
	case plan.InOrder:
		if err := l.validateOnePortSameDataSet(); err != nil {
			return err
		}
		return l.validateInOrder()
	case plan.OutOrder:
		if err := l.validateOnePortSameDataSet(); err != nil {
			return err
		}
		return l.validateOutOrder()
	default:
		return fmt.Errorf("oplist: unknown model %v", m)
	}
}

// validateCommon checks constraints shared by all models: non-negative
// start times, duration rules, self-fit within the period, and per-data-set
// precedence.
func (l *List) validateCommon(m plan.Model) error {
	for v := 0; v < l.w.N(); v++ {
		if l.calcBegin[v].Sign() < 0 {
			return fmt.Errorf("oplist: calc(%s) begins at %s < 0", l.w.Name(v), l.calcBegin[v])
		}
		if l.w.Comp(v).Greater(l.lambda) {
			return fmt.Errorf("oplist: calc(%s) duration %s exceeds period %s", l.w.Name(v), l.w.Comp(v), l.lambda)
		}
	}
	for idx, e := range l.w.Edges() {
		b, en, vol := l.commBegin[idx], l.commEnd[idx], l.w.Vol(idx)
		if b.Sign() < 0 {
			return fmt.Errorf("oplist: comm(%s) begins at %s < 0", e, b)
		}
		dur := en.Sub(b)
		if dur.Sign() < 0 {
			return fmt.Errorf("oplist: comm(%s) ends before it begins", e)
		}
		if m == plan.Overlap {
			// Constant ratio vol/dur must be ≤ 1, i.e. dur ≥ vol.
			if dur.Less(vol) {
				return fmt.Errorf("oplist: comm(%s) duration %s shorter than volume %s", e, dur, vol)
			}
		} else {
			// One-port: full bandwidth, duration equals volume exactly.
			if !dur.Equal(vol) {
				return fmt.Errorf("oplist: comm(%s) duration %s != volume %s under one-port", e, dur, vol)
			}
		}
		if dur.Greater(l.lambda) {
			return fmt.Errorf("oplist: comm(%s) duration %s exceeds period %s", e, dur, l.lambda)
		}
	}
	// Per-data-set precedence: receive before compute before send.
	for idx, e := range l.w.Edges() {
		if e.To >= 0 {
			if l.commEnd[idx].Greater(l.calcBegin[e.To]) {
				return fmt.Errorf("oplist: comm(%s) ends at %s after calc(%s) begins at %s",
					e, l.commEnd[idx], l.w.Name(e.To), l.calcBegin[e.To])
			}
		}
		if e.From >= 0 {
			if l.CalcEnd(e.From).Greater(l.commBegin[idx]) {
				return fmt.Errorf("oplist: comm(%s) begins at %s before calc(%s) ends at %s",
					e, l.commBegin[idx], l.w.Name(e.From), l.CalcEnd(e.From))
			}
		}
	}
	return nil
}

// validateOnePortSameDataSet checks the base one-port constraints: for any
// server, two operations for the same data set never overlap in absolute
// time. (Cross-data-set conflicts are handled by the model-specific rules.)
func (l *List) validateOnePortSameDataSet() error {
	var ops []op
	for v := 0; v < l.w.N(); v++ {
		ops = l.serverOps(v, ops)
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				a, b := ops[i], ops[j]
				if a.dur.IsZero() || b.dur.IsZero() {
					continue
				}
				aEnd := a.begin.Add(a.dur)
				bEnd := b.begin.Add(b.dur)
				if a.begin.Less(bEnd) && b.begin.Less(aEnd) {
					return fmt.Errorf("oplist: server %s: %s [%s,%s) overlaps %s [%s,%s)",
						l.w.Name(v), l.opLabel(v, a), a.begin, aEnd, l.opLabel(v, b), b.begin, bEnd)
				}
			}
		}
	}
	return nil
}

// validateInOrder checks constraint (1) of Appendix A: on every server, all
// sends for data set n complete before any receive for data set n+1 begins.
// Together with the base constraints this makes each server process data
// sets one at a time.
func (l *List) validateInOrder() error {
	for v := 0; v < l.w.N(); v++ {
		for _, out := range l.w.OutEdges(v) {
			for _, in := range l.w.InEdges(v) {
				nextBegin := l.commBegin[in].Add(l.lambda)
				if l.commEnd[out].Greater(nextBegin) {
					return fmt.Errorf("oplist: server %s: comm(%s) ends at %s after next-data-set comm(%s) begins at %s",
						l.w.Name(v), l.w.Edge(out), l.commEnd[out], l.w.Edge(in), nextBegin)
				}
			}
		}
	}
	return nil
}

// validateOutOrder checks that all operations touching a server are
// pairwise disjoint on the λ-cycle, which is exactly the Appendix-A
// case-1/case-2 disjunction list for the OUTORDER model.
func (l *List) validateOutOrder() error {
	var ops []op
	for v := 0; v < l.w.N(); v++ {
		ops = l.serverOps(v, ops)
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				if !l.circularDisjoint(ops[i], ops[j]) {
					return fmt.Errorf("oplist: server %s: %s and %s overlap modulo λ=%s",
						l.w.Name(v), l.opLabel(v, ops[i]), l.opLabel(v, ops[j]), l.lambda)
				}
			}
		}
	}
	return nil
}

// circularDisjoint reports whether two operations with durations ≤ λ are
// disjoint when both repeat every λ. With x = (b2-b1) mod λ, the copies are
// disjoint iff d1 ≤ x ≤ λ-d2.
func (l *List) circularDisjoint(a, b op) bool {
	if a.dur.IsZero() || b.dur.IsZero() {
		return true
	}
	x := b.begin.Sub(a.begin).Mod(l.lambda)
	return a.dur.Leq(x) && x.Leq(l.lambda.Sub(b.dur))
}

// validateOverlap checks the multi-port capacity constraints: on every
// server, at every instant of the λ-cycle, the bandwidth ratios of active
// incoming (resp. outgoing) communications sum to at most 1. A
// communication of volume t and duration d holds ratio t/d for its whole
// lifetime (the paper requires the ratio to be constant).
func (l *List) validateOverlap() error {
	for v := 0; v < l.w.N(); v++ {
		if err := l.checkCapacity(v, l.w.InEdges(v), "incoming"); err != nil {
			return err
		}
		if err := l.checkCapacity(v, l.w.OutEdges(v), "outgoing"); err != nil {
			return err
		}
	}
	return nil
}

// checkCapacity verifies Σ ratios ≤ 1 over one direction of one server.
// Active intervals are projected on the λ-circle; between consecutive
// breakpoints the active set is constant, so checking each segment suffices.
func (l *List) checkCapacity(v int, edgeIdxs []int, dir string) error {
	type span struct {
		startMod rat.Rat // begin mod λ
		dur      rat.Rat
		rate     rat.Rat
	}
	spans := make([]span, 0, len(edgeIdxs))
	sum := rat.Zero
	for _, idx := range edgeIdxs {
		vol := l.w.Vol(idx)
		if vol.IsZero() {
			continue
		}
		dur := l.commEnd[idx].Sub(l.commBegin[idx])
		if dur.IsZero() {
			return fmt.Errorf("oplist: comm(%s) has zero duration but volume %s", l.w.Edge(idx), vol)
		}
		s := span{
			startMod: l.commBegin[idx].Mod(l.lambda),
			dur:      dur,
			rate:     vol.Div(dur),
		}
		spans = append(spans, s)
		sum = sum.Add(s.rate)
	}
	if sum.Leq(rat.One) {
		// Even with every communication active at once the port holds: no
		// instant can exceed the sum of all ratios. Covers the empty and the
		// single-communication port and every Theorem-1 schedule (ratios
		// volume/λ with λ ≥ Cin, Cout).
		return nil
	}
	points := make([]rat.Rat, 0, 2*len(spans)+1)
	for _, s := range spans {
		points = append(points, s.startMod, s.startMod.Add(s.dur).Mod(l.lambda))
	}
	points = append(points, rat.Zero)
	sort.Slice(points, func(i, j int) bool { return points[i].Less(points[j]) })
	// Deduplicate.
	uniq := points[:1]
	for _, p := range points[1:] {
		if !p.Equal(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	for _, p := range uniq {
		// Activity is constant on [p, next); testing membership of p in each
		// half-open wrapped interval decides the whole segment.
		total := rat.Zero
		for _, s := range spans {
			if s.dur.Geq(l.lambda) {
				// Duration exactly λ: permanently active (durations > λ were
				// rejected by validateCommon).
				total = total.Add(s.rate)
				continue
			}
			x := p.Sub(s.startMod).Mod(l.lambda)
			if x.Less(s.dur) {
				total = total.Add(s.rate)
			}
		}
		if total.Greater(rat.One) {
			return fmt.Errorf("oplist: server %s: %s bandwidth %s exceeds capacity at cycle time %s",
				l.w.Name(v), dir, total, p)
		}
	}
	return nil
}
