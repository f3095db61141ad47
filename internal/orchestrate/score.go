package orchestrate

// Score versus materialise.
//
// A plan-level search only ever compares objective values of candidate
// execution graphs, so every orchestrator in this package is split in two:
//
//   - a scoring form (ScorePeriod / ScoreLatency and the per-model score*
//     functions behind them) that runs the whole search for the best
//     schedule of the graph but builds no operation list: it returns the
//     value, the lower bound, the exactness flag and the winning per-server
//     orders;
//   - Score.Materialise, which turns a score into the full Result: the
//     operation list rebuilt from the winning orders, validated with the
//     Appendix-A checks of the model(s) it is valid under, plus the
//     bottleneck labels.
//
// Period, Latency and every exported orchestrator are score → materialise,
// so there is one code path, and the order-search models materialise from
// the event graph their search evaluator builds (one encoding per model):
// the value a search compared is by construction the value of the schedule
// it later hands out (Materialise still refuses a list whose objective
// differs from its score).

import (
	"fmt"

	"repro/internal/oplist"
	"repro/internal/plan"
	"repro/internal/rat"
)

// construction names the schedule builder that realizes a Score.
type construction uint8

const (
	theorem1        construction = iota // OVERLAP period (Theorem 1)
	inOrderCycle                        // INORDER event graph at its MCR
	outOrderCycle                       // pipelined OUTORDER template (or the INORDER list when better)
	treeSchedule                        // Algorithm 1 on a forest
	onePortPaths                        // one-port longest paths for fixed orders
	sharedBandwidth                     // multi-port bandwidth-sharing latency
	notBelow                            // a cut-off: every schedule is above Value
)

// Limit is a caller's acceptance limit: the value above which it rejects
// whatever a scoring returns (a climb its current point, a
// branch-and-bound leaf its shard's best and the shared incumbent). When
// the optimum is at most the limit, a scoring is bit-identical to one
// without it. Above it, the order searches stop as soon as they prove that
// no order reaches the limit and return a not-below Score instead of their
// optimum: the limit prunes from the first prefix, and a model floor above
// it ends the search before it starts.
type Limit struct {
	v  rat.Rat
	ok bool
}

// NoLimit asks for the Score whatever its value.
var NoLimit Limit

// AtMost is the limit v: the caller accepts values ≤ v only.
func AtMost(v rat.Rat) Limit { return Limit{v: v, ok: true} }

// Min returns the tighter of l and AtMost(v).
func (l Limit) Min(v rat.Rat) Limit {
	if l.ok && l.v.Leq(v) {
		return l
	}
	return AtMost(v)
}

// excludes reports whether v is above the limit.
func (l Limit) excludes(v rat.Rat) bool { return l.ok && v.Greater(l.v) }

// cutOff is the not-below outcome under limit l.
func cutOff(l Limit) Score { return Score{Value: l.v, build: notBelow} }

// Score is an orchestration outcome without its schedule: what a plan
// search compares (Value), reports (LowerBound, Exact) and needs to rebuild
// the schedule later (Orders and the construction that reads them). It
// holds a few small integer slices and no operation list, so a search can
// score thousands of candidate graphs cheaply.
type Score struct {
	Value      rat.Rat
	LowerBound rat.Rat
	// Exact reports that the schedule search behind Value was exhaustive.
	Exact bool
	// Orders are the winning per-server communication orders (nil where the
	// construction needs none: Theorem 1 and bandwidth sharing; Out only for
	// the tree algorithm).
	Orders Orders
	build  construction
}

// NotBelow reports a cut-off: a scoring under a Limit proved that every
// schedule of the plan is above it, and Value is that limit. There is no
// schedule to materialise, and the caller rejects the candidate.
func (s Score) NotBelow() bool { return s.build == notBelow }

// Materialise builds, validates and explains the schedule a score stands
// for. w must be the weighted plan that was scored (or an identical one).
// It is total on a score the scoring forms produced for w
// (FuzzScoreMaterialise); it fails only on a foreign score, when the
// rebuilt list violates the model's constraints or does not reach the
// scored value, and plan searches return that failure as an internal error.
func (s Score) Materialise(w *plan.Weighted) (Result, error) {
	res := Result{LowerBound: s.LowerBound, Exact: s.Exact}
	var err error
	switch s.build {
	case theorem1:
		res.List, err = overlapPeriodList(w, s.Value)
		res.Value = s.Value
	case inOrderCycle:
		if res.List, err = InOrderPeriodWithOrders(w, s.Orders); err == nil {
			res.Value = res.List.Lambda()
			res.Bottleneck = InOrderBottleneck(res.List)
		}
	case outOrderCycle:
		if res.List, err = OutOrderPeriodWithOrders(w, s.Orders); err == nil {
			res.Value = res.List.Lambda()
			res.Bottleneck = OutOrderBottleneck(res.List)
		}
	case treeSchedule:
		res.List = treeLatencyList(w, s.Orders.Out)
		err = validateAllModels(res.List, "tree latency")
		res.Value = res.List.Latency()
	case onePortPaths:
		if res.List, err = OnePortLatencyWithOrders(w, s.Orders); err == nil {
			err = validateAllModels(res.List, "one-port latency")
			res.Value = res.List.Latency()
		}
	case sharedBandwidth:
		if res.List, err = OverlapLatencyShared(w); err == nil {
			res.Value = res.List.Latency()
		}
	case notBelow:
		err = fmt.Errorf("orchestrate: every schedule is above %s: a cut-off has no schedule", s.Value)
	default:
		err = fmt.Errorf("orchestrate: unknown construction %d", s.build)
	}
	if err != nil {
		return Result{}, err
	}
	if !res.Value.Equal(s.Value) {
		return Result{}, fmt.Errorf("orchestrate: materialised schedule reaches %s, scored %s", res.Value, s.Value)
	}
	return res, nil
}

// validateAllModels checks a one-port single-data-set schedule under all
// three models (one-port lists are valid everywhere, paper §2.2).
func validateAllModels(l *oplist.List, what string) error {
	for _, m := range plan.Models {
		if err := l.Validate(m); err != nil {
			return fmt.Errorf("orchestrate: %s schedule invalid under %s: %w", what, m, err)
		}
	}
	return nil
}

// materialised chains a scoring form into Materialise.
func materialised(s Score, err error, w *plan.Weighted) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return s.Materialise(w)
}

// ScorePeriod scores the best period schedule of w under model m without
// building it. With the optimum at most limit the Score is the one NoLimit
// gives. Otherwise it is a not-below Score, or — where nothing proves the
// limit out cheaply (Theorem 1, the tree algorithm, the heuristic order
// path above its floor) — the Score itself, above the limit: either way
// the caller rejects it. Only the order searches read the limit: Theorem 1
// costs less than a cut-off.
func ScorePeriod(w *plan.Weighted, m plan.Model, opts Options, limit Limit) (Score, error) {
	switch m {
	case plan.Overlap:
		return scoreOverlapPeriod(w), nil
	case plan.InOrder:
		return scoreInOrderPeriod(w, opts, limit)
	case plan.OutOrder:
		return scoreOutOrderPeriod(w, opts, limit)
	default:
		return Score{}, fmt.Errorf("orchestrate: unknown model %v", m)
	}
}

// ScoreLatency is ScorePeriod for the latency objective. For forest-shaped
// plans the exact tree algorithm is used directly (one-port communications
// are dominant on trees, paper Prop. 12), whatever the limit.
func ScoreLatency(w *plan.Weighted, m plan.Model, opts Options, limit Limit) (Score, error) {
	if isForestShaped(w) {
		return scoreTreeLatency(w)
	}
	switch m {
	case plan.Overlap:
		return scoreOverlapLatency(w, opts, limit)
	case plan.InOrder, plan.OutOrder:
		return scoreOnePortLatency(w, opts, limit)
	default:
		return Score{}, fmt.Errorf("orchestrate: unknown model %v", m)
	}
}

// Period orchestrates w for the period objective under model m: it scores,
// then rebuilds the schedule from the score.
func Period(w *plan.Weighted, m plan.Model, opts Options) (Result, error) {
	s, err := ScorePeriod(w, m, opts, NoLimit)
	return materialised(s, err, w)
}

// Latency orchestrates w for the latency objective under model m.
func Latency(w *plan.Weighted, m plan.Model, opts Options) (Result, error) {
	s, err := ScoreLatency(w, m, opts, NoLimit)
	return materialised(s, err, w)
}
