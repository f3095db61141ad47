package orchestrate

// The cut-off suite: a scoring under a Limit is the unlimited scoring
// whenever the optimum is within the limit, a not-below Score otherwise
// (or, where nothing proves the limit out, the unlimited Score itself), and
// the memo's not-below facts serve exactly the limits they cover.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
)

// scorer is one objective's memoized scoring entry point.
type scorer struct {
	obj   string
	score func(*Memo, *plan.Weighted, plan.Model, Options, Limit) (Score, bool, error)
	floor func(*plan.Weighted, plan.Model) rat.Rat
}

var scorers = []scorer{
	{"period", ScorePeriod, func(w *plan.Weighted, m plan.Model) rat.Rat { return w.PeriodLowerBound(m) }},
	{"latency", ScoreLatency, func(w *plan.Weighted, _ plan.Model) rat.Rat { return w.LatencyPathBound() }},
}

// checkLimited scores w under AtMost(limit) with no memo and holds the
// outcome to the unlimited Score s0: identical field for field when s0 is
// within the limit; above it, a cut-off at the limit from an exhaustive
// order search, from the heuristic one only when the floor rules the limit
// out, and never from Theorem 1 or the tree algorithm, which return s0.
// The search counters report a cut-off exactly when the order search ended
// not-below (the OVERLAP latency's one-port search may end so and lose to
// the bandwidth-sharing schedule).
func checkLimited(t *testing.T, name string, w *plan.Weighted, m plan.Model, sc scorer, opts Options, s0 Score, limit rat.Rat) {
	t.Helper()
	var st Stats
	o := opts
	o.Stats = &st
	s, _, err := sc.score(nil, w, m, o, AtMost(limit))
	if err != nil {
		t.Fatalf("%s limit %s: %v", name, limit, err)
	}
	searched := (sc.obj == "period" && m != plan.Overlap) || (sc.obj == "latency" && !isForestShaped(w))
	budget := opts.withDefaults().MaxExhaustive
	heuristic := searched && orderCombinations(w, budget) > budget
	floorOut := sc.floor(w, m).Greater(limit)
	wantCut := s0.Value.Greater(limit) && searched && (!heuristic || floorOut)
	switch {
	case !wantCut && !reflect.DeepEqual(s, s0):
		t.Fatalf("%s limit %s (optimum %s, heuristic %v): limited %+v, unlimited %+v", name, limit, s0.Value, heuristic, s, s0)
	case wantCut && (!s.NotBelow() || !s.Value.Equal(limit)):
		t.Fatalf("%s limit %s (optimum %s, heuristic %v): want a cut-off at the limit, got %+v", name, limit, s0.Value, heuristic, s)
	case s.NotBelow() && st.CutOffs != 1,
		searched && !(sc.obj == "latency" && m == plan.Overlap) && (st.CutOffs == 1) != s.NotBelow():
		t.Fatalf("%s limit %s: %d cut-offs counted for %+v", name, limit, st.CutOffs, s)
	}
	if s.NotBelow() {
		if _, err := s.Materialise(w); err == nil {
			t.Fatalf("%s limit %s: a cut-off materialised", name, limit)
		}
	}
}

// TestScoreBelowLimit runs checkLimited over the score corpus (forests,
// chains, DAGs and raw weighted workflows; smallSearch sends the wider ones
// down the heuristic path) × 3 models × 2 objectives, at limits just
// below, at and just above the optimum, and below the floor.
func TestScoreBelowLimit(t *testing.T) {
	for i, w := range scoreCorpus() {
		for _, m := range plan.Models {
			for _, sc := range scorers {
				s0, _, err := sc.score(nil, w, m, smallSearch(), NoLimit)
				if err != nil {
					t.Fatalf("plan %d %s/%s: %v", i, m, sc.obj, err)
				}
				eps := s0.Value.Mul(rat.New(1, 64))
				for _, limit := range []rat.Rat{
					s0.Value.Sub(eps), s0.Value, s0.Value.Add(eps), sc.floor(w, m).Mul(rat.New(1, 2)),
				} {
					checkLimited(t, fmt.Sprintf("plan %d %s/%s", i, m, sc.obj), w, m, sc, smallSearch(), s0, limit)
				}
			}
		}
	}
}

// TestMemoFacts pins the memo's rules for not-below facts: a fact at L
// serves every limit up to L as a cut-off at that limit, misses above L and
// with no limit, gives way to a higher fact and to a full Score, and never
// replaces a full Score or a higher fact.
func TestMemoFacts(t *testing.T) {
	three, five, four, six := rat.I(3), rat.I(5), rat.I(4), rat.I(6)
	full := Score{Value: rat.I(7), LowerBound: three, Exact: true, build: onePortPaths}
	steps := []struct {
		name  string
		store *Score // nil: lookup only
		limit Limit
		hit   bool
		want  Score
	}{
		{name: "empty", limit: AtMost(five)},
		{name: "fact at 5", store: ptr(cutOff(AtMost(five))), limit: AtMost(four), hit: true, want: cutOff(AtMost(four))},
		{name: "fact serves its own limit", limit: AtMost(five), hit: true, want: cutOff(AtMost(five))},
		{name: "fact misses above", limit: AtMost(six)},
		{name: "fact misses no limit", limit: NoLimit},
		{name: "lower fact kept out", store: ptr(cutOff(AtMost(three))), limit: AtMost(four), hit: true, want: cutOff(AtMost(four))},
		{name: "higher fact replaces", store: ptr(cutOff(AtMost(six))), limit: AtMost(six), hit: true, want: cutOff(AtMost(six))},
		{name: "full score replaces", store: &full, limit: AtMost(three), hit: true, want: full},
		{name: "full score serves no limit", limit: NoLimit, hit: true, want: full},
		{name: "fact never replaces a score", store: ptr(cutOff(AtMost(rat.I(100)))), limit: AtMost(rat.I(100)), hit: true, want: full},
	}
	memo := NewMemo()
	const key = "k"
	for _, st := range steps {
		if st.store != nil {
			memo.store(key, *st.store, nil)
		}
		got, err, hit := memo.lookup(key, st.limit)
		if err != nil || hit != st.hit || (hit && !reflect.DeepEqual(got, st.want)) {
			t.Fatalf("%s: lookup = %+v, %v, hit %v; want %+v, hit %v", st.name, got, err, hit, st.want, st.hit)
		}
	}
}

func ptr[T any](v T) *T { return &v }

// BenchmarkScoreCutoff times one one-port latency scoring on a gen DAG
// plan of 6 and 7 services with no limit and with the limit at 0.9 × the
// optimum, where the search ends in a cut-off.
func BenchmarkScoreCutoff(b *testing.B) {
	opts := Options{MaxExhaustive: 4096, RandomSamples: -1} // what package solve scores candidates with
	for _, n := range []int{6, 7} {
		rng := gen.NewRand(int64(70 + n))
		var w *plan.Weighted
		for w == nil {
			cand := gen.DAGPlan(rng, gen.AppWithPrecedence(rng, n, gen.Mixed, 0.3), 0.4).Weighted()
			if c := orderCombinations(cand, opts.MaxExhaustive); !isForestShaped(cand) && c >= 64 && c <= opts.MaxExhaustive {
				w = cand
			}
		}
		s0, err := scoreOnePortLatency(w, opts, NoLimit)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			limit Limit
		}{{"unlimited", NoLimit}, {"limit=0.9opt", AtMost(s0.Value.Mul(rat.New(9, 10)))}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(b *testing.B) {
				for b.Loop() {
					if _, err := scoreOnePortLatency(w, opts, c.limit); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
