package orchestrate

// The score/materialise suite: a score carries the value of the schedule
// Materialise later rebuilds, every rebuilt schedule passes the Appendix-A
// validator of its model, a memoized score materialises to the same
// schedule, the memo key keeps problems apart, and a score that does not
// describe its plan is refused.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// scoreCorpus yields weighted plans of every shape the scoring forms
// dispatch on: forests (tree latency), chains, filtering DAGs and raw
// weighted workflows, small enough for the exhaustive order search and
// wide enough (the last ones) for the heuristic path under smallSearch.
func scoreCorpus() []*plan.Weighted {
	var plans []*plan.Weighted
	for seed := int64(0); seed < 40; seed++ {
		rng := gen.NewRand(seed)
		n := 3 + int(seed%5)
		app := gen.App(rng, n, gen.Mixed)
		plans = append(plans,
			gen.ForestPlan(rng, app).Weighted(),
			randomChain(rng, app).Weighted(),
			gen.DAGPlan(rng, app, 0.4).Weighted(),
			gen.DAGPlan(rng, gen.AppWithPrecedence(rng, n, gen.Mixed, 0.3), 0.3).Weighted(),
			gen.Weighted(rng, n, 0.5))
	}
	return plans
}

// smallSearch keeps the exhaustive budget low so part of the corpus takes
// the heuristic path.
// randomChain is the chain execution graph visiting app's services in a
// random order; app has no precedence constraints.
func randomChain(rng *rand.Rand, app *workflow.App) *plan.ExecGraph {
	eg, err := plan.ChainFromOrder(app, rng.Perm(app.N()))
	if err != nil {
		panic(err)
	}
	return eg
}

func smallSearch() Options { return Options{MaxExhaustive: 64, LocalSearchPasses: 2, RandomSamples: 8} }

func TestScoreValueIsMaterialisedValue(t *testing.T) {
	type scorer func(*Memo, *plan.Weighted, plan.Model, Options, Limit) (Score, bool, error)
	objectives := []struct {
		name  string
		score scorer
		value func(Result) rat.Rat
	}{
		{"period", ScorePeriod, func(r Result) rat.Rat { return r.List.Lambda() }},
		{"latency", ScoreLatency, func(r Result) rat.Rat { return r.List.Latency() }},
	}
	for i, w := range scoreCorpus() {
		memo := NewMemo() // per plan: the corpus repeats some shapes
		for _, m := range plan.Models {
			for _, obj := range objectives {
				s, hit, err := obj.score(memo, w, m, smallSearch(), NoLimit)
				if err != nil {
					t.Fatalf("plan %d %s/%s: score: %v", i, m, obj.name, err)
				}
				if hit {
					t.Fatalf("plan %d %s/%s: first scoring reported a memo hit", i, m, obj.name)
				}
				res, err := s.Materialise(w)
				if err != nil {
					t.Fatalf("plan %d %s/%s: materialise: %v", i, m, obj.name, err)
				}
				if !res.Value.Equal(s.Value) || !res.LowerBound.Equal(s.LowerBound) || res.Exact != s.Exact {
					t.Fatalf("plan %d %s/%s: score {%s %s %v} materialised as {%s %s %v}",
						i, m, obj.name, s.Value, s.LowerBound, s.Exact, res.Value, res.LowerBound, res.Exact)
				}
				if v := obj.value(res); !v.Equal(s.Value) {
					t.Fatalf("plan %d %s/%s: list reaches %s, scored %s", i, m, obj.name, v, s.Value)
				}
				if err := res.List.Validate(m); err != nil {
					t.Fatalf("plan %d %s/%s: materialised schedule invalid: %v", i, m, obj.name, err)
				}
				if s.Value.Less(s.LowerBound) {
					t.Fatalf("plan %d %s/%s: value %s below bound %s", i, m, obj.name, s.Value, s.LowerBound)
				}
				// A memo hit is the same score and the same schedule.
				again, hit, err := obj.score(memo, w, m, smallSearch(), NoLimit)
				if err != nil || !hit {
					t.Fatalf("plan %d %s/%s: second scoring: hit=%v err=%v", i, m, obj.name, hit, err)
				}
				res2, err := again.Materialise(w)
				if err != nil || !listsIdentical(res.List, res2.List) {
					t.Fatalf("plan %d %s/%s: memoized score materialised differently (err %v)", i, m, obj.name, err)
				}
			}
		}
	}
}

// TestMemoKeySeparatesProblems guards the memo key: one memo scores the same
// weighted plan under two models and both objectives, and each result must
// be the Score a memo-less call returns — a key that conflated models or
// objectives would serve the first problem's Score to the next.
func TestMemoKeySeparatesProblems(t *testing.T) {
	w := gen.DAGPlan(gen.NewRand(4), gen.App(gen.NewRand(4), 5, gen.Mixed), 0.6).Weighted()
	problems := []struct {
		name  string
		m     plan.Model
		score func(*Memo, *plan.Weighted, plan.Model, Options, Limit) (Score, bool, error)
	}{
		{"inorder period", plan.InOrder, ScorePeriod},
		{"overlap period", plan.Overlap, ScorePeriod},
		{"inorder latency", plan.InOrder, ScoreLatency},
	}
	memo := NewMemo()
	var values []rat.Rat
	for _, p := range problems {
		want, _, err := p.score(nil, w, p.m, smallSearch(), NoLimit)
		if err != nil {
			t.Fatal(err)
		}
		got, hit, err := p.score(memo, w, p.m, smallSearch(), NoLimit)
		if err != nil || hit {
			t.Fatalf("%s: first memoized scoring: hit=%v err=%v", p.name, hit, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memoized score %+v, memo-less %+v", p.name, got, want)
		}
		for i, v := range values {
			if v.Equal(want.Value) {
				t.Fatalf("%s and %s score the same value %s: the plan does not separate them", problems[i].name, p.name, v)
			}
		}
		values = append(values, want.Value)
	}
}

// TestMaterialiseRefusesForeignScore pins the safety net behind "a returned
// schedule reaches its score": a score whose value its schedule does not
// reach, or whose orders deadlock the plan, never becomes a Result.
func TestMaterialiseRefusesForeignScore(t *testing.T) {
	w := gen.DAGPlan(gen.NewRand(4), gen.App(gen.NewRand(4), 5, gen.Mixed), 0.6).Weighted()
	for _, m := range []plan.Model{plan.InOrder, plan.OutOrder} {
		s, _, err := ScorePeriod(nil, w, m, Options{}, NoLimit)
		if err != nil {
			t.Fatal(err)
		}
		low := s
		low.Value = s.Value.Mul(rat.New(1, 2))
		if _, err := low.Materialise(w); err == nil || !strings.Contains(err.Error(), "scored") {
			t.Fatalf("%s: halved value materialised: %v", m, err)
		}
	}
	lat, _, err := ScoreLatency(nil, w, plan.InOrder, Options{}, NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	// The first order assignment that deadlocks the plan (a cross-server
	// circular wait), dressed up as a latency score.
	deadlock := Score{Value: lat.Value, LowerBound: lat.LowerBound, Orders: lat.Orders.clone(), build: onePortPaths}
	found := false
	forEachOrders(w, func(o Orders) bool {
		if _, err := OnePortLatencyWithOrders(w, o); err != nil {
			deadlock.Orders = o.clone()
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Skip("no deadlocking order assignment on this plan")
	}
	if _, err := deadlock.Materialise(w); err == nil {
		t.Fatal("deadlocking orders materialised")
	}
}

// FuzzScoreMaterialise checks that Materialise is total on the scores the
// scoring forms produce: on gen instances of up to 8 services, random DAG
// plans, the three models and both objectives, under a plan search's
// options (or smallSearch's, for the heuristic order path), every score
// rebuilds into a schedule that reaches it and passes its model's
// validator. The plan searches materialise only their winner and return a
// failure as an internal error, so this is the property they stand on.
// Each score is also redone under a drawn limit (limitPct/128 × the value)
// and held to checkLimited's dichotomy.
func FuzzScoreMaterialise(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(36*seed), seed%2 == 1, seed%4 == 3, uint8(100+8*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, density uint8, prec, heuristic bool, limitPct uint8) {
		n := 2 + int(size)%7
		rng := gen.NewRand(seed)
		app := gen.App(rng, n, gen.Mixed)
		if prec {
			app = gen.AppWithPrecedence(rng, n, gen.Mixed, 0.3)
		}
		eg := gen.DAGPlan(rng, app, float64(density)/255)
		w := eg.Weighted()
		opts := Options{MaxExhaustive: 4096, RandomSamples: -1} // what package solve scores candidates with
		if heuristic {
			opts = smallSearch()
		}
		for _, m := range plan.Models {
			for _, sc := range scorers {
				s, _, err := sc.score(nil, w, m, opts, NoLimit)
				if err != nil {
					continue // nothing scored, nothing to materialise
				}
				res, err := s.Materialise(w)
				if err != nil {
					t.Fatalf("%s %s/%s: materialise: %v", eg, m, sc.obj, err)
				}
				if !res.Value.Equal(s.Value) {
					t.Fatalf("%s %s/%s: materialised %s, scored %s", eg, m, sc.obj, res.Value, s.Value)
				}
				if err := res.List.Validate(m); err != nil {
					t.Fatalf("%s %s/%s: schedule invalid: %v", eg, m, sc.obj, err)
				}
				limit := s.Value.Mul(rat.New(int64(limitPct), 128))
				checkLimited(t, fmt.Sprintf("%s %s/%s", eg, m, sc.obj), w, m, sc, opts, s, limit)
			}
		}
	})
}
