package solve

// The answer stream as a committed oracle: one seeded gen corpus solved
// through every method, model, objective and worker count, hashed into two
// constants. The answer digest covers what a caller sees (value, graph,
// schedule, Exact, bottleneck) and must not move unless a change means to
// move an answer. The counter digest covers the search effort at Workers 1
// (branch-and-bound and order-search counters, cut-offs included): a change
// that prunes differently but answers the same moves only this one, and
// says why.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/workflow"
)

// The committed digests, recorded by this test at commit 9ebaeb6; the
// counter halves re-recorded when the order searches gained cut-offs and
// the exact search lost its climb seed below six services, and again when
// the DAG tree began cutting every orientation that leaves an implied edge
// (fewer nodes expanded and graphs evaluated, the same answers), and again
// when the searches began stopping at the period floor.
const (
	answerDigestFull   = "75fe13a8215d91c28cb39489f7879fcfcc7f4d60bbb7048b78afecfa1c237685"
	counterDigestFull  = "25c8d3246e9fb24a0d30a9a0cad4d6a2148736e2775d5f60e7e6a922b854833a"
	answerDigestShort  = "bc846e970773b47390ceef23af722f5d92a40a9314b18511ce8165e1ee6ffc22"
	counterDigestShort = "23cc530957f14671cf3a1fb1613b042d4939c0279e6b612c6fabcdbd251542be"
)

// digestCorpus draws, per selectivity profile, free instances of 4 to 6
// services and instances with precedence of 4 and 5 — both sides of the
// exact search's DAG cap; -short keeps the 4-service ones.
func digestCorpus(short bool) []*workflow.App {
	var apps []*workflow.App
	for i, p := range []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding, gen.Neutral} {
		for n := 4; n <= 6; n++ {
			if short && n > 4 {
				break
			}
			rng := gen.NewRand(int64(100 + 10*i + n))
			apps = append(apps, gen.App(rng, n, p))
			if n < 6 {
				apps = append(apps, gen.AppWithPrecedence(rng, n, p, 0.3))
			}
		}
	}
	return apps
}

// writeAnswer appends one solve's fingerprint to h: the objective value,
// Exact, the graph edges, the schedule's JSON, the schedule's exactness and
// the bottleneck labels — or the error.
func writeAnswer(t *testing.T, h hash.Hash, sol Solution, err error) {
	t.Helper()
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	sched, jerr := json.Marshal(sol.Sched.List)
	if jerr != nil {
		t.Fatal(jerr)
	}
	fmt.Fprintf(h, "%s %v %v %s %v %q\n", sol.Value, sol.Exact, sol.Graph.Graph().Edges(), sched, sol.Sched.Exact, sol.Sched.Bottleneck)
}

func TestAnswerStreamDigest(t *testing.T) {
	type config struct {
		method Method
		family Family
	}
	configs := []config{
		{Auto, FamilyAuto}, {GreedyChain, FamilyAuto}, {HillClimb, FamilyAuto},
		{BranchBound, FamilyAuto}, {BranchBound, FamilyChain}, {BranchBound, FamilyForest}, {BranchBound, FamilyDAG},
	}
	answers, counters := sha256.New(), sha256.New()
	for ai, app := range digestCorpus(testing.Short()) {
		for _, c := range configs {
			for _, m := range []plan.Model{plan.Overlap, plan.InOrder, plan.OutOrder} {
				for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
					for _, workers := range []int{1, 4} {
						var ef Effort
						opts := Options{Method: c.method, Family: c.family, Seed: int64(ai), Workers: workers, Effort: &ef}
						var sol Solution
						var err error
						if obj == PeriodObjective {
							sol, err = MinPeriod(app, m, opts)
						} else {
							sol, err = MinLatency(app, m, opts)
						}
						fmt.Fprintf(answers, "%d %s/%s %s %s w%d: ", ai, c.method, c.family, m, obj, workers)
						writeAnswer(t, answers, sol, err)
						if workers == 1 {
							st, o := ef.Search, ef.Orch
							fmt.Fprintf(counters, "%d %s/%s %s %s: %d %d %d %d %d %d %d\n", ai, c.method, c.family, m, obj,
								st.Expanded, st.Pruned, st.Evaluated, o.Prefixes, o.Pruned, o.Evaluated, o.CutOffs)
						}
					}
				}
			}
		}
	}
	wantAnswers, wantCounters := answerDigestFull, counterDigestFull
	if testing.Short() {
		wantAnswers, wantCounters = answerDigestShort, counterDigestShort
	}
	if got := hex.EncodeToString(answers.Sum(nil)); got != wantAnswers {
		t.Errorf("answer digest %s, committed %s", got, wantAnswers)
	}
	if got := hex.EncodeToString(counters.Sum(nil)); got != wantCounters {
		t.Errorf("counter digest %s, committed %s", got, wantCounters)
	}
}
