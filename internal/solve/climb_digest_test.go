package solve

// The hill climbs above the answer-stream corpus: the corpus of
// TestAnswerStreamDigest stops at 6 services (5 with precedence), below the
// exact caps, so the climbs at the sizes the planning service sends them are
// pinned here. The forest climb runs at 8 services and at 14, past the
// 12-node threshold where candidate parents are sampled; the DAG climb runs
// on precedence instances of 6 to 8 services. Each digest is a pair, like
// TestAnswerStreamDigest's: the answers, and at Workers 1 the search effort
// (orchestrations, order-search counters and cut-offs). A change
// to a climb's move filter must move neither.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/workflow"
)

// The committed digests, recorded by these tests at commit 3ac4fd7; the
// effort halves re-recorded when the order searches gained cut-offs, and
// all but the short DAG one (no climb there stops early) when the
// climbs began stopping at the period floor. All four effort halves moved
// when the per-solve orchestration memo was deleted: former memo hits now
// count their order-search prefixes and evaluations, and the effort line
// lost its memo-hit column. The full DAG answers moved when OUTORDER
// bottleneck labels began naming the scored graph's critical cycle: the
// labels of two instances' OUTORDER period answers moved, nothing else.
const (
	climbAnswerFull     = "bd988a2c3f70f2a2f137e2083e91f1f05ae4a70f7a34d08d1b3581107ff6ba9e"
	climbEffortFull     = "0ce62dd36639166c3f678b12a1a470f03572b6f6a491d4f0d6b741ce4b10ddd2"
	climbAnswerShort    = "707b85cacccb7710c1153ea10666d149ae9d5d09996e8433475bfa3279b6d5e6"
	climbEffortShort    = "38cd76b9d5def6255375327753bfdf43c1beec216bcf548f7b64f4cb7905b3e9"
	climbDAGAnswerFull  = "ea8435b2beb413bffd4119e025d0207f4608f948171da851e18fdb71bb0eb87e"
	climbDAGEffortFull  = "c12f5bba15c6e2bbb6cd2d83fdc8a050be03dd5d3dd92ce390de2cf8ae28443e"
	climbDAGAnswerShort = "d27338fe9804baa2492dfb774d0b3f62ad2bf7349a41c3f5dcf9fea192ab4f75"
	climbDAGEffortShort = "fd979bb114f0426b3d851ca98e24c8ced05cbb03f18e42ea4ed8cc3b8f0df14d"
)

// climbInstance is one digest instance and the climb seed it is solved with.
type climbInstance struct {
	label string
	app   *workflow.App
	seed  int64
}

// checkClimbDigest hill-climbs every instance × model × objective × Workers
// {1, 4} and compares the answer and Workers-1 effort digests with the
// committed pair.
func checkClimbDigest(t *testing.T, insts []climbInstance, wantAnswers, wantEffort string) {
	answers, effort := sha256.New(), sha256.New()
	for _, in := range insts {
		for _, m := range plan.Models {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				for _, workers := range []int{1, 4} {
					var ef Effort
					opts := Options{Method: HillClimb, Seed: in.seed, Workers: workers, Effort: &ef}
					var sol Solution
					var err error
					if obj == PeriodObjective {
						sol, err = MinPeriod(in.app, m, opts)
					} else {
						sol, err = MinLatency(in.app, m, opts)
					}
					fmt.Fprintf(answers, "%s %s %s w%d: ", in.label, m, obj, workers)
					writeAnswer(t, answers, sol, err)
					if workers == 1 {
						o := ef.Orch
						fmt.Fprintf(effort, "%s %s %s: %d %d %d %d %d\n", in.label, m, obj,
							ef.Evals, o.Prefixes, o.Pruned, o.Evaluated, o.CutOffs)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(answers.Sum(nil)); got != wantAnswers {
		t.Errorf("answer digest %s, committed %s", got, wantAnswers)
	}
	if got := hex.EncodeToString(effort.Sum(nil)); got != wantEffort {
		t.Errorf("effort digest %s, committed %s", got, wantEffort)
	}
}

// TestClimbDigest pins the forest climb: six instances per size, two of
// each profile.
func TestClimbDigest(t *testing.T) {
	sizes := []int{8, 14}
	wantAnswers, wantEffort := climbAnswerFull, climbEffortFull
	if testing.Short() {
		sizes = sizes[:1]
		wantAnswers, wantEffort = climbAnswerShort, climbEffortShort
	}
	var insts []climbInstance
	for _, n := range sizes {
		for i := 0; i < 6; i++ {
			p := []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding}[i%3]
			insts = append(insts, climbInstance{fmt.Sprintf("n%d #%d %s", n, i, p),
				gen.App(gen.NewRand(int64(200+10*i+n)), n, p), int64(n + i)})
		}
	}
	checkClimbDigest(t, insts, wantAnswers, wantEffort)
}

// TestClimbDAGDigest pins the DAG climb: one precedence instance (density
// 0.3) per size and profile.
func TestClimbDAGDigest(t *testing.T) {
	sizes := []int{6, 7, 8}
	wantAnswers, wantEffort := climbDAGAnswerFull, climbDAGEffortFull
	if testing.Short() {
		sizes = sizes[:1]
		wantAnswers, wantEffort = climbDAGAnswerShort, climbDAGEffortShort
	}
	var insts []climbInstance
	for _, n := range sizes {
		for i, p := range []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding} {
			app := gen.AppWithPrecedence(gen.NewRand(int64(500+10*i+n)), n, p, 0.3)
			if !app.HasPrecedence() {
				t.Fatalf("prec n%d %s drew no precedence edge: the forest climb would run", n, p)
			}
			insts = append(insts, climbInstance{fmt.Sprintf("prec n%d %s", n, p), app, int64(n + i)})
		}
	}
	checkClimbDigest(t, insts, wantAnswers, wantEffort)
}
