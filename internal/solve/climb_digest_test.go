package solve

// The forest hill climb above the answer-stream corpus: the corpus of
// TestAnswerStreamDigest stops at 6 services, below the exact caps, so the
// climb at the sizes the planning service sends it (8 services, and 14 —
// past the 12-node threshold where candidate parents are sampled) is pinned
// here. One digest covers the answers and, at Workers 1, the search effort
// (orchestrations, memo hits, order-search counters): a change to the
// climb's move filter must move neither.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
)

// The committed digests, recorded by this test at commit f58d26b.
const (
	climbDigestFull  = "1bd3fa34ca4eefd8d53664cb517b9770b680dcab4ec4cf0912f57028e1f4fae5"
	climbDigestShort = "791b9d0d23d332f6cd0e39c479049954ad077e404c5c3b96494fff84972540c6"
)

func TestClimbDigest(t *testing.T) {
	sizes := []int{8, 14}
	if testing.Short() {
		sizes = sizes[:1]
	}
	h := sha256.New()
	for _, n := range sizes {
		for i := 0; i < 6; i++ {
			p := []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding}[i%3]
			app := gen.App(gen.NewRand(int64(200+10*i+n)), n, p)
			for _, m := range plan.Models {
				for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
					for _, workers := range []int{1, 4} {
						probe := &EvalProbe{}
						opts := Options{Method: HillClimb, Seed: int64(n + i), Workers: workers, Probe: probe}
						var sol Solution
						var err error
						if obj == PeriodObjective {
							sol, err = MinPeriod(app, m, opts)
						} else {
							sol, err = MinLatency(app, m, opts)
						}
						fmt.Fprintf(h, "n%d #%d %s %s %s w%d: ", n, i, p, m, obj, workers)
						writeAnswer(t, h, sol, err)
						if workers == 1 {
							o := probe.Orch()
							fmt.Fprintf(h, "effort %d %d %d %d %d\n", probe.Evals(), probe.MemoHits(), o.Prefixes, o.Pruned, o.Evaluated)
						}
					}
				}
			}
		}
	}
	want := climbDigestFull
	if testing.Short() {
		want = climbDigestShort
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("climb digest %s, committed %s", got, want)
	}
}
