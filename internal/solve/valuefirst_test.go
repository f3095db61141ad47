package solve

// The value-first differential suite. The plan searches score every
// candidate graph and materialise only the one they return; the reference
// kept here is the evaluation they replaced — materialise and validate
// EVERY candidate, fail the candidate when that fails — plugged into the
// same solvers through the evaluate seam. Over a seeded corpus the two must
// return the identical Solution for every method, family, model, objective
// and worker count, and do the identical plan search (same
// search counters and candidate evaluations at Workers 1). The order
// searches inside differ by design: the reference scores with no limit, so
// it never cuts a candidate off, and its orchestration counters are not
// compared. The eager side must also never fail a materialisation: the
// searches rely on Materialise being total on what the scoring produced.

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// eagerFailures records the materialisations eagerEvaluate saw fail.
var eagerFailures struct {
	sync.Mutex
	errs []string
}

// eagerEvaluate is the pre-value-first evaluation: the candidate is fully
// orchestrated — scored with no limit, its list rebuilt, validated and
// explained — before the search sees its value. The caller's limit is
// ignored, so no candidate is ever cut off: a shipped search that rejects
// a cut-off must keep what this one keeps.
func eagerEvaluate(eg *plan.ExecGraph, m plan.Model, obj Objective, opts Options, _ orchestrate.Limit) (scored, error) {
	c, err := scoreCandidate(eg, m, obj, opts, orchestrate.NoLimit)
	if err != nil {
		return c, err
	}
	if _, err := materialise(c, opts); err != nil {
		eagerFailures.Lock()
		eagerFailures.errs = append(eagerFailures.errs, fmt.Sprintf("%s/%s/%s: %v", eg, m, obj, err))
		eagerFailures.Unlock()
		return c, err
	}
	return c, nil
}

// withEvaluate runs fn with the package's evaluation replaced.
func withEvaluate(eval func(*plan.ExecGraph, plan.Model, Objective, Options, orchestrate.Limit) (scored, error), fn func()) {
	saved := evaluate
	evaluate = eval
	defer func() { evaluate = saved }()
	fn()
}

// fingerprint flattens everything a caller can observe of a Solution.
func fingerprint(t *testing.T, sol Solution) string {
	t.Helper()
	sched, err := json.Marshal(sol.Sched.List)
	if err != nil {
		t.Fatalf("marshal schedule: %v", err)
	}
	return fmt.Sprintf("value=%s exact=%v graph=%s sched=%s schedValue=%s bound=%s schedExact=%v bottleneck=%s",
		sol.Value, sol.Exact, sol.Graph, sched, sol.Sched.Value, sol.Sched.LowerBound, sol.Sched.Exact,
		strings.Join(sol.Sched.Bottleneck, ","))
}

// outcome is one solve as the suite compares it.
type outcome struct {
	print  string // fingerprint, or "error: ..." when the solve failed
	search Stats
	orch   orchestrate.Stats
	evals  int64
}

// search is one way to ask for a plan: a method, and for BranchBound the
// structural family.
type search struct {
	method Method
	family Family
}

func (s search) String() string { return s.method.String() + "/" + s.family.String() }

func runValueFirstCase(t *testing.T, app *workflow.App, m plan.Model, obj Objective, how search, workers int) outcome {
	t.Helper()
	var out outcome
	var ef Effort
	opts := Options{Method: how.method, Family: how.family, Orch: smallOrch(), Restarts: 2, Seed: 7, Workers: workers, Effort: &ef}
	sol, err := minimize(app, m, obj, opts)
	out.search, out.orch, out.evals = ef.Search, ef.Orch, ef.Evals
	if err != nil {
		out.print = "error: " + err.Error()
		return out
	}
	if verr := sol.Sched.List.Validate(m); verr != nil {
		t.Fatalf("%s/%s/%s workers=%d: winner fails validation: %v", how, m, obj, workers, verr)
	}
	out.print = fingerprint(t, sol)
	return out
}

// valueFirstSearches lists the searches the suite runs on an instance:
// every method, and the exact search over every family the instance
// admits. Every one runs under every model and objective up to n = 4;
// above that only the family Auto would search goes on, and the cells
// where one solve costs tens of milliseconds — one-port period order
// searches inside DAG climbs and DAG searches — are thinned so the nine
// solves per cell of the whole corpus fit a unit-test budget.
func valueFirstSearches(app *workflow.App, m plan.Model, obj Objective) []search {
	n, prec := app.N(), app.HasPrecedence()
	onePortPeriod := obj == PeriodObjective && m != plan.Overlap
	auto := ResolveFamily(app, obj, FamilyAuto)
	var out []search
	if !prec || n <= 5 || !onePortPeriod {
		out = append(out, search{HillClimb, FamilyAuto})
	}
	if !prec {
		out = append(out, search{GreedyChain, FamilyAuto})
		if n <= 4 || (auto == FamilyForest && (n == 5 || (n == 6 && !onePortPeriod))) {
			out = append(out, search{BranchBound, FamilyForest})
		}
	}
	if n <= 4 || (auto == FamilyDAG && n == 5 && m == plan.Overlap) {
		out = append(out, search{BranchBound, FamilyDAG})
	}
	return out
}

// valueFirstSizes is the instance-size cycle of the corpus: mostly small,
// where every method runs, with n = 6 and 7 for the climbs and the chains.
var valueFirstSizes = [...]int{3, 4, 3, 4, 5, 3, 4, 5, 6, 7}

func TestValueFirstMatchesEagerReference(t *testing.T) {
	instances := 200
	if testing.Short() || raceEnabled {
		instances = 30 // sizes 3..7 and both precedence kinds once over
	}
	solves := 0
	eagerFailures.errs = nil
	for i := 0; i < instances; i++ {
		rng := gen.NewRand(int64(9000 + i))
		n := valueFirstSizes[(i/2)%len(valueFirstSizes)] // free and precedence-constrained alternating
		var app *workflow.App
		if i%2 == 0 {
			app = gen.App(rng, n, gen.Mixed)
		} else {
			app = gen.AppWithPrecedence(rng, n, gen.Mixed, 0.3)
		}
		for _, m := range plan.Models {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				for _, how := range valueFirstSearches(app, m, obj) {
					name := fmt.Sprintf("instance %d (n=%d prec=%v) %s/%s/%s", i, n, i%2 == 1, how, m, obj)
					var ref outcome
					withEvaluate(eagerEvaluate, func() {
						ref = runValueFirstCase(t, app, m, obj, how, 1)
					})
					got1 := runValueFirstCase(t, app, m, obj, how, 1)
					got4 := runValueFirstCase(t, app, m, obj, how, 4)
					solves += 3
					if got1.print != ref.print {
						t.Fatalf("%s: value-first diverged from the eager reference:\n--- eager ---\n%s\n--- value-first ---\n%s", name, ref.print, got1.print)
					}
					if got4.print != ref.print {
						t.Fatalf("%s: value-first at 4 workers diverged:\n--- eager ---\n%s\n--- value-first ---\n%s", name, ref.print, got4.print)
					}
					if got1.search != ref.search || got1.evals != ref.evals {
						t.Fatalf("%s: search effort moved: eager %+v evals=%d, value-first %+v evals=%d",
							name, ref.search, ref.evals, got1.search, got1.evals)
					}
					if ref.orch.CutOffs != 0 {
						t.Fatalf("%s: the unlimited reference cut %d candidates off", name, ref.orch.CutOffs)
					}
				}
			}
		}
	}
	if errs := eagerFailures.errs; len(errs) > 0 {
		t.Fatalf("the eager reference failed %d materialisations; first: %s", len(errs), errs[0])
	}
	t.Logf("%d instances, %d solves", instances, solves)
}

// TestLyingWinnerIsAnError pins what a search does when the one schedule
// it builds does not reach the score it kept. Materialise is total on the
// scores the scoring produces, so such a winner is an internal error: it is
// returned, never skipped in favour of a runner-up.
func TestLyingWinnerIsAnError(t *testing.T) {
	app := gen.App(gen.NewRand(31), 4, gen.Mixed)
	opts := Options{Method: BranchBound, Family: FamilyForest, Orch: smallOrch(), Workers: 1}
	honest := solveOnce(t, app, plan.InOrder, PeriodObjective, opts)
	const lie = "materialised schedule reaches"

	// Unit level: a shard keeps scores, so a lying candidate that scores
	// best is kept, and materialising it is where the lie surfaces.
	c, err := scoreCandidate(honest.Graph, plan.InOrder, PeriodObjective, opts.withDefaults(), orchestrate.NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	lying := c
	lying.Value = c.Value.Mul(rat.New(1, 2))
	var r shardResult
	if !r.offer(c) || !r.offer(lying) {
		t.Fatal("a strictly better score was refused")
	}
	if _, err := reduce([]shardResult{r}, opts, "no plan"); err == nil || !strings.Contains(err.Error(), lie) {
		t.Fatalf("lying winner: err = %v, want %q", err, lie)
	}

	// Solver level: make the optimal graph's score lie. The search reaches
	// it, keeps it as its winner, and must return the error.
	withEvaluate(func(eg *plan.ExecGraph, m plan.Model, obj Objective, o Options, limit orchestrate.Limit) (scored, error) {
		c, err := scoreCandidate(eg, m, obj, o, limit)
		if err == nil && eg.String() == honest.Graph.String() {
			c.Value = c.Value.Mul(rat.New(1, 2))
		}
		return c, err
	}, func() { _, err = MinPeriod(app, plan.InOrder, opts) })
	if err == nil || !strings.Contains(err.Error(), lie) {
		t.Fatalf("search with a lying winner: err = %v, want %q", err, lie)
	}
}

// TestMaterialiseOncePerSolve counts the schedules a solve builds. A hill
// climb materialises its one winner; branch-and-bound below six services
// at most two: the greedy-chain seed and the winner (the climb seed, a
// third, runs from six up).
func TestMaterialiseOncePerSolve(t *testing.T) {
	var count atomic.Int64
	saved := materialise
	materialise = func(c scored, opts Options) (Solution, error) {
		count.Add(1)
		return saved(c, opts)
	}
	defer func() { materialise = saved }()
	for i, app := range []*workflow.App{
		gen.App(gen.NewRand(41), 5, gen.Mixed),
		gen.AppWithPrecedence(gen.NewRand(42), 5, gen.Mixed, 0.3),
	} {
		for _, m := range plan.Models {
			for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
				for _, c := range []struct {
					method Method
					most   int64
				}{{HillClimb, 1}, {BranchBound, 2}} {
					count.Store(0)
					solveOnce(t, app, m, obj, Options{Method: c.method, Orch: smallOrch(), Workers: 2})
					if got := count.Load(); got < 1 || got > c.most {
						t.Errorf("instance %d %s/%s %s: %d materialisations, want 1..%d", i, m, obj, c.method, got, c.most)
					}
				}
			}
		}
	}
}
