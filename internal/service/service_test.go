package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/rat"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// fingerprint flattens everything observable about a Solution — value,
// exactness, graph, and the full JSON-encoded operation list — so service
// answers compare bit for bit against direct solver calls.
func fingerprint(t *testing.T, sol solve.Solution) string {
	t.Helper()
	sched, err := json.Marshal(sol.Sched.List)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("value=%s exact=%v graph=%s\n%s", sol.Value, sol.Exact, sol.Graph, sched)
}

// directSolve is the reference answer: solve.MinPeriod/MinLatency on the
// request's canonical instance with the request's exact options.
func directSolve(t *testing.T, req Request) solve.Solution {
	t.Helper()
	inst, err := canon.Canonicalize(req.App)
	if err != nil {
		t.Fatal(err)
	}
	var sol solve.Solution
	if req.Objective == solve.PeriodObjective {
		sol, err = solve.MinPeriod(inst.App(), req.Model, req.solveOptions(nil))
	} else {
		sol, err = solve.MinLatency(inst.App(), req.Model, req.solveOptions(nil))
	}
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// shuffled returns the same instance with its services listed in a
// different order (precedence remapped), i.e. a distinct representation of
// the same canonical instance.
func shuffled(t *testing.T, app *workflow.App, seed int64) *workflow.App {
	t.Helper()
	rng := gen.NewRand(seed)
	n := app.N()
	perm := rng.Perm(n) // perm[newIndex] = oldIndex
	services := make([]workflow.Service, n)
	old2new := make([]int, n)
	for newIdx, oldIdx := range perm {
		services[newIdx] = app.Service(oldIdx)
		old2new[oldIdx] = newIdx
	}
	var edges [][2]int
	for _, e := range app.Precedence().Edges() {
		edges = append(edges, [2]int{old2new[e[0]], old2new[e[1]]})
	}
	out, err := workflow.New(services, edges)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPlanMatchesDirectSolve: a served plan (cold or cached) is
// bit-identical to a direct solver call on the canonical instance.
func TestPlanMatchesDirectSolve(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	cases := []Request{
		{App: gen.App(gen.NewRand(1), 4, gen.Mixed), Model: plan.Overlap, Objective: solve.PeriodObjective},
		{App: gen.App(gen.NewRand(2), 4, gen.Filtering), Model: plan.InOrder, Objective: solve.LatencyObjective},
		{App: gen.AppWithPrecedence(gen.NewRand(3), 4, gen.Filtering, 0.3), Model: plan.InOrder, Objective: solve.PeriodObjective},
		{App: gen.App(gen.NewRand(4), 6, gen.Mixed), Model: plan.Overlap, Objective: solve.PeriodObjective, Method: solve.BranchBound},
		{App: testdataApp(t, "mixed6.json"), Model: plan.Overlap, Objective: solve.PeriodObjective},
		{App: testdataApp(t, "webquery8.json"), Model: plan.Overlap, Objective: solve.PeriodObjective},
		{App: testdataApp(t, "expanding12.json"), Model: plan.Overlap, Objective: solve.PeriodObjective},
	}
	for i, req := range cases {
		want := fingerprint(t, directSolve(t, req))
		cold, err := s.Plan(req)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := fingerprint(t, cold.Solution); got != want {
			t.Errorf("case %d: cold response differs from direct solve:\n%s\nvs\n%s", i, got, want)
		}
		if cold.Outcome != plancache.Miss {
			t.Errorf("case %d: cold outcome = %s", i, cold.Outcome)
		}
		warm, err := s.Plan(req)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if warm.Outcome != plancache.Hit {
			t.Errorf("case %d: warm outcome = %s", i, warm.Outcome)
		}
		if got := fingerprint(t, warm.Solution); got != want {
			t.Errorf("case %d: cached response differs from direct solve", i)
		}
	}
}

// TestConcurrentExactlyOneSolvePerHash is the service's concurrency
// contract (run under -race): many concurrent identical requests —
// including permuted listings of the same instance — collapse to exactly
// one solve per canonical cache key, and every response is bit-identical
// to the direct solver answer.
func TestConcurrentExactlyOneSolvePerHash(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})

	const distinct = 5
	const callersPerInstance = 8
	reqs := make([]Request, distinct)
	want := make([]string, distinct)
	for i := range reqs {
		reqs[i] = Request{
			App:       gen.App(gen.NewRand(int64(100+i)), 4, gen.Mixed),
			Model:     plan.Overlap,
			Objective: solve.PeriodObjective,
		}
		want[i] = fingerprint(t, directSolve(t, reqs[i]))
	}

	var wg sync.WaitGroup
	errs := make(chan error, distinct*callersPerInstance)
	for i := range reqs {
		for g := 0; g < callersPerInstance; g++ {
			wg.Add(1)
			go func(i, g int) {
				defer wg.Done()
				req := reqs[i]
				if g%2 == 1 {
					// Odd callers send a permuted listing of the same
					// instance: same canonical hash, same cache key.
					req.App = shuffled(t, req.App, int64(g))
				}
				resp, err := s.Plan(req)
				if err != nil {
					errs <- err
					return
				}
				if got := fingerprint(t, resp.Solution); got != want[i] {
					errs <- fmt.Errorf("instance %d caller %d: response differs from direct solve", i, g)
				}
			}(i, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.Solves != distinct {
		t.Errorf("%d solves for %d distinct canonical instances", st.Solves, distinct)
	}
	if st.Cache.Misses != distinct {
		t.Errorf("cache misses = %d, want %d", st.Cache.Misses, distinct)
	}
	if total := st.Cache.Hits + st.Cache.Coalesced + st.Cache.Misses; total != distinct*callersPerInstance {
		t.Errorf("hits+coalesced+misses = %d, want %d", total, distinct*callersPerInstance)
	}
	if n := metric(t, s, "filterd_registered_instances"); n != float64(distinct) {
		t.Errorf("registered instances = %v, want %d", n, distinct)
	}
}

// TestPlanBatch: results come back in request order, identical items
// coalesce to one solve, and a bad item fails alone.
func TestPlanBatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	appA := gen.App(gen.NewRand(7), 4, gen.Mixed)
	appB := gen.App(gen.NewRand(8), 4, gen.Filtering)
	reqA := Request{App: appA, Model: plan.Overlap, Objective: solve.PeriodObjective}
	reqB := Request{App: appB, Model: plan.Overlap, Objective: solve.PeriodObjective}
	bad := Request{App: nil}

	results := s.PlanBatchContext(context.Background(), []Request{reqA, reqB, reqA, bad, reqA})
	if len(results) != 5 {
		t.Fatalf("%d results", len(results))
	}
	wantA := fingerprint(t, directSolve(t, reqA))
	wantB := fingerprint(t, directSolve(t, reqB))
	for _, i := range []int{0, 2, 4} {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		if got := fingerprint(t, results[i].Response.Solution); got != wantA {
			t.Errorf("item %d differs from direct solve", i)
		}
	}
	if results[1].Err != nil || fingerprint(t, results[1].Response.Solution) != wantB {
		t.Errorf("item 1 wrong: %v", results[1].Err)
	}
	if results[3].Err == nil {
		t.Error("nil-instance item succeeded")
	}
	if st := s.Stats(); st.Solves != 2 {
		t.Errorf("%d solves for 2 distinct instances", st.Solves)
	}
}

// TestDriftWarmStartMatchesColdSolve is the drift contract: a PATCH-style
// update re-plans warm-started from the cached solution and certifies the
// same objective — in fact the bit-identical Solution — as a cold solve of
// the drifted instance.
func TestDriftWarmStartMatchesColdSolve(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	app := gen.App(gen.NewRand(9), 6, gen.Mixed)
	req := Request{App: app, Model: plan.Overlap, Objective: solve.PeriodObjective, Method: solve.BranchBound}

	first, err := s.Plan(req)
	if err != nil {
		t.Fatal(err)
	}

	// Drift two services' numbers.
	name0, name2 := first.Instance.App().Name(0), first.Instance.App().Name(2)
	newCost := rat.New(9, 2)
	newSel := rat.New(2, 3)
	report, err := s.Drift(first.Hash, []Update{
		{Service: name0, Cost: &newCost},
		{Service: name2, Selectivity: &newSel},
	}, Request{Model: req.Model, Objective: req.Objective, Method: req.Method})
	if err != nil {
		t.Fatal(err)
	}

	if report.OldHash != first.Hash {
		t.Errorf("old hash %s != %s", report.OldHash, first.Hash)
	}
	if report.NewHash == report.OldHash {
		t.Error("drift did not change the hash")
	}
	if !report.OldValue.Equal(first.Solution.Value) {
		t.Errorf("old value %s != %s", report.OldValue, first.Solution.Value)
	}
	if !report.WarmStart {
		t.Error("branch-and-bound drift did not warm-start")
	}
	if report.Incumbent.Less(report.NewValue) {
		t.Errorf("incumbent %s below the certified optimum %s", report.Incumbent, report.NewValue)
	}

	// Reference: cold solve of the drifted instance.
	services := first.Instance.App().Services()
	services[0].Cost = newCost
	services[2].Selectivity = newSel
	driftedApp, err := workflow.New(services, first.Instance.App().Precedence().Edges())
	if err != nil {
		t.Fatal(err)
	}
	coldReq := req
	coldReq.App = driftedApp
	want := fingerprint(t, directSolve(t, coldReq))
	if got := fingerprint(t, report.Response.Solution); got != want {
		t.Errorf("warm-started drift re-plan differs from cold solve:\n%s\nvs\n%s", got, want)
	}
	if !report.Response.Solution.Value.Equal(report.NewValue) {
		t.Error("report.NewValue inconsistent with the response")
	}

	// The drifted instance is registered and its plan cached: a repeat
	// Plan is a pure hit.
	again, err := s.Plan(coldReq)
	if err != nil {
		t.Fatal(err)
	}
	if again.Outcome != plancache.Hit || again.Hash != report.NewHash {
		t.Errorf("re-request of drifted instance: outcome %s hash %s", again.Outcome, again.Hash)
	}
}

// TestDriftUnreducedPlanDoesNotWarmStart: the DAG search walks only
// transitively reduced graphs, so a cached plan carrying an edge another
// path implies is no member of its family and its value is not offered as
// the incumbent; the same plan without that edge is, and both re-plans
// answer as a cold solve of the drifted instance.
func TestDriftUnreducedPlanDoesNotWarmStart(t *testing.T) {
	app := gen.App(gen.NewRand(9), 4, gen.Mixed)
	req := Request{Model: plan.InOrder, Objective: solve.LatencyObjective, Method: solve.BranchBound}
	inst, err := canon.Canonicalize(app)
	if err != nil {
		t.Fatal(err)
	}
	newCost := rat.New(9, 2)
	updates := []Update{{Service: inst.App().Name(0), Cost: &newCost}}
	services := inst.App().Services()
	services[0].Cost = newCost
	coldReq := req
	coldReq.App = workflow.MustNew(services, nil)
	want := fingerprint(t, directSolve(t, coldReq))

	chain := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	for _, c := range []struct {
		edges [][2]int
		warm  bool
	}{{chain, true}, {append(chain, [2]int{0, 3}), false}} {
		eg, err := plan.Build(inst.App(), c.edges)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := solve.Reevaluate(eg, req.Model, req.Objective, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Workers: 1})
		s.register(inst)
		if !s.cache.Seed(cacheKey(inst.Hash(), req), &cacheEntry{sol: cached, inst: inst, src: "test"}) {
			t.Fatal("the cache refused the seeded plan")
		}
		report, err := s.Drift(inst.Hash(), updates, req)
		if err != nil {
			t.Fatal(err)
		}
		if !report.OldValue.Equal(cached.Value) {
			t.Fatalf("%v: old value %s, the seeded plan's %s", c.edges, report.OldValue, cached.Value)
		}
		if report.WarmStart != c.warm {
			t.Errorf("%v: warm start %v, want %v", c.edges, report.WarmStart, c.warm)
		}
		if got := fingerprint(t, report.Response.Solution); got != want {
			t.Errorf("%v: drift re-plan differs from cold solve:\n%s\nvs\n%s", c.edges, got, want)
		}
	}
}

// TestDriftIdentityUpdateKeepsHash: an update that sets the same values is
// a hash no-op served from cache.
func TestDriftIdentityUpdateKeepsHash(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	app := gen.App(gen.NewRand(10), 4, gen.Mixed)
	req := Request{App: app, Model: plan.Overlap, Objective: solve.PeriodObjective}
	first, err := s.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	name := first.Instance.App().Name(0)
	sameCost := first.Instance.App().Cost(0)
	report, err := s.Drift(first.Hash, []Update{{Service: name, Cost: &sameCost}}, Request{Model: req.Model})
	if err != nil {
		t.Fatal(err)
	}
	if report.NewHash != report.OldHash {
		t.Error("identity update changed the hash")
	}
	if !report.NewValue.Equal(report.OldValue) {
		t.Error("identity update changed the value")
	}
	if st := s.Stats(); st.Solves != 1 {
		t.Errorf("identity drift re-solved: %d solves", st.Solves)
	}
}

func TestValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	app := gen.App(gen.NewRand(11), 4, gen.Mixed)
	cases := []Request{
		{App: nil},
		{App: workflow.MustNew(nil, nil)},
		{App: gen.App(gen.NewRand(12), maxServices+1, gen.Mixed)}, // over maxServices
		{App: app, Model: plan.Model(99)},
		{App: app, Objective: solve.Objective(99)},
		{App: app, Method: solve.Method(99)},
		{App: app, Method: solve.ExactForest}, // the inert constants are not methods
		{App: app, Method: solve.ExactDAG},
		{App: app, Family: solve.Family(99)},
		{App: app, MaxExactN: -1},
	}
	for i, req := range cases {
		if _, err := s.Plan(req); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := s.Drift("nope", []Update{{Service: "C1"}}, Request{}); err == nil {
		t.Error("drift against unknown hash accepted")
	}
	ok, err := s.Plan(Request{App: app})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drift(ok.Hash, nil, Request{}); err == nil {
		t.Error("empty drift accepted")
	}
	if _, err := s.Drift(ok.Hash, []Update{{Service: "nope"}}, Request{}); err == nil {
		t.Error("unknown-service drift accepted")
	}
	if _, err := s.Drift(ok.Hash, []Update{{Service: app.Name(0)}}, Request{}); err == nil {
		t.Error("no-op update accepted")
	}
	if n := metric(t, s, "filterd_rejected_total"); n != float64(len(cases)+4) {
		t.Errorf("rejected = %v, want %d", n, len(cases)+4)
	}
}

// TestConfigClamping: degenerate (negative) configuration values fall back
// to the defaults instead of panicking at startup.
func TestConfigClamping(t *testing.T) {
	s := newTestServer(t, Config{Workers: -1})
	if _, err := s.Plan(Request{App: gen.App(gen.NewRand(20), 4, gen.Mixed)}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Workers < 1 || st.Cache.Cap != 256 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRegistryBounded: the drift-target registry is an LRU — old instances
// fall out past registrySize and drifting against them fails cleanly.
func TestRegistryBounded(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var hashes []string
	for i := 0; i < registrySize+1; i++ {
		resp, err := s.Plan(Request{App: gen.App(gen.NewRand(int64(30+i)), 3, gen.Mixed)})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, resp.Hash)
	}
	if n := metric(t, s, "filterd_registered_instances"); n != registrySize {
		t.Fatalf("registered = %v, want %d", n, registrySize)
	}
	if _, ok := s.Instance(hashes[0]); ok {
		t.Error("oldest instance survived past registrySize")
	}
	if _, err := s.Drift(hashes[0], []Update{{Service: "C1"}}, Request{}); err == nil {
		t.Error("drift against an evicted instance succeeded")
	}
	if _, ok := s.Instance(hashes[registrySize]); !ok {
		t.Error("newest instance missing from the registry")
	}
}

// TestCloseLeavesNoGoroutine: a server that solved, batched, drifted and
// held an open subscription leaves no goroutine behind once Close returns.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2})
	app := gen.App(gen.NewRand(13), 4, gen.Mixed)
	resp, err := s.Plan(Request{App: app})
	if err != nil {
		t.Fatal(err)
	}
	s.PlanBatchContext(context.Background(), []Request{{App: app, Model: plan.InOrder}, {App: app, Model: plan.OutOrder}})
	s.Subscribe(resp.Hash)
	cost := resp.Instance.App().Cost(0).AddInt(1)
	if _, err := s.Drift(resp.Hash, []Update{{Service: resp.Instance.App().Name(0), Cost: &cost}}, Request{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	goroutinesBackTo(t, base)
}

// goroutinesBackTo polls runtime.NumGoroutine until it is back at base,
// failing with every goroutine's stack once the deadline passes.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before New:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1})
	app := gen.App(gen.NewRand(13), 3, gen.Mixed)
	if _, err := s.Plan(Request{App: app}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	// A cached answer still works after Close (no solve needed)...
	if resp, err := s.Plan(Request{App: app}); err != nil || resp.Outcome != plancache.Hit {
		t.Errorf("cached plan after Close: %v, %v", resp.Outcome, err)
	}
	// ...but fresh work is refused.
	other := gen.App(gen.NewRand(14), 3, gen.Filtering)
	if _, err := s.Plan(Request{App: other}); err == nil {
		t.Error("fresh solve accepted after Close")
	}
}
