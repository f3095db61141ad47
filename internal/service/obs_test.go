package service

// Observability tests: the request-ID contract of every response, the
// /v1/explain provenance endpoint across serve paths (solve → cache →
// warm restart from the store), /v1/healthz, and the allocation guard
// pinning that the tracing spine costs nothing on the cache-hit path.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/solve"
	"repro/internal/store"
	"repro/internal/workflow"
)

// TestRequestIDOnEveryResponse pins the echo contract: success, rejection
// and shed responses all carry X-Filterd-Request-Id, errors carry it in
// the JSON body too, and a valid inbound ID is honored verbatim.
func TestRequestIDOnEveryResponse(t *testing.T) {
	_, ts := newTestAPI(t)
	instance := readTestdata(t, "webquery8.json")

	// Success: generated ID echoed on the header.
	var out PlanResponse
	resp := doJSON(t, "POST", ts.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "inorder"}`, instance), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if id := resp.Header.Get(obs.HeaderRequestID); id == "" || obs.SanitizeID(id) != id {
		t.Fatalf("success response ID %q", id)
	}

	// Client-supplied ID: honored on success and error alike.
	req, err := http.NewRequest("POST", ts.URL+"/v1/plan", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.HeaderRequestID, "my-test-id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.HeaderRequestID); got != "my-test-id" {
		t.Fatalf("error response header ID %q, want my-test-id", got)
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" || body.RequestID != "my-test-id" {
		t.Fatalf("error body %+v, want request_id my-test-id", body)
	}
}

// TestRequestIDOnShed pins the 429 path: the load-shedding rejection must
// still carry the ID (the middleware sets it before the handler runs).
func TestRequestIDOnShed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, maxPending: 2})
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(ts.Close)
	release := blockPool(t, s, 2) // watermark reached: next admission sheds
	defer release()

	instance := readTestdata(t, "webquery8.json")
	var shed struct {
		RequestID string `json:"request_id"`
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "inorder"}`, instance), &shed)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get(obs.HeaderRequestID) == "" {
		t.Fatal("shed response lost the request ID header")
	}
	if shed.RequestID == "" {
		t.Fatal("shed body has no request_id")
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestAPI(t)
	var doc struct {
		Status   string `json:"status"`
		Version  string `json:"version"`
		Revision string `json:"revision"`
	}
	resp := doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &doc)
	if resp.StatusCode != http.StatusOK || doc.Status != "ok" {
		t.Fatalf("healthz %d %+v", resp.StatusCode, doc)
	}
	if doc.Version == "" || doc.Revision == "" {
		t.Fatalf("healthz build identity empty: %+v", doc)
	}
}

func TestDebugRequestsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Tracer: obs.NewTracer(16)})
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(ts.Close)

	doJSON(t, "GET", ts.URL+"/v1/healthz", nil, nil)
	var doc struct {
		Enabled bool           `json:"enabled"`
		Spans   []obs.SpanView `json:"spans"`
	}
	doJSON(t, "GET", ts.URL+"/debug/requests", nil, &doc)
	if !doc.Enabled || len(doc.Spans) == 0 {
		t.Fatalf("debug document %+v", doc)
	}
	if doc.Spans[0].Route != "GET /v1/healthz" {
		t.Fatalf("first span route %q", doc.Spans[0].Route)
	}
}

// explainDoc mirrors the /v1/explain wire format closely enough for the
// determinism comparisons.
type explainDoc struct {
	Hash      string `json:"hash"`
	RequestID string `json:"request_id"`
	Model     string `json:"model"`
	Objective string `json:"objective"`
	Method    string `json:"method"`
	Family    string `json:"family"`
	Source    string `json:"source"`
	Outcome   string `json:"outcome"`
	Exact     bool   `json:"exact"`
	Solver    *struct {
		Expanded  int64 `json:"expanded"`
		Pruned    int64 `json:"pruned"`
		Evaluated int64 `json:"evaluated"`
	} `json:"solver"`
	Orch *struct {
		Orchestrations int64 `json:"orchestrations"`
	} `json:"orchestration"`
	Timings *struct {
		SolveSeconds float64 `json:"solve_seconds"`
	} `json:"timings"`
}

// TestExplainAcrossServePaths drives one bnb instance through a fresh
// solve, a cache hit, and a warm restart (store-loaded), checking
// /v1/explain reports the right source each time and the SAME search
// counters everywhere — the persisted effort record replays bit-identical.
func TestExplainAcrossServePaths(t *testing.T) {
	dir := t.TempDir()
	// mixed6 has no precedence constraints, so the forest branch-and-bound
	// applies — the same configuration smoke_cluster.sh cross-checks
	// against filterplan.
	instance := readTestdata(t, "mixed6.json")
	body := fmt.Sprintf(`{"instance": %s, "model": "inorder", "objective": "period", "method": "bnb", "family": "forest"}`, instance)

	boot := func() (*Server, *httptest.Server) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Workers: 1, Store: st})
		ts := httptest.NewServer(Handler(s))
		t.Cleanup(ts.Close)
		return s, ts
	}

	_, ts := boot()

	// Unknown hash: 404 with an error body.
	resp := doJSON(t, "GET", ts.URL+"/v1/explain/0000000000000000000000000000000000000000000000000000000000000000", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash status %d, want 404", resp.StatusCode)
	}

	var out PlanResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/plan", body, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d", resp.StatusCode)
	}

	var solved explainDoc
	doJSON(t, "GET", ts.URL+"/v1/explain/"+out.Hash, nil, &solved)
	if solved.Source != "solve" || solved.Outcome != "miss" {
		t.Fatalf("fresh solve source/outcome = %q/%q", solved.Source, solved.Outcome)
	}
	if solved.Method != "branch-bound" || solved.Family != "forest" {
		t.Fatalf("resolved method/family = %q/%q", solved.Method, solved.Family)
	}
	if solved.Solver == nil || solved.Solver.Expanded == 0 {
		t.Fatalf("fresh solve has no search counters: %+v", solved.Solver)
	}
	if solved.Orch == nil || solved.Orch.Orchestrations == 0 {
		t.Fatalf("fresh solve has no orchestration counters: %+v", solved.Orch)
	}
	if solved.Timings == nil || solved.Timings.SolveSeconds <= 0 {
		t.Fatalf("fresh solve has no timings: %+v", solved.Timings)
	}
	if solved.RequestID == "" {
		t.Fatal("explain record lost the request ID")
	}

	// Cache hit: source changes, the effort record does not.
	doJSON(t, "POST", ts.URL+"/v1/plan", body, nil)
	var hit explainDoc
	doJSON(t, "GET", ts.URL+"/v1/explain/"+out.Hash, nil, &hit)
	if hit.Source != "cache" || hit.Outcome != "hit" {
		t.Fatalf("cache hit source/outcome = %q/%q", hit.Source, hit.Outcome)
	}
	if *hit.Solver != *solved.Solver {
		t.Fatalf("cache-hit counters %+v != solve counters %+v", hit.Solver, solved.Solver)
	}

	// Warm restart: a fresh process serves from the store, and the
	// persisted effort replays the same counters.
	_, ts2 := boot()
	var restarted PlanResponse
	doJSON(t, "POST", ts2.URL+"/v1/plan", body, &restarted)
	if restarted.Hash != out.Hash {
		t.Fatalf("restart hash %s != %s", restarted.Hash, out.Hash)
	}
	var stored explainDoc
	doJSON(t, "GET", ts2.URL+"/v1/explain/"+out.Hash, nil, &stored)
	if stored.Source != "store" || stored.Outcome != "hit" {
		t.Fatalf("restart source/outcome = %q/%q", stored.Source, stored.Outcome)
	}
	if stored.Solver == nil || *stored.Solver != *solved.Solver {
		t.Fatalf("store counters %+v != solve counters %+v", stored.Solver, solved.Solver)
	}
	if stored.Orch == nil || *stored.Orch != *solved.Orch {
		t.Fatalf("store orch counters %+v != solve's %+v", stored.Orch, solved.Orch)
	}
	if stored.Method != "branch-bound" || stored.Family != "forest" {
		t.Fatalf("restart method/family = %q/%q", stored.Method, stored.Family)
	}
}

// TestExplainEffortIndependentOfHistory pins the other half of the
// /v1/explain contract: a solve's orchestration counters depend on its
// request alone, not on what the process solved before. The two requests
// differ only in Restarts — different cache keys over the same weighted
// graphs — and the second reports what a fresh server and a direct serial
// solve report for it.
func TestExplainEffortIndependentOfHistory(t *testing.T) {
	instance := readTestdata(t, "mixed6.json")
	orchestration := func(ts *httptest.Server, restarts int) explainOrchJSON {
		t.Helper()
		body := fmt.Sprintf(`{"instance": %s, "model": "inorder", "objective": "period", "method": "bnb", "family": "forest", "restarts": %d}`, instance, restarts)
		var out PlanResponse
		if resp := doJSON(t, "POST", ts.URL+"/v1/plan", body, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("plan status %d", resp.StatusCode)
		}
		var doc struct {
			Orch *explainOrchJSON `json:"orchestration"`
		}
		doJSON(t, "GET", ts.URL+"/v1/explain/"+out.Hash, nil, &doc)
		if doc.Orch == nil || doc.Orch.Orchestrations == 0 {
			t.Fatalf("restarts %d: no orchestration counters: %+v", restarts, doc.Orch)
		}
		return *doc.Orch
	}
	_, ts := newTestAPI(t)
	orchestration(ts, 2)
	got := orchestration(ts, 3)
	_, fresh := newTestAPI(t)
	if want := orchestration(fresh, 3); got != want {
		t.Fatalf("after another request: %+v, on a fresh server: %+v", got, want)
	}

	var app workflow.App
	if err := json.Unmarshal(instance, &app); err != nil {
		t.Fatal(err)
	}
	req := Request{App: &app, Model: plan.InOrder, Method: solve.BranchBound, Family: solve.FamilyForest, Restarts: 3}
	inst, err := canon.Canonicalize(req.App)
	if err != nil {
		t.Fatal(err)
	}
	var ef solve.Effort
	opts := req.solveOptions(nil)
	opts.Effort = &ef
	if _, err := solve.MinPeriod(inst.App(), req.Model, opts); err != nil {
		t.Fatal(err)
	}
	o := ef.Orch
	direct := explainOrchJSON{Orchestrations: ef.Evals, Prefixes: o.Prefixes, Pruned: o.Pruned, Evaluated: o.Evaluated, CutOffs: o.CutOffs}
	if got != direct {
		t.Fatalf("served: %+v, direct solve: %+v", got, direct)
	}
}

// TestExplainShowsCutOffs pins where the order-search saving is reported:
// the DAG climb on a precedence instance rejects many of the candidates it
// scores, and /v1/explain's orchestration block counts the order searches
// its limit cut off.
func TestExplainShowsCutOffs(t *testing.T) {
	_, ts := newTestAPI(t)
	instance, err := json.Marshal(gen.AppWithPrecedence(gen.NewRand(502), 7, gen.Mixed, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"instance": %s, "model": "inorder", "objective": "latency"}`, instance)
	var out PlanResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/plan", body, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d", resp.StatusCode)
	}
	var doc struct {
		Method string           `json:"method"`
		Family string           `json:"family"`
		Orch   *explainOrchJSON `json:"orchestration"`
	}
	doJSON(t, "GET", ts.URL+"/v1/explain/"+out.Hash, nil, &doc)
	if doc.Method != "hill-climb" {
		t.Fatalf("method %q, want the hill climb", doc.Method)
	}
	if doc.Orch == nil || doc.Orch.CutOffs == 0 || doc.Orch.CutOffs >= doc.Orch.Orchestrations {
		t.Fatalf("implausible cut-off count: %+v", doc.Orch)
	}
}

// TestSolverStatsSurfaced pins that the branch-and-bound search counters
// reach /metrics.
func TestSolverStatsSurfaced(t *testing.T) {
	_, ts := newTestAPI(t)
	instance := readTestdata(t, "mixed6.json")
	body := fmt.Sprintf(`{"instance": %s, "model": "inorder", "objective": "period", "method": "bnb", "family": "forest"}`, instance)
	if resp := doJSON(t, "POST", ts.URL+"/v1/plan", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d", resp.StatusCode)
	}

	m := scrapeMetrics(t, ts.URL)
	if m["filterd_solver_nodes_expanded_total"] == 0 || m["filterd_solver_candidates_evaluated_total"] == 0 {
		t.Fatalf("solver counters not surfaced: expanded %v, evaluated %v",
			m["filterd_solver_nodes_expanded_total"], m["filterd_solver_candidates_evaluated_total"])
	}
}

// TestCacheHitAllocBudget pins the zero-cost contract of the tracing
// spine: serving a cache hit with a span from a DISABLED tracer in the
// context must allocate no more than serving it with no span at all. The
// observability layer on the hot path is field writes and literals.
func TestCacheHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s := newTestServer(t, Config{Workers: 1})
	instance := readTestdata(t, "webquery8.json")
	var app workflow.App
	if err := json.Unmarshal(instance, &app); err != nil {
		t.Fatal(err)
	}
	req := Request{App: &app, Model: plan.InOrder, Objective: solve.PeriodObjective}
	if _, err := s.Plan(req); err != nil { // warm the cache
		t.Fatal(err)
	}

	bare := testing.AllocsPerRun(100, func() {
		if _, err := s.PlanContext(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	span := obs.NewTracer(0).Start("POST /v1/plan", "alloc-test")
	ctx := obs.WithSpan(context.Background(), span)
	traced := testing.AllocsPerRun(100, func() {
		if _, err := s.PlanContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if traced > bare {
		t.Fatalf("cache hit with a disabled-tracer span allocates %.1f, bare %.1f — tracing is not free", traced, bare)
	}
}
