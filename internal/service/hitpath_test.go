package service

// Tests of the HTTP hit path: every served plan body against the reference
// struct encoder (the encoder every response went through before cache
// entries owned their bytes), the hit's allocation budget, and the
// encode-failure contract of WriteJSON.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/paperex"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/solve"
	"repro/internal/store"
	"repro/internal/workflow"
)

// referenceEncode is the reference rendering of any response document:
// straight through an indenting json.Encoder, nothing stored, nothing reused.
func referenceEncode(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// referencePlan is the reference struct encoder of a plan answer: built from
// the public fields of an in-process Response, as every response was before
// cache entries owned their bytes.
func referencePlan(t *testing.T, resp Response, req Request, outcome plancache.Outcome) PlanResponse {
	t.Helper()
	sched, err := json.Marshal(resp.Solution.Sched.List)
	if err != nil {
		t.Fatal(err)
	}
	app := resp.Instance.App()
	g := PlanGraph{Services: make([]string, app.N())}
	for i := 0; i < app.N(); i++ {
		g.Services[i] = app.Name(i)
	}
	for _, e := range resp.Solution.Graph.Graph().Edges() {
		g.Edges = append(g.Edges, [2]string{app.Name(e[0]), app.Name(e[1])})
	}
	return PlanResponse{
		Hash:      resp.Hash,
		Cached:    outcome == plancache.Hit,
		Outcome:   outcome.String(),
		Model:     strings.ToLower(req.Model.String()),
		Objective: req.Objective.String(),
		Value:     resp.Solution.Value,
		Exact:     resp.Solution.Exact,
		Period:    resp.Solution.Sched.List.Period(),
		Latency:   resp.Solution.Sched.List.Latency(),
		Graph:     g,
		Schedule:  sched,
	}
}

// The reference batch and drift documents embed the plan as a struct.
type referenceBatchItem struct {
	Error string        `json:"error,omitempty"`
	Plan  *PlanResponse `json:"plan,omitempty"`
}

type referenceDrift struct {
	OldHash   string       `json:"old_hash"`
	NewHash   string       `json:"new_hash"`
	OldValue  string       `json:"old_value"`
	NewValue  string       `json:"new_value"`
	WarmStart bool         `json:"warm_start"`
	Incumbent *string      `json:"incumbent,omitempty"`
	Plan      PlanResponse `json:"plan"`
}

// send issues one request and returns status and raw body.
func send(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// waitFor polls cond (a counter the server moves) until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServedBodiesMatchReferenceEncoder is the byte-identity oracle of the
// encode-once hit path: for the shipped instance and the paper's, under
// every model and objective, the body served for a miss, a coalesced wait
// and a hit, by an entry warm-loaded from the store and by one imported
// through /v1/sync, as a /v1/batch item and as the plan member of a PATCH
// answer, equals the reference struct encoder's rendering byte for byte.
// (Appendix B.1's 202-service instance is beyond maxServices.)
func TestServedBodiesMatchReferenceEncoder(t *testing.T) {
	var webquery workflow.App
	if err := json.Unmarshal(readTestdata(t, "webquery8.json"), &webquery); err != nil {
		t.Fatal(err)
	}
	instances := []struct {
		name string
		app  *workflow.App
	}{
		{"webquery8", &webquery},
		{"fig1", paperex.Fig1App()},
		{"b2", paperex.B2App()},
	}
	for _, in := range instances {
		for _, model := range []plan.Model{plan.Overlap, plan.InOrder, plan.OutOrder} {
			for _, obj := range []solve.Objective{solve.PeriodObjective, solve.LatencyObjective} {
				req := Request{App: in.app, Model: model, Objective: obj}
				if testing.Short() && in.app == &webquery && req != (Request{App: in.app}) {
					continue // four ≈ 0.2 s solves per cell: -short keeps the default request only
				}
				t.Run(fmt.Sprintf("%s/%s/%s", in.name, strings.ToLower(model.String()), obj), func(t *testing.T) {
					servedBodiesMatchReference(t, req)
				})
			}
		}
	}
}

func servedBodiesMatchReference(t *testing.T, req Request) {
	instance, err := json.Marshal(req.App)
	if err != nil {
		t.Fatal(err)
	}
	params := fmt.Sprintf(`"model": %q, "objective": %q`, strings.ToLower(req.Model.String()), req.Objective)
	planDoc := fmt.Sprintf(`{"instance": %s, %s}`, instance, params)

	// The reference side: an in-process server that never serves HTTP.
	ref := newTestServer(t, Config{Workers: 1})
	refResp, err := ref.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	want := func(outcome plancache.Outcome) string {
		return referenceEncode(t, referencePlan(t, refResp, req, outcome))
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Workers: 1, Store: st})
	tsA := httptest.NewServer(Handler(a))
	defer func() { tsA.Close(); a.Close() }()

	// Miss and coalesced: the one worker is held, so the first request is
	// provably in flight (the leader, a miss) when the second arrives and
	// waits on it (coalesced).
	release := make(chan struct{})
	var held sync.WaitGroup
	held.Add(1)
	go func() {
		defer held.Done()
		a.submit(nil, func() { <-release })
	}()
	waitFor(t, "the held task to occupy the worker", func() bool { return a.pending.Load() == 1 && len(a.slots) == 1 })
	bodies := make([]string, 2)
	var clients sync.WaitGroup
	post := func(i int) {
		clients.Add(1)
		go func() {
			defer clients.Done()
			_, bodies[i] = send(t, "POST", tsA.URL+"/v1/plan", planDoc)
		}()
	}
	post(0)
	waitFor(t, "the leader's solve to be in flight", func() bool { return a.Stats().Cache.InFlight == 1 })
	post(1)
	waitFor(t, "the follower to coalesce", func() bool { return a.Stats().Cache.Coalesced == 1 })
	close(release)
	clients.Wait()
	held.Wait()
	if bodies[0] != want(plancache.Miss) {
		t.Errorf("miss body differs from the reference encoder:\n%s\nvs\n%s", bodies[0], want(plancache.Miss))
	}
	if bodies[1] != want(plancache.Coalesced) {
		t.Errorf("coalesced body differs from the reference encoder:\n%s\nvs\n%s", bodies[1], want(plancache.Coalesced))
	}

	// Hit: first HTTP use of the entry's hit body, then the stored bytes.
	for i := 0; i < 2; i++ {
		if _, body := send(t, "POST", tsA.URL+"/v1/plan", planDoc); body != want(plancache.Hit) {
			t.Errorf("hit %d body differs from the reference encoder:\n%s", i, body)
		}
	}

	// Batch: both items are hits, embedded in the batch document.
	hit := referencePlan(t, refResp, req, plancache.Hit)
	wantBatch := referenceEncode(t, struct {
		Results []referenceBatchItem `json:"results"`
	}{[]referenceBatchItem{{Plan: &hit}, {Plan: &hit}}})
	if _, body := send(t, "POST", tsA.URL+"/v1/batch", fmt.Sprintf(`{"requests": [%s, %s]}`, planDoc, planDoc)); body != wantBatch {
		t.Errorf("batch body differs from the reference encoder:\n%s\nvs\n%s", body, wantBatch)
	}

	// Warm-loaded: a second server over the same store answers a hit from
	// an entry it never solved.
	tsA.Close()
	a.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{Workers: 1, Store: st2})
	tsB := httptest.NewServer(Handler(b))
	defer func() { tsB.Close(); b.Close() }()
	if _, body := send(t, "POST", tsB.URL+"/v1/plan", planDoc); body != want(plancache.Hit) {
		t.Errorf("warm-loaded hit body differs from the reference encoder:\n%s", body)
	}

	// Imported: a third server learns the entry through POST /v1/sync.
	c := New(Config{Workers: 1})
	tsC := httptest.NewServer(Handler(c))
	defer func() { tsC.Close(); c.Close() }()
	push, err := json.Marshal(SyncRequest{Entries: b.ExportEntries(b.SyncDigest().Keys)})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := send(t, "POST", tsC.URL+"/v1/sync", string(push)); code != http.StatusOK ||
		metric(t, c, `filterd_sync_accepted_total{kind="entries"}`) != 1 {
		t.Fatalf("sync push: status %d, %v entries accepted: %s", code, metric(t, c, `filterd_sync_accepted_total{kind="entries"}`), body)
	}
	if _, body := send(t, "POST", tsC.URL+"/v1/plan", planDoc); body != want(plancache.Hit) {
		t.Errorf("sync-imported hit body differs from the reference encoder:\n%s", body)
	}

	// PATCH: the plan member of a drift answer (a miss on the drifted
	// instance), against the in-process drift of the reference server.
	name := refResp.Instance.App().Name(0)
	cost := refResp.Instance.App().Cost(0).AddInt(3)
	report, err := ref.Drift(refResp.Hash, []Update{{Service: name, Cost: &cost}}, req)
	if err != nil {
		t.Fatal(err)
	}
	wantDrift := referenceDrift{
		OldHash:   report.OldHash,
		NewHash:   report.NewHash,
		OldValue:  report.OldValue.String(),
		NewValue:  report.NewValue.String(),
		WarmStart: report.WarmStart,
		Plan:      referencePlan(t, report.Response, req, plancache.Miss),
	}
	if report.WarmStart {
		inc := report.Incumbent.String()
		wantDrift.Incumbent = &inc
	}
	patch := fmt.Sprintf(`{"updates": [{"service": %q, "cost": %q}], %s}`, name, cost, params)
	if _, body := send(t, "PATCH", tsB.URL+"/v1/instance/"+refResp.Hash, patch); body != referenceEncode(t, wantDrift) {
		t.Errorf("PATCH body differs from the reference encoder:\n%s\nvs\n%s", body, referenceEncode(t, wantDrift))
	}
}

// hitRequest solves webquery8 on s and returns the handler plus a
// compact request body that hits.
func hitRequest(tb testing.TB, s *Server) (http.Handler, []byte) {
	tb.Helper()
	var instance bytes.Buffer
	if err := json.Compact(&instance, readTestdata(tb, "webquery8.json")); err != nil {
		tb.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"instance":%s,"model":"overlap","objective":"period"}`, instance.Bytes()))
	h := Handler(s)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("warming request: status %d: %s", rec.Code, rec.Body)
	}
	return h, body
}

// TestHitHandlerAllocBudget pins what one POST /v1/plan hit allocates end
// to end through Handler.ServeHTTP into a recorder — request and recorder
// included, as the benchmark's service.handler_us span measures it. The
// parent of the encode-once hit path measured 488 allocations and 41 KB
// here on its own build of this test (540 and 50 KB on this instance; 488
// and 41 KB on the benchmark's smaller ones); this change measures 194. The
// budget is that plus 10 %, and the issue requires it under 300.
func TestHitHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s := newTestServer(t, Config{Workers: 1})
	h, body := hitRequest(t, s)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	serve() // first hit encodes the entry's hit body
	const budget = 214
	if got := testing.AllocsPerRun(200, serve); got > budget {
		t.Fatalf("a hit allocates %.0f times per request, budget %d", got, budget)
	}
}

// BenchmarkHitHandler is the same path as a benchmark (ns/op, B/op).
func BenchmarkHitHandler(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h, body := hitRequest(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	}
}

// TestWriteJSONEncodeFailureIsAClean500: a value that cannot be encoded
// must not commit a 200 status line over a truncated body — the response
// is a well-formed 500 carrying the request id, with a Content-Length.
func TestWriteJSONEncodeFailureIsAClean500(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set("X-Filterd-Request-Id", "req-7")
	WriteJSON(rec, http.StatusOK, map[string]any{"ok": "so far", "bad": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var doc map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("500 body is not JSON: %v: %q", err, rec.Body)
	}
	if doc["request_id"] != "req-7" || !strings.Contains(doc["error"], "encoding response") {
		t.Errorf("500 body %v", doc)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}

	// The success path announces its length too (no chunked transfer).
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]int{"n": 1})
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) || rec.Code != http.StatusOK {
		t.Errorf("status %d, Content-Length %q for a %d-byte body", rec.Code, got, rec.Body.Len())
	}
}

// TestCacheKeyFormat pins the key text — it is persisted by the store and
// exchanged by /v1/sync, so the append-built key must stay what
// fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d|%d", …) rendered.
func TestCacheKeyFormat(t *testing.T) {
	hash := strings.Repeat("ab", 32)
	for _, req := range []Request{
		{},
		{Model: plan.OutOrder, Objective: solve.LatencyObjective, Method: solve.GreedyChain, Family: solve.FamilyForest, MaxExactN: 12, Seed: -9e18, Restarts: 1 << 40},
		{Model: plan.Model(42), Method: solve.Method(17), Family: solve.Family(9)},
	} {
		want := fmt.Sprintf("%s|%s|%s|%s|%s|%d|%d|%d", hash, req.Model, req.Objective, req.Method, req.Family, req.MaxExactN, req.Seed, req.Restarts)
		if got := cacheKey(hash, req); got != want {
			t.Errorf("cacheKey = %q, want %q", got, want)
		}
	}
}
