package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/oplist"
	"repro/internal/plan"
	"repro/internal/solve"
	"repro/internal/workflow"
)

func newTestAPI(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, into any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if raw, ok := body.(string); ok {
			buf.WriteString(raw)
		} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testdataApp(t testing.TB, name string) *workflow.App {
	t.Helper()
	app := new(workflow.App)
	if err := app.UnmarshalJSON(readTestdata(t, name)); err != nil {
		t.Fatal(err)
	}
	return app
}

// TestHTTPPlanMatchesCLIAnswer drives POST /v1/plan with the shipped
// webquery8 instance and checks the wire answer — value AND the oplist
// schedule — against the direct solver call the filterplan CLI makes.
func TestHTTPPlanMatchesCLIAnswer(t *testing.T) {
	_, ts := newTestAPI(t)
	instance := readTestdata(t, "webquery8.json")

	var out planResponseJSON
	resp := doJSON(t, "POST", ts.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "inorder", "objective": "period"}`, instance), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	var app workflow.App
	if err := json.Unmarshal(instance, &app); err != nil {
		t.Fatal(err)
	}
	want := directSolve(t, Request{App: &app, Model: plan.InOrder, Objective: solve.PeriodObjective})
	if !out.Value.Equal(want.Value) {
		t.Errorf("HTTP value %s != direct solve %s", out.Value, want.Value)
	}
	if out.Outcome != "miss" || out.Cached {
		t.Errorf("first answer outcome=%s cached=%v", out.Outcome, out.Cached)
	}
	if len(out.Hash) != 64 {
		t.Errorf("hash %q", out.Hash)
	}

	// The schedule is the oplist codec: it must round-trip through
	// LoadList against the returned plan and reproduce period and latency.
	wantSched, err := json.Marshal(want.Sched.List)
	if err != nil {
		t.Fatal(err)
	}
	if compactJSON(t, out.Schedule) != compactJSON(t, wantSched) {
		t.Error("wire schedule differs from the direct solve's oplist JSON")
	}
	l, err := oplist.LoadList(want.Sched.List.Plan(), out.Schedule)
	if err != nil {
		t.Fatalf("wire schedule does not load back: %v", err)
	}
	if !l.Period().Equal(out.Period) || !l.Latency().Equal(out.Latency) {
		t.Error("reloaded schedule disagrees with the wire period/latency")
	}

	// Second request: served from cache.
	var again planResponseJSON
	doJSON(t, "POST", ts.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "inorder", "objective": "period"}`, instance), &again)
	if !again.Cached || again.Outcome != "hit" {
		t.Errorf("repeat answer outcome=%s cached=%v", again.Outcome, again.Cached)
	}
	if string(again.Schedule) != string(out.Schedule) {
		t.Error("cached schedule differs from the fresh one")
	}
}

// decodePlan decodes the plan document a batch item or a drift answer
// embeds.
func decodePlan(t *testing.T, raw json.RawMessage) planResponseJSON {
	t.Helper()
	var out planResponseJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding embedded plan: %v", err)
	}
	return out
}

// compactJSON normalizes whitespace (the HTTP encoder re-indents embedded
// raw messages) so schedule documents compare structurally.
func compactJSON(t *testing.T, data []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestHTTPBatchAndStats: one batch with a duplicate and a broken item;
// stats reflect the coalescing.
func TestHTTPBatchAndStats(t *testing.T) {
	_, ts := newTestAPI(t)
	instance := readTestdata(t, "mixed6.json")

	item := fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance)
	body := fmt.Sprintf(`{"requests": [%s, %s, {"instance": {"services": []}}]}`, item, item)
	var out batchResponseJSON
	resp := doJSON(t, "POST", ts.URL+"/v1/batch", body, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[1].Error != "" {
		t.Fatalf("good items failed: %v / %v", out.Results[0].Error, out.Results[1].Error)
	}
	if !decodePlan(t, out.Results[0].Plan).Value.Equal(decodePlan(t, out.Results[1].Plan).Value) {
		t.Error("duplicate batch items disagree")
	}
	if out.Results[2].Error == "" || out.Results[2].Plan != nil {
		t.Error("empty-instance item succeeded")
	}

	m := scrapeMetrics(t, ts.URL)
	if m["filterd_solves_total"] != 1 {
		t.Errorf("solves = %v, want 1 (duplicates coalesce)", m["filterd_solves_total"])
	}
	if m["filterd_plan_requests_total"] != 3 || m["filterd_rejected_total"] != 1 || m["filterd_registered_instances"] != 1 {
		t.Errorf("plan requests %v, rejected %v, registered %v; want 3, 1, 1", m["filterd_plan_requests_total"],
			m["filterd_rejected_total"], m["filterd_registered_instances"])
	}
}

// TestHTTPDrift exercises PATCH /v1/instance/{hash}: old-vs-new objective
// report, warm start, and the new hash being immediately servable.
func TestHTTPDrift(t *testing.T) {
	_, ts := newTestAPI(t)
	instance := readTestdata(t, "mixed6.json")

	var first planResponseJSON
	doJSON(t, "POST", ts.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period", "method": "bnb"}`, instance), &first)
	if first.Hash == "" {
		t.Fatal("no hash in plan response")
	}

	target := first.Graph.Services[0]
	var drift driftResponseJSON
	resp := doJSON(t, "PATCH", ts.URL+"/v1/instance/"+first.Hash,
		fmt.Sprintf(`{"model": "overlap", "objective": "period", "method": "bnb",
		              "updates": [{"service": %q, "cost": "7/2"}]}`, target), &drift)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if drift.OldHash != first.Hash || drift.NewHash == drift.OldHash {
		t.Errorf("hashes: old %s new %s", drift.OldHash, drift.NewHash)
	}
	if !drift.OldValue.Equal(first.Value) {
		t.Errorf("old value %s != first plan %s", drift.OldValue, first.Value)
	}
	if !drift.WarmStart || drift.Incumbent == nil {
		t.Error("drift did not warm-start")
	}
	if plan := decodePlan(t, drift.Plan); plan.Hash != drift.NewHash || !plan.Value.Equal(drift.NewValue) {
		t.Error("drift plan inconsistent with the report")
	}

	// 404 for unknown hashes, 400 for malformed updates.
	if resp := doJSON(t, "PATCH", ts.URL+"/v1/instance/ffff", `{"updates":[]}`, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "PATCH", ts.URL+"/v1/instance/"+drift.NewHash,
		fmt.Sprintf(`{"updates": [{"service": %q, "cost": "not-a-rat"}]}`, target), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad rational: status %d", resp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestAPI(t)
	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		{"POST", "/v1/plan", `not json`, http.StatusBadRequest},
		{"POST", "/v1/plan", `{}`, http.StatusBadRequest},
		{"POST", "/v1/plan", `{"instance": {"services": [{"cost": "1", "selectivity": "1"}]}, "model": "bogus"}`, http.StatusBadRequest},
		{"POST", "/v1/plan", `{"instance": {"services": []}}`, http.StatusUnprocessableEntity},
		{"POST", "/v1/batch", `{"requests": []}`, http.StatusBadRequest},
		{"GET", "/v1/plan", ``, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		buf.WriteString(tc.body)
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s %q: status %d, want %d", tc.method, tc.path, tc.body, resp.StatusCode, tc.wantStatus)
		}
	}
}

// TestHTTPPlanGraphNamesMatchInstance: the wire graph speaks service
// names, all of which exist in the submitted instance.
func TestHTTPPlanGraphNamesMatchInstance(t *testing.T) {
	_, ts := newTestAPI(t)
	instance := readTestdata(t, "webquery8.json")
	var app workflow.App
	if err := json.Unmarshal(instance, &app); err != nil {
		t.Fatal(err)
	}
	var out planResponseJSON
	doJSON(t, "POST", ts.URL+"/v1/plan", fmt.Sprintf(`{"instance": %s}`, instance), &out)
	if len(out.Graph.Services) != app.N() {
		t.Fatalf("%d services on the wire, want %d", len(out.Graph.Services), app.N())
	}
	known := map[string]bool{}
	for _, n := range out.Graph.Services {
		known[n] = true
		if app.IndexOf(n) < 0 {
			t.Errorf("wire service %q not in the instance", n)
		}
	}
	for _, e := range out.Graph.Edges {
		if !known[e[0]] || !known[e[1]] {
			t.Errorf("wire edge %v references unknown service", e)
		}
	}
	if strings.TrimSpace(string(out.Schedule)) == "" {
		t.Error("no schedule on the wire")
	}
}
