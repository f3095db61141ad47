package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// planBody posts one /v1/plan request and returns status and raw body.
func planBody(t *testing.T, url, instance, params string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/plan", "application/json",
		strings.NewReader(fmt.Sprintf(`{"instance": %s%s}`, instance, params)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRestartServesWarmBitIdenticalResponses is acceptance criterion (a):
// a replica restarted over a populated data directory answers every
// previously cached request warm (outcome: hit), with HTTP response bytes
// identical to the pre-restart answer.
func TestRestartServesWarmBitIdenticalResponses(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Server, *httptest.Server) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 2, Store: st})
		ts := httptest.NewServer(Handler(s))
		return s, ts
	}

	// Requests across instances, models and methods: each is one
	// persisted cache key.
	requests := []struct{ instance, params string }{
		{string(readTestdata(t, "mixed6.json")), `, "model": "overlap", "objective": "period"`},
		{string(readTestdata(t, "mixed6.json")), `, "model": "inorder", "objective": "period", "method": "bnb"`},
		{string(readTestdata(t, "webquery8.json")), `, "model": "overlap", "objective": "latency"`},
		{string(readTestdata(t, "expanding12.json")), `, "model": "overlap", "objective": "period"`},
	}

	s1, ts1 := open()
	warm := make([]string, len(requests))
	for i, rq := range requests {
		if code, _ := planBody(t, ts1.URL, rq.instance, rq.params); code != http.StatusOK {
			t.Fatalf("request %d: cold status %d", i, code)
		}
		// The warm repeat is the reference: its bytes say outcome "hit",
		// exactly what the restarted replica must reproduce.
		code, body := planBody(t, ts1.URL, rq.instance, rq.params)
		if code != http.StatusOK {
			t.Fatalf("request %d: warm status %d", i, code)
		}
		warm[i] = body
	}
	preStats := s1.Stats()
	if !preStats.Persistent || preStats.Store.Writes != int64(len(requests)) {
		t.Fatalf("store stats before restart: %+v", preStats.Store)
	}
	ts1.Close()
	s1.Close()

	// Restart: a fresh server over the same directory.
	s2, ts2 := open()
	defer ts2.Close()
	defer s2.Close()
	if st := s2.Stats(); st.Store.Loaded != int64(len(requests)) || st.Store.Skipped != 0 {
		t.Fatalf("warm-load stats after restart: %+v", st.Store)
	}
	for i, rq := range requests {
		code, body := planBody(t, ts2.URL, rq.instance, rq.params)
		if code != http.StatusOK {
			t.Fatalf("request %d after restart: status %d", i, code)
		}
		if body != warm[i] {
			t.Errorf("request %d: post-restart response differs from pre-restart bytes:\n%s\nvs\n%s", i, body, warm[i])
		}
	}
	if st := s2.Stats(); st.Solves != 0 {
		t.Errorf("restarted replica ran %d solves for warm-loaded keys", st.Solves)
	}

	// The drift registry was warm-loaded too: a PATCH against a
	// pre-restart hash succeeds without re-submitting the instance.
	var first PlanResponse
	doJSON(t, "POST", ts2.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, requests[0].instance), &first)
	target := first.Graph.Services[0]
	resp := doJSON(t, "PATCH", ts2.URL+"/v1/instance/"+first.Hash,
		fmt.Sprintf(`{"model": "overlap", "objective": "period", "updates": [{"service": %q, "cost": "99"}]}`, target), nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("drift against a warm-loaded hash: status %d", resp.StatusCode)
	}
}

// TestRestartWithColdDirSolvesFresh: an empty data directory is not an
// error — the replica simply starts cold.
func TestRestartWithColdDirSolvesFresh(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, Store: st})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	code, _ := planBody(t, ts.URL, string(readTestdata(t, "mixed6.json")), `, "model": "overlap"`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := s.Stats(); got.Solves != 1 || got.Store.Loaded != 0 {
		t.Errorf("stats %+v", got)
	}
}

// TestParentBuildEntryIsAWarmHit: a data directory written by the build
// that still had the blind enumerations stays servable. The fixture entry
// (internal/store/testdata) is what that build persisted for a default
// request — cache key "…|auto|auto|0|0|0", effort.method "exact-forest" —
// and the fixture body is its own warm answer to that request. This build
// must derive the same key text for the request (a hit, no solve) and
// answer with the same bytes, although it can no longer parse the method
// the effort record names.
func TestParentBuildEntryIsAWarmHit(t *testing.T) {
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "store", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	entry, want := fixture("pr16_auto_exact_forest.plan.json"), fixture("pr16_auto_hit_body.json")
	var doc struct {
		Instance json.RawMessage `json:"instance"`
	}
	if err := json.Unmarshal(entry, &doc); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "parent.plan.json"), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, Store: st})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	if got := s.Stats().Store; got.Loaded != 1 || got.Skipped != 0 {
		t.Fatalf("warm-load stats: %+v", got)
	}
	code, body := planBody(t, ts.URL, string(doc.Instance), "")
	if code != http.StatusOK || body != string(want) {
		t.Errorf("status %d, body differs from the parent build's warm answer:\n%s\nvs\n%s", code, body, want)
	}
	if got := s.Stats(); got.Solves != 0 {
		t.Errorf("%d solves for a key the parent build persisted", got.Solves)
	}
}
