package cluster

// Request-ID tracing across the cluster: one ID at the router and the
// owning replica, preserved across failover and SSE proxying, and the
// /v1/explain surface reachable through the router (including the
// failover source annotation).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// newTracedCluster boots n replicas and a router, all with span rings, so
// the tests can observe which spans each layer recorded.
func newTracedCluster(t *testing.T, n int) (*httptest.Server, []*replica, []*obs.Tracer, *obs.Tracer) {
	t.Helper()
	replicas := make([]*replica, n)
	tracers := make([]*obs.Tracer, n)
	peers := make([]string, n)
	for i := range replicas {
		tracers[i] = obs.NewTracer(64)
		s := service.New(service.Config{Workers: 2, Tracer: tracers[i]})
		ts := httptest.NewServer(service.Handler(s))
		t.Cleanup(func() { ts.Close(); s.Close() })
		replicas[i] = &replica{srv: s, ts: ts}
		peers[i] = ts.URL
	}
	local := service.New(service.Config{Workers: 2})
	t.Cleanup(local.Close)
	routerTracer := obs.NewTracer(64)
	rt, err := New(Config{
		Peers: peers,
		Local: local,
		// R=1 keeps a single owner per shard, so killing it exercises the
		// local-failover span path these tests pin down.
		Replicas:       1,
		HealthInterval: 100 * time.Millisecond,
		Tracer:         routerTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	gw := httptest.NewServer(rt)
	t.Cleanup(gw.Close)
	return gw, replicas, tracers, routerTracer
}

// postWithID POSTs raw JSON with a client-chosen request ID.
func postWithID(t *testing.T, url, body, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderRequestID, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// findSpan scans a tracer's ring for a span with the given request ID.
func findSpan(tr *obs.Tracer, id string) (obs.SpanView, bool) {
	for _, v := range tr.Snapshot() {
		if v.ID == id {
			return v, true
		}
	}
	return obs.SpanView{}, false
}

// TestRequestIDSharedByRouterAndOwner pins the propagation contract: the
// client's ID appears on the routed response, in the router's span (with
// the routing verdict), and in exactly one replica's span — the owner's.
func TestRequestIDSharedByRouterAndOwner(t *testing.T) {
	gw, replicas, tracers, routerTracer := newTracedCluster(t, 2)
	instance := readTestdata(t, "mixed6.json")
	body := fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance)
	const id = "trace-shared-1"

	resp := postWithID(t, gw.URL+"/v1/plan", body, id)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.HeaderRequestID); got != id {
		t.Fatalf("routed response ID %q, want %q", got, id)
	}
	owner := resp.Header.Get("X-Filterd-Shard-Owner")

	rsp, ok := findSpan(routerTracer, id)
	if !ok {
		t.Fatal("router recorded no span for the request")
	}
	if rsp.Shard < 0 || rsp.Owner != owner || rsp.ServedBy != owner {
		t.Errorf("router span shard/owner/served_by = %d/%q/%q, want owner %q",
			rsp.Shard, rsp.Owner, rsp.ServedBy, owner)
	}

	holders := 0
	for i, tr := range tracers {
		v, ok := findSpan(tr, id)
		if !ok {
			continue
		}
		holders++
		if replicas[i].ts.URL != owner {
			t.Errorf("replica %d recorded the span but is not the owner %s", i, owner)
		}
		if v.Route != "POST /v1/plan" {
			t.Errorf("owner span route %q", v.Route)
		}
		if v.Outcome == "" || v.Source == "" {
			t.Errorf("owner span missing provenance: outcome=%q source=%q", v.Outcome, v.Source)
		}
	}
	if holders != 1 {
		t.Fatalf("%d replicas recorded the request ID, want exactly the owner", holders)
	}
}

// TestRequestIDPreservedAcrossFailover kills the owner and checks the
// failover response still echoes the client's ID, and that /v1/explain
// (itself failing over) reports source "failover" with that ID.
func TestRequestIDPreservedAcrossFailover(t *testing.T) {
	gw, replicas, _, routerTracer := newTracedCluster(t, 2)
	instance := readTestdata(t, "mixed6.json")
	body := fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance)

	resp := postWithID(t, gw.URL+"/v1/plan", body, "failover-pre")
	var planned planWire
	if err := json.NewDecoder(resp.Body).Decode(&planned); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	owner := resp.Header.Get("X-Filterd-Shard-Owner")
	for _, rep := range replicas {
		if rep.ts.URL == owner {
			rep.ts.CloseClientConnections()
			rep.ts.Close()
		}
	}

	const id = "failover-post"
	resp2 := postWithID(t, gw.URL+"/v1/plan", body, id)
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("failover status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get(obs.HeaderRequestID); got != id {
		t.Fatalf("failover response ID %q, want %q", got, id)
	}
	if by := resp2.Header.Get("X-Filterd-Served-By"); by != "local-failover" {
		t.Fatalf("served by %q", by)
	}
	if v, ok := findSpan(routerTracer, id); !ok || v.ServedBy != "local-failover" {
		t.Errorf("router failover span served_by = %q (found %v)", v.ServedBy, ok)
	}

	// The explain GET also fails over to the router's local service, whose
	// record of the failover serve must say source "failover".
	eresp, err := http.Get(gw.URL + "/v1/explain/" + planned.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("failover explain status %d", eresp.StatusCode)
	}
	var doc struct {
		Source    string `json:"source"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(eresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Source != "failover" {
		t.Errorf("explain source %q, want failover", doc.Source)
	}
	if doc.RequestID != id {
		t.Errorf("explain request_id %q, want %q", doc.RequestID, id)
	}
}

// TestRequestIDOnProxiedSubscribe pins the SSE path: the stream commits
// its headers before any event, and the ID must already be on them.
func TestRequestIDOnProxiedSubscribe(t *testing.T) {
	gw, _, _, _ := newTracedCluster(t, 2)
	instance := readTestdata(t, "mixed6.json")

	resp := postWithID(t, gw.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance), "sse-plan")
	var planned planWire
	if err := json.NewDecoder(resp.Body).Decode(&planned); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodGet, gw.URL+"/v1/subscribe/"+planned.Hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	const id = "sse-stream-7"
	req.Header.Set(obs.HeaderRequestID, id)
	sub, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if sub.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", sub.StatusCode)
	}
	if got := sub.Header.Get(obs.HeaderRequestID); got != id {
		t.Fatalf("SSE response ID %q, want %q", got, id)
	}
	r := bufio.NewReader(sub.Body)
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("stream preamble %q, %v", line, err)
	}
}

// TestExplainRoutedToOwner checks GET /v1/explain/{hash} rides the same
// hash routing as every per-instance read: the owner that solved the plan
// answers with its provenance record.
func TestExplainRoutedToOwner(t *testing.T) {
	gw, _, _, _ := newTracedCluster(t, 2)
	instance := readTestdata(t, "mixed6.json")

	resp := post(t, gw.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance))
	var planned planWire
	if err := json.NewDecoder(resp.Body).Decode(&planned); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	owner := resp.Header.Get("X-Filterd-Shard-Owner")

	eresp, err := http.Get(gw.URL + "/v1/explain/" + planned.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("routed explain status %d", eresp.StatusCode)
	}
	if by := eresp.Header.Get("X-Filterd-Served-By"); by != owner {
		t.Errorf("explain served by %q, want the owner %q", by, owner)
	}
	var doc struct {
		Hash    string `json:"hash"`
		Source  string `json:"source"`
		Outcome string `json:"outcome"`
	}
	if err := json.NewDecoder(eresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Hash != planned.Hash || doc.Source != "solve" || doc.Outcome != "miss" {
		t.Errorf("routed explain %+v", doc)
	}
}

// TestRouterHealthzAndDebug covers the router's own observability
// endpoints: /v1/healthz answers without peer I/O, /debug/requests serves
// the router's ring, and /v1/stats is gone (/metrics is the one
// counters surface).
func TestRouterHealthzAndDebug(t *testing.T) {
	gw, _, _, _ := newTracedCluster(t, 2)

	hresp, err := http.Get(gw.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz service.Healthz
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Role != "router" || hz.Version == "" {
		t.Fatalf("healthz %d %+v", hresp.StatusCode, hz)
	}

	dresp, err := http.Get(gw.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if !doc.Enabled {
		t.Fatal("router tracer not enabled")
	}

	sresp, err := http.Get(gw.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Fatalf("router GET /v1/stats: status %d, want 404", sresp.StatusCode)
	}
}

// TestRouterErrorBodiesCarryRequestID holds the router's own 400s to the
// error document every replica answers with: the body repeats the
// response's X-Filterd-Request-Id, whether the client chose the id or the
// router minted it.
func TestRouterErrorBodiesCarryRequestID(t *testing.T) {
	gw, _, _, _ := newTracedCluster(t, 1)
	for _, tc := range []struct{ name, body, id string }{
		{"malformed batch, client id", `{{{`, "router-error-1"},
		{"malformed batch, minted id", `{"requests": 5}`, ""},
		{"empty batch", `{"requests": []}`, "router-error-2"},
	} {
		resp := postWithID(t, gw.URL+"/v1/batch", tc.body, tc.id)
		var doc service.ErrorBody
		err := json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding error body: %v", tc.name, err)
		}
		header := resp.Header.Get(obs.HeaderRequestID)
		if resp.StatusCode != http.StatusBadRequest || doc.Error == "" {
			t.Errorf("%s: status %d, body %+v; want 400 with an error text", tc.name, resp.StatusCode, doc)
		}
		if header == "" || doc.RequestID != header || (tc.id != "" && header != tc.id) {
			t.Errorf("%s: body request_id %q, header %q, sent %q", tc.name, doc.RequestID, header, tc.id)
		}
	}
}
