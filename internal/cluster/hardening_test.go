package cluster

// Regression tests for the router hardening: bounded batch fan-out, no
// truncated-200 forwards (mid-body peer death fails over), concurrent
// capped health probes, and breaker isolation of a flapping peer — plus
// the /metrics surface the smoke test scrapes.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// fakePeer is a replica stub: /v1/healthz always healthy, /v1/plan under
// test control.
func fakePeer(t *testing.T, plan http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("POST /v1/plan", plan)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Local == nil {
		local := service.New(service.Config{Workers: 2})
		t.Cleanup(local.Close)
		cfg.Local = local
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestBatchFanoutBounded: a 12-item batch against a single slow peer
// keeps at most batchFanoutPerPeer forwards in flight — the per-item-goroutine
// regression would show all 12 concurrently.
func TestBatchFanoutBounded(t *testing.T) {
	var cur, max atomic.Int64
	peer := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		cur.Add(-1)
		w.Write([]byte(`{"ok":true}`))
	})
	rt := newRouter(t, Config{
		Peers: []string{peer.URL}, HealthInterval: time.Hour,
	})
	gw := httptest.NewServer(rt)
	defer gw.Close()

	instance := string(readTestdata(t, "mixed6.json"))
	item := fmt.Sprintf(`{"instance": %s, "model": "overlap"}`, instance)
	items := make([]string, 12)
	for i := range items {
		items[i] = item
	}
	body := fmt.Sprintf(`{"requests": [%s]}`, strings.Join(items, ","))

	resp := post(t, gw.URL+"/v1/batch", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Results []struct {
			Error string          `json:"error"`
			Plan  json.RawMessage `json:"plan"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 12 {
		t.Fatalf("%d results", len(out.Results))
	}
	for i, res := range out.Results {
		if res.Error != "" || len(res.Plan) == 0 {
			t.Fatalf("item %d failed: %q", i, res.Error)
		}
	}
	if m := max.Load(); m > batchFanoutPerPeer {
		t.Errorf("%d forwards in flight at once, fan-out bound is %d", m, batchFanoutPerPeer)
	}
}

// TestMidBodyPeerDeathFailsOver: a peer that dies after committing a 200
// and 100 of its promised 4096 body bytes must NOT surface as a truncated
// 200 — the router buffers before committing, counts the read failure
// against the peer, and fails over to the bit-identical local solve.
func TestMidBodyPeerDeathFailsOver(t *testing.T) {
	peer := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		w.Write(make([]byte, 100))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	})
	rt := newRouter(t, Config{
		Peers: []string{peer.URL}, HealthInterval: time.Hour,
	})
	gw := httptest.NewServer(rt)
	defer gw.Close()

	instance := readTestdata(t, "mixed6.json")
	resp := post(t, gw.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance))
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading routed response: %v — the truncation leaked through", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if by := resp.Header.Get("X-Filterd-Served-By"); by != "local-failover" {
		t.Fatalf("served by %q, want local-failover", by)
	}
	var planned planWire
	if err := json.Unmarshal(payload, &planned); err != nil {
		t.Fatalf("failover body is not a plan answer: %v (%s)", err, payload)
	}
	if planned.Hash == "" || planned.Outcome == "" {
		t.Errorf("incomplete failover answer: %+v", planned)
	}
	if st := rt.Stats(); st.Failovers != 1 {
		t.Errorf("failovers %d, want 1", st.Failovers)
	}
}

// TestHealthProbesConcurrentAndCapped: a health pass probes its peers
// concurrently (max in-flight probes at one slow endpoint exceeds 1) and
// Close aborts in-flight probes instead of waiting them out.
func TestHealthProbesConcurrentAndCapped(t *testing.T) {
	var cur, max atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		defer cur.Add(-1)
		select {
		case <-time.After(150 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		w.Write([]byte("{}"))
	})
	slow := httptest.NewServer(mux)
	defer slow.Close()

	// Four peer slots at the same slow endpoint: a serial health pass
	// never has two probes in flight, a concurrent one does immediately.
	local := service.New(service.Config{Workers: 1})
	defer local.Close()
	rt, err := New(Config{
		Peers:          []string{slow.URL, slow.URL, slow.URL, slow.URL},
		Local:          local,
		HealthInterval: 100 * time.Millisecond,
		ProbeTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for max.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m := max.Load(); m < 2 {
		rt.Close()
		t.Fatalf("max concurrent probes %d, want >= 2 — probing is serial", m)
	}

	// Close must cancel probes still sleeping at the slow peer.
	start := time.Now()
	rt.Close()
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v waiting out in-flight probes", d)
	}
}

// TestBreakerIsolatesFlappingPeer: after K consecutive forward failures
// the peer's breaker opens, requests stop touching the peer (its hit
// count freezes) and every answer still arrives via local failover. The
// router /metrics page reports the open breaker — the signal the cluster
// smoke test scrapes.
func TestBreakerIsolatesFlappingPeer(t *testing.T) {
	var hits atomic.Int64
	// The peer fails its stats probe as well (a never-seen peer's probe
	// failures are ignored): the router's boot-time health pass runs
	// concurrently with the first request, and a probe SUCCESS closes a
	// breaker from any state — a fakePeer answering it 200 lets a late
	// probe re-close the breaker the request has just opened, which a fast
	// local solve makes likely.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		panic(http.ErrAbortHandler)
	})
	peer := httptest.NewServer(mux) // GET /v1/healthz: 404
	t.Cleanup(peer.Close)
	rt := newRouter(t, Config{
		Peers: []string{peer.URL}, HealthInterval: time.Hour,
		RetryBackoff: time.Millisecond,
	})
	gw := httptest.NewServer(rt)
	defer gw.Close()

	instance := readTestdata(t, "mixed6.json")
	body := fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance)

	// One request = up to 3 attempts = the whole failure budget.
	resp := post(t, gw.URL+"/v1/plan", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if by := resp.Header.Get("X-Filterd-Served-By"); by != "local-failover" {
		t.Fatalf("served by %q, want local-failover", by)
	}
	frozen := hits.Load()
	if frozen < 3 {
		t.Fatalf("peer saw %d attempts, want the full retry budget of 3", frozen)
	}

	for i := 0; i < 4; i++ {
		resp := post(t, gw.URL+"/v1/plan", body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after open: status %d", i, resp.StatusCode)
		}
		if by := resp.Header.Get("X-Filterd-Served-By"); by != "local-failover" {
			t.Fatalf("request %d served by %q, want local-failover", i, by)
		}
	}
	if h := hits.Load(); h != frozen {
		t.Errorf("open breaker leaked %d more attempts to the peer", h-frozen)
	}
	if st := rt.Stats(); st.PeersUp != 0 || st.Retries < 2 {
		t.Errorf("stats after open: PeersUp %d Retries %d", st.PeersUp, st.Retries)
	}

	mresp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	out, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	for _, want := range []string{
		fmt.Sprintf(`filterd_router_breaker_state{peer="%s"} 1`, peer.URL),
		fmt.Sprintf(`filterd_router_breaker_opens_total{peer="%s"} 1`, peer.URL),
		fmt.Sprintf(`filterd_router_failovers_total{peer="%s"} 5`, peer.URL),
		"filterd_router_peers_up 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRouterMetricsEndpoint: the healthy-path families — per-peer forward
// counters and closed breakers — appear on the router's /metrics.
func TestRouterMetricsEndpoint(t *testing.T) {
	rt, gw, _ := newCluster(t, 2)
	instance := readTestdata(t, "mixed6.json")
	resp := post(t, gw.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	owner := resp.Header.Get("X-Filterd-Served-By")
	if !strings.HasPrefix(owner, "http") {
		t.Fatalf("plan served by %q, want a peer", owner)
	}

	mresp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text format", ct)
	}
	out, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	for _, want := range []string{
		fmt.Sprintf(`filterd_router_forwards_total{peer="%s"} 1`, owner),
		fmt.Sprintf(`filterd_router_breaker_state{peer="%s"} 0`, owner),
		"filterd_router_peers_up 2",
		"filterd_router_forward_seconds_count 1",
		"# TYPE filterd_router_forward_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if st := rt.Stats(); st.Forwarded != 1 {
		t.Errorf("forwarded %d, want 1", st.Forwarded)
	}
}
