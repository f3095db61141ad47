package cluster

// /metrics is the router's and the gossip agent's one counters surface:
// every Stats field has a family (per-peer families sum to the Stats
// total), and after a workload through forwards, fan-out, replica and
// local failover, or gossip rounds against a live and a dead peer, the
// scrape equals Stats().

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/resilience"
)

// scrapeFamilies reads a /metrics page into family → value, summing each
// family's label sets; a family declared with no series yet reads 0.
func scrapeFamilies(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out[strings.Fields(name)[0]] += 0
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	return out
}

// TestRouterMetricsCoverStats maps every router Stats field to its
// /metrics family and checks, after a workload through every routing
// path, that the scrape equals Stats(). A Stats field added without a
// family fails here.
func TestRouterMetricsCoverStats(t *testing.T) {
	reps := []*replica{newReplica(t), newReplica(t)}
	rt := newRouter(t, Config{
		Peers: []string{reps[0].ts.URL, reps[1].ts.URL}, HealthInterval: time.Hour,
		RetryBackoff: time.Millisecond,
	})
	gw := httptest.NewServer(rt)
	defer gw.Close()
	send := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, gw.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Forwarded, a fanned-out write, and a body answered locally.
	planReq := fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, readTestdata(t, "mixed6.json"))
	resp := post(t, gw.URL+"/v1/plan", planReq)
	var planned planWire
	if err := json.NewDecoder(resp.Body).Decode(&planned); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	owner := resp.Header.Get("X-Filterd-Shard-Owner")
	send("PATCH", "/v1/instance/"+planned.Hash,
		`{"model": "overlap", "objective": "period", "updates": [{"service": "C1", "cost": "99"}]}`)
	send("POST", "/v1/plan", "{")

	// The owner dies: the co-owner serves. Then both die: the router
	// answers locally.
	for _, rep := range reps {
		if rep.ts.URL == owner {
			rep.ts.Close()
		}
	}
	send("POST", "/v1/plan", planReq)
	for _, rep := range reps {
		rep.ts.Close()
	}
	send("POST", "/v1/plan", planReq)

	families := map[string]string{
		"Shards":           "filterd_router_shards",
		"Peers":            "filterd_router_peers",
		"PeersUp":          "filterd_router_peers_up",
		"Forwarded":        "filterd_router_forwards_total",
		"LocalServed":      "filterd_router_local_served_total",
		"Failovers":        "filterd_router_failovers_total",
		"Retries":          "filterd_router_retries_total",
		"Replicas":         "filterd_router_replicas",
		"UnderReplicated":  "filterd_router_underreplicated_shards",
		"ReplicaFailovers": "filterd_router_replica_failovers_total",
		"FanoutWrites":     "filterd_router_fanout_writes_total",
		"FanoutErrors":     "filterd_router_fanout_errors_total",
	}
	st := rt.Stats()
	scraped := scrapeFamilies(t, gw.URL)
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i).Name
		name, ok := families[field]
		if !ok {
			t.Errorf("Stats.%s has no /metrics family", field)
			continue
		}
		got, ok := scraped[name]
		if want := float64(v.Field(i).Int()); !ok || got != want {
			t.Errorf("Stats.%s = %v, /metrics %s = %v (present %v)", field, want, name, got, ok)
		}
	}

	// The workload reached every routing path the mapping speaks for.
	if st.Forwarded < 2 || st.FanoutWrites < 1 || st.LocalServed < 2 || st.ReplicaFailovers < 1 ||
		st.Failovers < 1 || st.Retries < 1 || st.PeersUp != 0 || st.UnderReplicated != st.Shards {
		t.Errorf("workload missed a routing path: %+v", st)
	}

}

// TestCensusMatchesPerShardCount: the residue census behind
// filterd_router_underreplicated_shards and
// filterd_router_shards_by_replication equals a shard-by-shard count,
// for shard counts above and below the peer count.
func TestCensusMatchesPerShardCount(t *testing.T) {
	peers := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	for _, bits := range []int{1, 3, 8} {
		rt := newRouter(t, Config{Peers: peers, shardBits: bits, Replicas: 2, HealthInterval: time.Hour})
		for i := 0; i < resilience.Threshold; i++ {
			rt.peers[1].breaker.Failure() // peer 1 open
		}
		want := make([]int, rt.cfg.Replicas+1)
		for shard := 0; shard < 1<<bits; shard++ {
			up := 0
			for _, p := range rt.ownersOf(shard) {
				if p.available() {
					up++
				}
			}
			want[up]++
		}
		if got := rt.census(); !reflect.DeepEqual(got, want) {
			t.Errorf("bits %d: census %v, per-shard count %v", bits, got, want)
		}
		if got := rt.Stats().UnderReplicated; got != want[0]+want[1] {
			t.Errorf("bits %d: under-replicated %d, want %d", bits, got, want[0]+want[1])
		}
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		for f, n := range want {
			if line := fmt.Sprintf("filterd_router_shards_by_replication{factor=\"%d\"} %d\n", f, n); !strings.Contains(rec.Body.String(), line) {
				t.Errorf("bits %d: /metrics lacks %q", bits, line)
			}
		}
	}
}

// TestGossipMetricsCoverStats maps every gossip Stats field to its
// /metrics family and checks, after rounds against a live and a dead
// peer, that the scrape equals Stats(). A Stats field added without a
// family fails here.
func TestGossipMetricsCoverStats(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	for rep, name := range map[*replica]string{a: "mixed6.json", b: "webquery8.json"} {
		resp := post(t, rep.ts.URL+"/v1/plan",
			fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, readTestdata(t, name)))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	dead := newReplica(t)
	dead.ts.Close()
	reg := metrics.New()
	g, err := NewGossip(GossipConfig{
		Peers: []string{b.ts.URL, dead.ts.URL}, Local: a.srv,
		Metrics: reg, BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= resilience.Threshold; i++ {
		g.RunOnce(context.Background())
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	families := map[string]string{
		"Rounds":    "filterd_gossip_rounds_total",
		"Exchanges": "filterd_gossip_exchanges_total",
		"Failures":  "filterd_gossip_failures_total",
		"Skipped":   "filterd_gossip_skipped_total",
		"Imported":  "filterd_gossip_imported_total",
		"Pushed":    "filterd_gossip_pushed_total",
	}
	scraped := scrapeFamilies(t, ts.URL)
	v := reflect.ValueOf(g.Stats())
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i).Name
		name, ok := families[field]
		if !ok {
			t.Errorf("GossipStats.%s has no /metrics family", field)
			continue
		}
		got, ok := scraped[name]
		if want := float64(v.Field(i).Int()); !ok || got != want {
			t.Errorf("GossipStats.%s = %v, /metrics %s = %v (present %v)", field, want, name, got, ok)
		}
		// The rounds reached every path the mapping speaks for.
		if v.Field(i).Int() == 0 {
			t.Errorf("GossipStats.%s is 0: the rounds missed its path", field)
		}
	}
}
