package cluster

// /metrics is the router's and the gossip agent's counters surface:
// after a workload through forwards, fan-out, replica and local failover,
// or gossip rounds against a live and a dead peer, each family reads its
// expected value, and every number Stats still reports equals its family
// (per-peer families sum to the Stats total).

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

// families reads reg (Registry.WriteTo, no HTTP) into family → value,
// summing each family's label sets; a family declared with no series yet
// reads 0.
func families(t testing.TB, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	reg.WriteTo(&b)
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
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

// family returns one family of reg, its label sets summed, and fails the
// test when reg declares no such family: a misspelled name never reads
// as 0.
func family(t testing.TB, reg *metrics.Registry, name string) float64 {
	t.Helper()
	v, ok := families(t, reg)[name]
	if !ok {
		t.Fatalf("no family %s in the registry", name)
	}
	return v
}

// wantFamilies checks each family of got against its expected value.
func wantFamilies(t *testing.T, got, want map[string]float64) {
	t.Helper()
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, v)
		}
	}
}

// TestRouterMetricsCoverStats drives a workload through every routing
// path and checks each router family's value, then that every Stats
// field equals its family. A Stats field added without a family fails
// here.
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

	scraped := families(t, rt.metrics)
	wantFamilies(t, scraped, map[string]float64{
		"filterd_router_forwards_total":          3,
		"filterd_router_fanout_writes_total":     1,
		"filterd_router_fanout_errors_total":     0,
		"filterd_router_replica_failovers_total": 2, // the dead owner, twice
		"filterd_router_failovers_total":         1,
		"filterd_router_retries_total":           4, // forwardRetries per owner found dead
		"filterd_router_local_served_total":      2,
		"filterd_router_peers":                   2,
		"filterd_router_peers_up":                0,
		"filterd_router_replicas":                2,
		"filterd_router_shards":                  256,
		"filterd_router_underreplicated_shards":  256,
	})

	fields := map[string]string{
		"Shards":          "filterd_router_shards",
		"PeersUp":         "filterd_router_peers_up",
		"UnderReplicated": "filterd_router_underreplicated_shards",
		"Forwarded":       "filterd_router_forwards_total",
		"LocalServed":     "filterd_router_local_served_total",
		"Failovers":       "filterd_router_failovers_total",
		"Retries":         "filterd_router_retries_total",
	}
	v := reflect.ValueOf(rt.Stats())
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i).Name
		name, ok := fields[field]
		if !ok {
			t.Errorf("Stats.%s has no /metrics family", field)
			continue
		}
		if got, ok := scraped[name]; !ok || got != float64(v.Field(i).Int()) {
			t.Errorf("Stats.%s = %v, /metrics %s = %v (present %v)", field, v.Field(i).Int(), name, got, ok)
		}
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

// TestGossipMetricsCoverStats runs rounds against a live and a dead peer
// and checks each gossip family's value, then that every GossipStats
// field equals its family. A GossipStats field added without a family
// fails here.
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
	scraped := families(t, reg)
	wantFamilies(t, scraped, map[string]float64{
		"filterd_gossip_rounds_total":    resilience.Threshold + 1,
		"filterd_gossip_exchanges_total": resilience.Threshold + 1,
		"filterd_gossip_failures_total":  resilience.Threshold,
		"filterd_gossip_skipped_total":   1,
		"filterd_gossip_imported_total":  2, // b's instance and entry
		"filterd_gossip_pushed_total":    2, // a's instance and entry
	})

	fields := map[string]string{"Imported": "filterd_gossip_imported_total"}
	v := reflect.ValueOf(g.Stats())
	for i := 0; i < v.NumField(); i++ {
		field := v.Type().Field(i).Name
		name, ok := fields[field]
		if !ok {
			t.Errorf("GossipStats.%s has no /metrics family", field)
			continue
		}
		if got, ok := scraped[name]; !ok || got != float64(v.Field(i).Int()) {
			t.Errorf("GossipStats.%s = %v, /metrics %s = %v (present %v)", field, v.Field(i).Int(), name, got, ok)
		}
	}
}
