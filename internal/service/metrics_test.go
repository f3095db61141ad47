package service

// /metrics is the service's counters surface: after a workload touching
// every subsystem each family reads its expected value, and every number
// Stats still reports equals its family.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/solve"
	"repro/internal/store"
)

// scrapeMetrics reads a /metrics page into series → value, each series
// keyed as printed (family name plus label set).
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
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
	return parseSamples(t, string(body))
}

// parseSamples reads Prometheus text into series → value.
func parseSamples(t testing.TB, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// samples reads s's registry (Registry.WriteTo, no HTTP) into series →
// value.
func samples(t testing.TB, s *Server) map[string]float64 {
	t.Helper()
	var b strings.Builder
	s.metrics.WriteTo(&b)
	return parseSamples(t, b.String())
}

// metric returns one series of s's registry, keyed as printed, and fails
// the test when the series is absent: a misspelled name never reads as 0.
func metric(t testing.TB, s *Server, series string) float64 {
	t.Helper()
	v, ok := samples(t, s)[series]
	if !ok {
		t.Fatalf("no series %s in the registry", series)
	}
	return v
}

// TestMetricsCoverStats drives a workload touching every subsystem and
// checks each family's value, then that every Stats field equals its
// family. A Stats field added without a family fails here.
func TestMetricsCoverStats(t *testing.T) {
	// A store-backed server warm-loading one good entry and one torn file.
	dir := t.TempDir()
	entry, err := os.ReadFile(filepath.Join("..", "store", "testdata", "pr16_auto_exact_forest.plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "good.plan.json"), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.plan.json"), entry[:len(entry)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 2, Store: st})
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(ts.Close)

	// A plan, then a batch with a duplicate and a rejected item.
	hash, target, _ := planAndTarget(t, s)
	item := fmt.Sprintf(`{"instance": %s, "model": "inorder", "objective": "period", "method": "bnb", "family": "forest"}`,
		readTestdata(t, "mixed6.json"))
	doJSON(t, "POST", ts.URL+"/v1/batch",
		fmt.Sprintf(`{"requests": [%s, %s, {"instance": {"services": []}}]}`, item, item), nil)

	// A subscriber held open across a drift PATCH and the readings.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/subscribe/"+hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if line, err := bufio.NewReader(sub.Body).ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("stream preamble %q, %v", line, err)
	}
	if resp := doJSON(t, "PATCH", ts.URL+"/v1/instance/"+hash,
		fmt.Sprintf(`{"model": "overlap", "objective": "period", "updates": [{"service": %q, "cost": "99"}]}`, target), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("patch status %d", resp.StatusCode)
	}

	// A sync exchange pushing one foreign instance, one entry and one
	// forged instance; its empty digest pulls every local entry back.
	peer := newTestServer(t, Config{Workers: 1})
	planned, err := peer.Plan(Request{App: gen.App(gen.NewRand(11), 5, gen.Filtering), Model: plan.Overlap, Objective: solve.PeriodObjective})
	if err != nil {
		t.Fatal(err)
	}
	forged := peer.ExportInstances([]string{planned.Hash})[0]
	forged.Hash = strings.Repeat("0", 64)
	doJSON(t, "POST", ts.URL+"/v1/sync", SyncRequest{
		Instances: append(peer.ExportInstances([]string{planned.Hash}), forged),
		Entries:   peer.ExportEntries([]string{planned.Key}),
	}, nil)

	scraped := scrapeMetrics(t, ts.URL)
	want := map[string]float64{
		"filterd_store_loaded_total":      1,
		"filterd_store_skipped_total":     1,
		"filterd_store_quarantined_total": 1, // the torn file

		"filterd_store_write_errors_total":              0,
		"filterd_rejected_total":                        1,
		"filterd_drift_requests_total":                  1,
		"filterd_registered_instances":                  4, // plan, batch, PATCH, sync
		"filterd_queue_depth":                           0,
		"filterd_pending_solves":                        0,
		"filterd_max_pending":                           68, // 64 + 2×Workers
		"filterd_subscribers":                           1,
		"filterd_subscribe_events_total":                1,
		"filterd_subscribe_dropped_total":               0,
		`filterd_sync_accepted_total{kind="instances"}`: 1,
		`filterd_sync_accepted_total{kind="entries"}`:   1,
		"filterd_sync_duplicates_total":                 0,
		"filterd_sync_rejected_total":                   1,
		"filterd_sync_conflicts_total":                  0,
	}
	for name, v := range want {
		if got, ok := scraped[name]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
	for _, name := range []string{
		"filterd_store_writes_total",
		"filterd_solver_nodes_expanded_total",
		"filterd_solver_nodes_pruned_total",
		"filterd_solver_candidates_evaluated_total",
		`filterd_sync_bytes_total{direction="in"}`,
		`filterd_sync_bytes_total{direction="out"}`,
	} {
		if scraped[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, scraped[name])
		}
	}
	var hz Healthz
	doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &hz)
	buildInfo := fmt.Sprintf(`filterd_build_info{version=%q,revision=%q}`, hz.Version, hz.Revision)
	if scraped[buildInfo] != 1 {
		t.Errorf("/metrics has no %s 1 for /v1/healthz %+v", buildInfo, hz)
	}

	families := map[string]string{
		"Cache.Hits":        "filterd_plancache_hits_total",
		"Cache.Misses":      "filterd_plancache_misses_total",
		"Cache.Coalesced":   "filterd_plancache_coalesced_total",
		"Cache.Evictions":   "filterd_plancache_evictions_total",
		"Cache.Seeded":      "filterd_plancache_seeded_total",
		"Cache.Len":         "filterd_plancache_entries",
		"Cache.InFlight":    "filterd_plancache_inflight",
		"Cache.Cap":         "filterd_plancache_capacity",
		"PlanRequests":      "filterd_plan_requests_total",
		"Solves":            "filterd_solves_total",
		"Workers":           "filterd_workers",
		"Shed":              "filterd_shed_total",
		"Store.Writes":      "filterd_store_writes_total",
		"Store.WriteErrors": "filterd_store_write_errors_total",
		"Store.Loaded":      "filterd_store_loaded_total",
		"Store.Skipped":     "filterd_store_skipped_total",
		"Store.Quarantined": "filterd_store_quarantined_total",
		"MemoHits":          "filterd_memo_hits_total",
		"MemoMisses":        "filterd_memo_misses_total",
	}
	stats := s.Stats()
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			path, f := prefix+v.Type().Field(i).Name, v.Field(i)
			if f.Kind() == reflect.Struct {
				walk(path+".", f)
				continue
			}
			name, ok := families[path]
			if !ok {
				t.Errorf("Stats.%s has no /metrics family", path)
				continue
			}
			if got, ok := scraped[name]; !ok || got != float64(f.Int()) {
				t.Errorf("Stats.%s = %v, /metrics %s = %v (present %v)", path, f.Int(), name, got, ok)
			}
		}
	}
	walk("", reflect.ValueOf(stats))
	if stats.Cache.Coalesced+stats.Cache.Hits == 0 || stats.MemoMisses == 0 {
		t.Errorf("workload missed the cache or the memo: %+v", stats)
	}

	// /metrics is the only counters surface: the JSON mirror is gone.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/stats: status %d, want 404", resp.StatusCode)
	}
}
