package service

// /metrics is the service's one counters surface: every number Stats
// reports has a family, and after a workload touching every subsystem the
// scraped value equals the Go snapshot.

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
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
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

// TestMetricsCoverStats maps every Stats field to its /metrics family and
// checks, after a workload touching every subsystem, that the scrape
// equals Stats(). A Stats field added without a family fails here.
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
	item := fmt.Sprintf(`{"instance": %s, "model": "inorder", "objective": "period", "method": "bnb", "family": "chain"}`,
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

	families := map[string]string{
		"Cache.Hits":             "filterd_plancache_hits_total",
		"Cache.Misses":           "filterd_plancache_misses_total",
		"Cache.Coalesced":        "filterd_plancache_coalesced_total",
		"Cache.Evictions":        "filterd_plancache_evictions_total",
		"Cache.Seeded":           "filterd_plancache_seeded_total",
		"Cache.Len":              "filterd_plancache_entries",
		"Cache.InFlight":         "filterd_plancache_inflight",
		"Cache.Cap":              "filterd_plancache_capacity",
		"PlanRequests":           "filterd_plan_requests_total",
		"DriftRequests":          "filterd_drift_requests_total",
		"Rejected":               "filterd_rejected_total",
		"Solves":                 "filterd_solves_total",
		"Registered":             "filterd_registered_instances",
		"QueueDepth":             "filterd_queue_depth",
		"Workers":                "filterd_workers",
		"Shed":                   "filterd_shed_total",
		"Pending":                "filterd_pending_solves",
		"MaxPending":             "filterd_max_pending",
		"Store.Writes":           "filterd_store_writes_total",
		"Store.WriteErrors":      "filterd_store_write_errors_total",
		"Store.Loaded":           "filterd_store_loaded_total",
		"Store.Skipped":          "filterd_store_skipped_total",
		"Store.Quarantined":      "filterd_store_quarantined_total",
		"Sync.AcceptedInstances": `filterd_sync_accepted_total{kind="instances"}`,
		"Sync.AcceptedEntries":   `filterd_sync_accepted_total{kind="entries"}`,
		"Sync.Duplicates":        "filterd_sync_duplicates_total",
		"Sync.Rejected":          "filterd_sync_rejected_total",
		"Sync.Conflicts":         "filterd_sync_conflicts_total",
		"Sync.BytesIn":           `filterd_sync_bytes_total{direction="in"}`,
		"Sync.BytesOut":          `filterd_sync_bytes_total{direction="out"}`,
		"Subscribers":            "filterd_subscribers",
		"EventsPublished":        "filterd_subscribe_events_total",
		"EventsDropped":          "filterd_subscribe_dropped_total",
		"MemoHits":               "filterd_memo_hits_total",
		"MemoMisses":             "filterd_memo_misses_total",
		"SolverExpanded":         "filterd_solver_nodes_expanded_total",
		"SolverPruned":           "filterd_solver_nodes_pruned_total",
		"SolverEvaluated":        "filterd_solver_candidates_evaluated_total",
	}
	stats := s.Stats()
	scraped := scrapeMetrics(t, ts.URL)
	var hz Healthz
	doJSON(t, "GET", ts.URL+"/v1/healthz", nil, &hz)
	buildInfo := fmt.Sprintf(`filterd_build_info{version=%q,revision=%q}`, stats.Version, stats.Revision)

	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			path, f := prefix+v.Type().Field(i).Name, v.Field(i)
			switch f.Kind() {
			case reflect.Struct:
				walk(path+".", f)
			case reflect.Bool: // Persistent: the store families are mounted
				if _, ok := scraped["filterd_store_writes_total"]; ok != f.Bool() {
					t.Errorf("%s = %v, but the store families mounted = %v", path, f.Bool(), ok)
				}
			case reflect.String: // Version, Revision: build info and healthz
				if scraped[buildInfo] != 1 || hz.Version != stats.Version || hz.Revision != stats.Revision {
					t.Errorf("%s %q: /metrics has no %s 1, or /v1/healthz says %+v", path, f.String(), buildInfo, hz)
				}
			default:
				name, ok := families[path]
				if !ok {
					t.Errorf("Stats.%s has no /metrics family", path)
					continue
				}
				got, ok := scraped[name]
				if want := float64(f.Int()); !ok || got != want {
					t.Errorf("Stats.%s = %v, /metrics %s = %v (present %v)", path, want, name, got, ok)
				}
			}
		}
	}
	walk("", reflect.ValueOf(stats))

	// The workload reached every subsystem the mapping speaks for.
	if stats.Store.Loaded != 1 || stats.Store.Skipped != 1 || stats.Store.Writes == 0 ||
		stats.Rejected != 1 || stats.Cache.Coalesced+stats.Cache.Hits == 0 || stats.DriftRequests != 1 ||
		stats.Subscribers != 1 || stats.EventsPublished != 1 || stats.Registered < 3 ||
		stats.Sync.AcceptedInstances != 1 || stats.Sync.AcceptedEntries != 1 || stats.Sync.Rejected != 1 ||
		stats.Sync.BytesOut == 0 || stats.SolverExpanded == 0 {
		t.Errorf("workload missed a subsystem: %+v", stats)
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
