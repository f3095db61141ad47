// Service quickstart: run the filterd planning service in-process and
// drive its HTTP API end to end — plan an instance, hit the cache with an
// equivalent permuted listing, batch-plan, subscribe to re-plan events,
// drift a cost and watch the warm-started re-plan push one event, restart
// the service over its persistent store and get the same answer warm,
// follow one request ID from the response header through the span ring
// (/debug/requests) to the plan's provenance record (/v1/explain), and
// read the counters off /metrics, the Prometheus text a collector
// scrapes. Then replication (DESIGN.md §4–5):
// a two-owner cluster router loses its preferred owner mid-traffic and
// the co-owner serves the identical answer — zero 5xx, with the loss
// visible on the under-replicated gauge. The finale closes the loop with
// the data plane (internal/exec): execute the planned schedule on a
// synthetic tuple stream whose real cost differs from the declared one,
// watch the executor measure the drift, PATCH the instance, and hot-swap
// to the re-planned schedule — plan → execute → observe → re-plan.
//
// The same API is served standalone by `go run ./cmd/filterd` (add
// -data-dir for persistence, -peers for the cluster router, -log-format
// json for structured logs); everything below works unchanged against it
// (replace the test listener's URL).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workflow"
)

func main() {
	// The daemon's core, embedded: 2 workers, default cache, persistent
	// plan store (what filterd -data-dir wires up).
	dir, err := os.MkdirTemp("", "filterd-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	// Tracer: a 64-span ring behind GET /debug/requests (filterd's
	// -trace-requests flag). Logger: every daemon log line is structured
	// and carries the request_id of the request that caused it (filterd's
	// -log-level / -log-format flags).
	srv := service.New(service.Config{
		Workers: 2,
		Store:   st,
		Tracer:  obs.NewTracer(64),
		Logger:  slog.New(slog.NewTextHandler(os.Stdout, nil)),
	})
	defer srv.Close()
	ts := httptest.NewServer(service.Handler(srv))
	defer ts.Close()

	// The §2.3 running example: five services of cost 4, selectivity 1.
	instance := `{"services": [
	  {"name": "C1", "cost": "4", "selectivity": "1"},
	  {"name": "C2", "cost": "4", "selectivity": "1"},
	  {"name": "C3", "cost": "4", "selectivity": "1"},
	  {"name": "C4", "cost": "4", "selectivity": "1"},
	  {"name": "C5", "cost": "4", "selectivity": "1"}]}`

	fmt.Println("== POST /v1/plan: first request solves ==")
	plan1 := post(ts.URL+"/v1/plan", fmt.Sprintf(
		`{"instance": %s, "model": "inorder", "objective": "period"}`, instance))
	fmt.Printf("  period %s under inorder (outcome: %s)\n  hash %s\n",
		plan1["value"], plan1["outcome"], plan1["hash"])

	fmt.Println("== POST /v1/plan: identical request is a cache hit ==")
	plan2 := post(ts.URL+"/v1/plan", fmt.Sprintf(
		`{"instance": %s, "model": "inorder", "objective": "period"}`, instance))
	fmt.Printf("  period %s (outcome: %s)\n", plan2["value"], plan2["outcome"])

	fmt.Println("== canonicalization: a permuted listing lands on the same hash ==")
	permuted := `{"services": [
	  {"name": "C5", "cost": "4", "selectivity": "1"},
	  {"name": "C3", "cost": "4", "selectivity": "1"},
	  {"name": "C1", "cost": "4", "selectivity": "1"},
	  {"name": "C4", "cost": "4", "selectivity": "1"},
	  {"name": "C2", "cost": "4", "selectivity": "1"}]}`
	plan3 := post(ts.URL+"/v1/plan", fmt.Sprintf(
		`{"instance": %s, "model": "inorder", "objective": "period"}`, permuted))
	fmt.Printf("  same hash: %v (outcome: %s)\n",
		plan3["hash"] == plan1["hash"], plan3["outcome"])

	fmt.Println("== POST /v1/batch: all three models in one request ==")
	batch := post(ts.URL+"/v1/batch", fmt.Sprintf(`{"requests": [
	  {"instance": %[1]s, "model": "overlap"},
	  {"instance": %[1]s, "model": "inorder"},
	  {"instance": %[1]s, "model": "outorder"}]}`, instance))
	for _, r := range batch["results"].([]any) {
		p := r.(map[string]any)["plan"].(map[string]any)
		fmt.Printf("  %-8s period %s\n", p["model"], p["value"])
	}

	fmt.Println("== GET /v1/subscribe/{hash}: listen for re-plan events ==")
	sub, err := http.Get(fmt.Sprintf("%s/v1/subscribe/%s", ts.URL, plan1["hash"]))
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Body.Close()
	events := bufio.NewReader(sub.Body)
	if _, err := events.ReadString('\n'); err != nil { // ": subscribed <hash>" preamble
		log.Fatal(err)
	}
	fmt.Println("  subscribed (server-sent events)")

	fmt.Println("== PATCH /v1/instance/{hash}: C3's cost drifts 4 → 8 ==")
	drift := patch(fmt.Sprintf("%s/v1/instance/%s", ts.URL, plan1["hash"]),
		`{"model": "inorder", "objective": "period", "method": "bnb",
		  "updates": [{"service": "C3", "cost": "8"}]}`)
	fmt.Printf("  period %s → %s (warm start: %v, incumbent %v)\n",
		drift["old_value"], drift["new_value"], drift["warm_start"], drift["incumbent"])

	fmt.Println("== the re-plan pushed one SSE event to the subscriber ==")
	for {
		line, err := events.ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		if strings.HasPrefix(line, "data: ") {
			fmt.Printf("  event: %s", strings.TrimPrefix(line, "data: "))
			break
		}
	}

	fmt.Println("== restart over the persistent store: warm, bit-identical ==")
	srv2 := service.New(service.Config{Workers: 2, Store: st})
	defer srv2.Close()
	ts2 := httptest.NewServer(service.Handler(srv2))
	defer ts2.Close()
	replay := post(ts2.URL+"/v1/plan", fmt.Sprintf(
		`{"instance": %s, "model": "inorder", "objective": "period"}`, instance))
	fmt.Printf("  period %s (outcome: %s — no solve after the restart; value unchanged: %v)\n",
		replay["value"], replay["outcome"], replay["value"] == plan1["value"])

	fmt.Println("== observability: one ID from response header to span to explain ==")
	// Send a request with a client-chosen X-Filterd-Request-Id (omit it
	// and the service generates one); the same ID comes back on the
	// response, names the request's span in /debug/requests, and tags the
	// plan's provenance record — and any daemon log line it caused.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(fmt.Sprintf(
		`{"instance": %s, "model": "inorder", "objective": "period", "method": "bnb"}`, instance)))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set(obs.HeaderRequestID, "example-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	traced := decode(resp)
	fmt.Printf("  response header %s: %s\n", obs.HeaderRequestID, resp.Header.Get(obs.HeaderRequestID))

	ring := get(ts.URL + "/debug/requests")
	for _, s := range ring["spans"].([]any) {
		span := s.(map[string]any)
		if span["id"] != "example-rid-1" {
			continue
		}
		fmt.Printf("  span: route=%v status=%v outcome=%v source=%v\n",
			span["route"], span["status"], span["outcome"], span["source"])
		break
	}

	explain := get(fmt.Sprintf("%s/v1/explain/%s", ts.URL, traced["hash"]))
	solver := explain["solver"].(map[string]any)
	fmt.Printf("  explain: request_id=%v method=%v source=%v\n",
		explain["request_id"], explain["method"], explain["source"])
	fmt.Printf("  search effort: %v nodes expanded, %v pruned, %v candidates evaluated\n",
		solver["expanded"], solver["pruned"], solver["evaluated"])

	fmt.Println("== GET /metrics: the counters, in Prometheus text format ==")
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer mresp.Body.Close()
	scanner := bufio.NewScanner(mresp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		// Show the scrape's headline instruments; a real deployment points
		// a Prometheus scrape job at this endpoint (router included —
		// there it also exposes per-peer breaker state and failovers).
		for _, prefix := range []string{
			"filterd_plan_requests_total", "filterd_solves_total",
			"filterd_plancache_hits_total", "filterd_plancache_coalesced_total",
			"filterd_registered_instances", "filterd_store_writes_total",
			"filterd_subscribe_events_total", "filterd_queue_depth",
			"filterd_shed_total", "filterd_solve_seconds_count",
		} {
			if strings.HasPrefix(line, prefix+" ") {
				fmt.Printf("  %s\n", line)
			}
		}
	}

	fmt.Println("== replication: kill a replica mid-traffic, the answer survives ==")
	// The cluster router (filterd -peers ... -replicas 2): with R=2 every
	// shard has two owners, reads fail over down the owner ladder, and the
	// determinism invariant guarantees that whoever answers, answers with
	// the same bytes — so losing a replica is invisible to the client, not
	// merely survivable. (scripts/smoke_chaos.sh is this story against
	// real processes, under a seeded fault schedule, with gossip re-filling
	// the restarted replica.)
	repA := service.New(service.Config{Workers: 1})
	defer repA.Close()
	tsA := httptest.NewServer(service.Handler(repA))
	defer tsA.Close()
	repB := service.New(service.Config{Workers: 1})
	defer repB.Close()
	tsB := httptest.NewServer(service.Handler(repB))
	defer tsB.Close()
	routerLocal := service.New(service.Config{Workers: 1})
	defer routerLocal.Close()
	router, err := cluster.New(cluster.Config{
		Peers:          []string{tsA.URL, tsB.URL},
		Replicas:       2,
		Local:          routerLocal,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()
	gw := httptest.NewServer(router)
	defer gw.Close()

	routedBody := fmt.Sprintf(`{"instance": %s, "model": "inorder", "objective": "period"}`, instance)
	r1, err := http.Post(gw.URL+"/v1/plan", "application/json", strings.NewReader(routedBody))
	if err != nil {
		log.Fatal(err)
	}
	owner := r1.Header.Get("X-Filterd-Shard-Owner")
	routed := decode(r1)
	fmt.Printf("  routed to owner %s: period %s\n", owner, routed["value"])

	// Kill the preferred owner. The next read lands on the co-owner (or,
	// with every owner gone, the router's embedded local solve) — the
	// client sees a 200 and the identical value either way.
	if owner == tsA.URL {
		tsA.Close()
	} else {
		tsB.Close()
	}
	r2, err := http.Post(gw.URL+"/v1/plan", "application/json", strings.NewReader(routedBody))
	if err != nil {
		log.Fatal(err)
	}
	servedBy := r2.Header.Get("X-Filterd-Served-By")
	survived := decode(r2)
	fmt.Printf("  owner killed; served by %s: period %s (unchanged: %v)\n",
		servedBy, survived["value"], survived["value"] == routed["value"])

	// The router's availability census notices the loss: once the dead
	// owner's breaker opens, shards with fewer than R live owners show up
	// in the under-replicated gauge (filterd_router_underreplicated_shards
	// on /metrics).
	for deadline := time.Now().Add(5 * time.Second); router.Stats().UnderReplicated == 0 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("  under-replicated shards: %d (the health loop heals this on restart)\n",
		router.Stats().UnderReplicated)

	fmt.Println("== the data plane: plan → execute → observe → re-plan (internal/exec) ==")
	// The stream executor speaks the same HTTP API the sections above
	// used by hand. The instance DECLARES cost 4 for C3, but the stream
	// it runs actually charges 9 per tuple — after enough samples the
	// executor's estimate is confidently off-declaration, so it PATCHes
	// /v1/instance/{hash} with the measured value and hot-swaps to the
	// re-planned schedule at a round boundary (`go run ./cmd/filterexec`
	// is this loop as a command).
	var app workflow.App
	if err := json.Unmarshal([]byte(instance), &app); err != nil {
		log.Fatal(err)
	}
	trueCost := rat.I(9)
	ex, err := exec.New(exec.Config{
		App: &app,
		Planner: &exec.Client{BaseURL: ts.URL,
			Params: service.Params{Model: "inorder", Objective: "period"}},
		Seed:    1,
		Workers: 4,
		Truth:   map[string]exec.Truth{"C3": {Cost: &trueCost}},
		Window:  512,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := ex.Run(context.Background(), 2048)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  streamed %d tuples in %d rounds (%d emitted)\n",
		report.Tuples, report.Rounds, report.Emitted)
	for _, ep := range report.Episodes {
		fmt.Printf("  round %d: measured drift -> PATCH -> hot swap, value %s -> %s\n",
			ep.Round, ep.OldValue, ep.NewValue)
		for _, u := range ep.Updates {
			if u.Cost != nil {
				fmt.Printf("    %s: declared cost drifted to measured %s\n", u.Service, *u.Cost)
			}
		}
	}
	fmt.Printf("  %d controller patch(es); final plan %.12s... period %s\n",
		report.Patches, report.Hash, report.Period)
}

func post(url, body string) map[string]any {
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		log.Fatal(err)
	}
	return decode(resp)
}

func patch(url, body string) map[string]any {
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewBufferString(body))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	return decode(resp)
}

func get(url string) map[string]any {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	return decode(resp)
}

func decode(resp *http.Response) map[string]any {
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if e, ok := out["error"]; ok {
		log.Fatalf("API error (status %d): %v", resp.StatusCode, e)
	}
	return out
}
