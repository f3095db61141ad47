package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// replica is one in-process filterd: the service plus its HTTP listener.
type replica struct {
	srv     *service.Server
	ts      *httptest.Server
	metrics *metrics.Registry
}

func newReplica(t *testing.T) *replica {
	t.Helper()
	reg := metrics.New()
	s := service.New(service.Config{Workers: 2, Metrics: reg})
	ts := httptest.NewServer(service.Handler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return &replica{srv: s, ts: ts, metrics: reg}
}

// newCluster boots n replicas and a router (with its own local failover
// service) in front of them.
func newCluster(t *testing.T, n int) (*Router, *httptest.Server, []*replica) {
	t.Helper()
	replicas := make([]*replica, n)
	peers := make([]string, n)
	for i := range replicas {
		replicas[i] = newReplica(t)
		peers[i] = replicas[i].ts.URL
	}
	local := service.New(service.Config{Workers: 2})
	t.Cleanup(local.Close)
	rt, err := New(Config{Peers: peers, Local: local, HealthInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	gw := httptest.NewServer(rt)
	t.Cleanup(gw.Close)
	return rt, gw, replicas
}

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// post POSTs raw JSON and returns the response (caller closes the body).
func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// planWire is the slice of the service's plan response the tests compare.
type planWire struct {
	Hash     string          `json:"hash"`
	Outcome  string          `json:"outcome"`
	Value    rat.Rat         `json:"value"`
	Schedule json.RawMessage `json:"schedule"`
}

// TestRoutedBitIdenticalToDirectSolve is acceptance criterion (b): a
// 2-replica sharded cluster behind the router returns responses
// bit-identical to direct solve.MinPeriod calls on the canonical instance
// — and byte-identical to a standalone single replica's answers.
func TestRoutedBitIdenticalToDirectSolve(t *testing.T) {
	_, gw, _ := newCluster(t, 2)
	standalone := newReplica(t)

	for _, name := range []string{"mixed6.json", "webquery8.json", "expanding12.json"} {
		instance := readTestdata(t, name)
		body := fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance)

		resp := post(t, gw.URL+"/v1/plan", body)
		routedBytes, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: routed status %d (%v)", name, resp.StatusCode, err)
		}
		if by := resp.Header.Get("X-Filterd-Served-By"); !strings.HasPrefix(by, "http") {
			t.Errorf("%s: served by %q, want a peer", name, by)
		}
		var routed planWire
		if err := json.Unmarshal(routedBytes, &routed); err != nil {
			t.Fatal(err)
		}

		// Reference 1: the direct solver call on the canonical instance.
		app := new(workflow.App)
		if err := app.UnmarshalJSON(instance); err != nil {
			t.Fatal(err)
		}
		inst, err := canon.Canonicalize(app)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := solve.MinPeriod(inst.App(), plan.Overlap, solve.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if routed.Hash != inst.Hash() || !routed.Value.Equal(direct.Value) {
			t.Errorf("%s: routed hash/value %s/%s vs direct %s/%s",
				name, routed.Hash, routed.Value, inst.Hash(), direct.Value)
		}
		directSched, err := json.Marshal(direct.Sched.List)
		if err != nil {
			t.Fatal(err)
		}
		var a, b any
		if err := json.Unmarshal(routed.Schedule, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(directSched, &b); err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("%s: routed schedule differs from the direct solve", name)
		}

		// Reference 2: byte identity against a standalone replica.
		resp2 := post(t, standalone.ts.URL+"/v1/plan", body)
		soloBytes, err := io.ReadAll(resp2.Body)
		resp2.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(routedBytes) != string(soloBytes) {
			t.Errorf("%s: routed response bytes differ from a standalone replica", name)
		}
	}
}

// TestShardingIsDeterministicAndCovering: one hash always routes to the
// same owner, and with enough distinct instances both replicas own some.
func TestShardingIsDeterministicAndCovering(t *testing.T) {
	local := service.New(service.Config{Workers: 1})
	defer local.Close()
	rt, err := New(Config{Peers: []string{"http://a", "http://b"}, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	owners := map[string]bool{}
	for i := 0; i < 64; i++ {
		hash := fmt.Sprintf("%08x%056d", i*0x1234567, 0)
		s1, err := rt.shardOf(hash)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := rt.shardOf(hash)
		if s1 != s2 {
			t.Fatalf("hash %s: shard %d then %d", hash, s1, s2)
		}
		owners[rt.ownersOf(s1)[0].url] = true
	}
	if len(owners) != 2 {
		t.Errorf("64 spread hashes landed on %d of 2 peers", len(owners))
	}
	if _, err := rt.shardOf("zz"); err == nil {
		t.Error("malformed hash produced a shard")
	}
}

// TestFailoverToLocalSolve walks the full failover ladder with the
// default R=2: killing the preferred owner moves the read to the
// co-owner, killing that too lands it on the router's local service —
// every answer bit-identical to the first.
func TestFailoverToLocalSolve(t *testing.T) {
	rt, gw, replicas := newCluster(t, 2)
	instance := readTestdata(t, "mixed6.json")
	body := fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance)

	resp := post(t, gw.URL+"/v1/plan", body)
	firstBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	owner := resp.Header.Get("X-Filterd-Shard-Owner")
	if owner == "" {
		t.Fatal("no owner header")
	}
	var first planWire
	if err := json.Unmarshal(firstBytes, &first); err != nil {
		t.Fatal(err)
	}

	// sameAnswer requires a later response to carry the first one's hash,
	// value, and schedule, whatever served it.
	sameAnswer := func(stage string, raw []byte) {
		t.Helper()
		var got planWire
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Hash != first.Hash || !got.Value.Equal(first.Value) {
			t.Errorf("%s answer %s/%s differs from the owner's %s/%s",
				stage, got.Hash, got.Value, first.Hash, first.Value)
		}
		var a, b any
		json.Unmarshal(first.Schedule, &a)
		json.Unmarshal(got.Schedule, &b)
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("%s schedule differs from the owner's", stage)
		}
	}

	// Kill the preferred owner mid-run: the read must fail over to the
	// co-owner (a live replica, R=2), not to the local service yet.
	for _, rep := range replicas {
		if rep.ts.URL == owner {
			rep.ts.CloseClientConnections()
			rep.ts.Close()
		}
	}
	resp2 := post(t, gw.URL+"/v1/plan", body)
	secondBytes, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replica failover status %d", resp2.StatusCode)
	}
	by := resp2.Header.Get("X-Filterd-Served-By")
	if !strings.HasPrefix(by, "http") || by == owner {
		t.Fatalf("served by %q, want the surviving co-owner", by)
	}
	sameAnswer("replica failover", secondBytes)
	if family(t, rt.metrics, "filterd_router_replica_failovers_total") == 0 {
		t.Error("no replica failover counted")
	}

	// Kill the co-owner too: only the local service is left.
	for _, rep := range replicas {
		rep.ts.CloseClientConnections()
		rep.ts.Close()
	}
	resp3 := post(t, gw.URL+"/v1/plan", body)
	thirdBytes, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("local failover status %d", resp3.StatusCode)
	}
	if by := resp3.Header.Get("X-Filterd-Served-By"); by != "local-failover" {
		t.Fatalf("served by %q, want local-failover", by)
	}
	sameAnswer("local failover", thirdBytes)
	if st := rt.Stats(); st.Failovers == 0 {
		t.Errorf("no local failover counted: %+v", st)
	}
}

// TestPatchAfterFailoverFindsInstance is the regression test for the
// failover 404 window: a plan forwarded to a healthy owner must register
// its instance in the router's LOCAL drift registry too, so that a PATCH
// arriving after the owner dies fails over to the embedded service and
// finds its target — instead of 404ing until the owner returns.
func TestPatchAfterFailoverFindsInstance(t *testing.T) {
	_, gw, replicas := newCluster(t, 2)
	instance := readTestdata(t, "mixed6.json")

	resp := post(t, gw.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance))
	owner := resp.Header.Get("X-Filterd-Shard-Owner")
	var planned struct {
		Hash  string  `json:"hash"`
		Value rat.Rat `json:"value"`
		Graph struct {
			Services []string `json:"services"`
		} `json:"graph"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&planned); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if by := resp.Header.Get("X-Filterd-Served-By"); !strings.HasPrefix(by, "http") {
		t.Fatalf("plan served by %q, want the owner — the test needs the healthy-forward path", by)
	}

	// Kill the owner: the PATCH below has nowhere to go but the local
	// failover service, which never solved (or saw) this instance.
	for _, rep := range replicas {
		if rep.ts.URL == owner {
			rep.ts.CloseClientConnections()
			rep.ts.Close()
		}
	}

	patch, err := http.NewRequest(http.MethodPatch, gw.URL+"/v1/instance/"+planned.Hash,
		strings.NewReader(fmt.Sprintf(`{"model": "overlap", "objective": "period",
		  "updates": [{"service": %q, "cost": "99"}]}`, planned.Graph.Services[0])))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(patch)
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(presp.Body)
		t.Fatalf("patch after failover: status %d, body %s — the 404 window is back", presp.StatusCode, body)
	}
	if by := presp.Header.Get("X-Filterd-Served-By"); by != "local-failover" {
		t.Fatalf("patch served by %q, want local-failover", by)
	}
	var drift struct {
		OldValue rat.Rat `json:"old_value"`
		NewValue rat.Rat `json:"new_value"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&drift); err != nil {
		t.Fatal(err)
	}
	// Determinism across the failover: the local re-solve of the OLD
	// instance reproduces the owner's objective exactly.
	if !drift.OldValue.Equal(planned.Value) {
		t.Errorf("failover drift old value %s != planned value %s", drift.OldValue, planned.Value)
	}
	if drift.NewValue.Equal(drift.OldValue) {
		t.Errorf("drift to cost 99 did not move the objective (%s)", drift.OldValue)
	}
}

// TestBatchSpansShards: a batch's items route to their owners and
// reassemble in order, bad items failing alone.
func TestBatchSpansShards(t *testing.T) {
	_, gw, replicas := newCluster(t, 2)
	a := readTestdata(t, "mixed6.json")
	b := readTestdata(t, "webquery8.json")
	body := fmt.Sprintf(`{"requests": [
	  {"instance": %s, "model": "overlap"},
	  {"instance": %s, "model": "overlap"},
	  {"instance": {"services": []}},
	  {"instance": %s, "model": "overlap"}]}`, a, b, a)

	resp := post(t, gw.URL+"/v1/batch", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Results []struct {
			Error string    `json:"error"`
			Plan  *planWire `json:"plan"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("%d results", len(out.Results))
	}
	if out.Results[0].Plan == nil || out.Results[1].Plan == nil || out.Results[3].Plan == nil {
		t.Fatalf("good items failed: %+v", out.Results)
	}
	if out.Results[2].Error == "" || out.Results[2].Plan != nil {
		t.Error("empty-instance item succeeded")
	}
	if !out.Results[0].Plan.Value.Equal(out.Results[3].Plan.Value) {
		t.Error("duplicate items disagree")
	}
	// Items of one canonical instance land on one replica: the duplicate
	// coalesced or hit there, so the cluster-wide solve count for that
	// hash is 1.
	solves := int64(0)
	for _, rep := range replicas {
		solves += rep.srv.Stats().Solves
	}
	if solves != 2 {
		t.Errorf("cluster ran %d solves for 2 distinct instances", solves)
	}
}

// TestSubscribeProxiesThroughRouter: subscribe and PATCH against the
// router; the SSE event streams back through the proxy from the owning
// replica.
func TestSubscribeProxiesThroughRouter(t *testing.T) {
	_, gw, _ := newCluster(t, 2)
	instance := readTestdata(t, "mixed6.json")

	resp := post(t, gw.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, instance))
	var planned struct {
		Hash  string `json:"hash"`
		Graph struct {
			Services []string `json:"services"`
		} `json:"graph"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&planned); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sub, err := http.Get(gw.URL + "/v1/subscribe/" + planned.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if sub.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", sub.StatusCode)
	}
	r := bufio.NewReader(sub.Body)
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("stream preamble %q, %v", line, err)
	}

	patch, err := http.NewRequest(http.MethodPatch, gw.URL+"/v1/instance/"+planned.Hash,
		strings.NewReader(fmt.Sprintf(`{"model": "overlap", "objective": "period",
		  "updates": [{"service": %q, "cost": "99"}]}`, planned.Graph.Services[0])))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(patch)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("patch status %d", presp.StatusCode)
	}

	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading event: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			var ev struct {
				Hash string `json:"hash"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Hash != planned.Hash {
				t.Errorf("event hash %s, want %s", ev.Hash, planned.Hash)
			}
			return
		}
	}
}

// TestRouterRoutesWhatTheReplicaAccepts: router and replica share one
// plan-request decoder, so a body the service accepts is routed to its
// owner, whatever follows its first JSON value, and a body the service
// rejects is answered by the local service with the canonical error. (The
// router's own json.Unmarshal used to reject trailing bytes the replica
// tolerates, and served such bodies locally as "unroutable".)
func TestRouterRoutesWhatTheReplicaAccepts(t *testing.T) {
	_, gw, _ := newCluster(t, 2)
	instance := readTestdata(t, "mixed6.json")
	for _, c := range []struct {
		name, body string
		status     int
		routed     bool
	}{
		{"plain", fmt.Sprintf(`{"instance": %s}`, instance), 200, true},
		{"trailing garbage", fmt.Sprintf(`{"instance": %s} trailing }{`, instance), 200, true},
		{"unknown member", fmt.Sprintf(`{"instance": %s, "note": [1, 2]}`, instance), 200, true},
		{"missing instance", `{"model": "overlap"}`, 400, false},
		{"null instance", `{"instance": null}`, 422, false},
		{"duplicate names", `{"instance": {"services": [{"name": "A", "cost": "1", "selectivity": "1"}, {"name": "A", "cost": "1", "selectivity": "1"}]}}`, 400, false},
		{"unknown precedence name", `{"instance": {"services": [{"name": "A", "cost": "1", "selectivity": "1"}], "precedence": [["A", "Z"]]}}`, 400, false},
	} {
		resp := post(t, gw.URL+"/v1/plan", c.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		by := resp.Header.Get("X-Filterd-Served-By")
		if resp.StatusCode != c.status || strings.HasPrefix(by, "http") != c.routed {
			t.Errorf("%s: status %d served by %q, want status %d routed=%v", c.name, resp.StatusCode, by, c.status, c.routed)
		}
	}
}
