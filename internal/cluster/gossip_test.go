package cluster

// The anti-entropy agent's convergence and backoff properties: one
// RunOnce converges two replicas' registries and caches (including
// PATCHed drift state — the acceptance property that a write to one
// surviving owner is visible at every owner after one gossip round),
// and a dead peer costs one breaker-opening failure, then nothing.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
)

// TestGossipConvergesReplicas: two replicas solve different instances;
// one RunOnce from a single agent converges both directions (push-pull),
// and a second round moves nothing.
func TestGossipConvergesReplicas(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	for rep, name := range map[*replica]string{a: "mixed6.json", b: "webquery8.json"} {
		resp := post(t, rep.ts.URL+"/v1/plan",
			fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, readTestdata(t, name)))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan status %d", resp.StatusCode)
		}
	}

	g, err := NewGossip(GossipConfig{Peers: []string{b.ts.URL}, Local: a.srv})
	if err != nil {
		t.Fatal(err)
	}
	g.RunOnce(context.Background())

	da, db := a.srv.SyncDigest(), b.srv.SyncDigest()
	if len(da.Hashes) != 2 || len(da.Keys) != 2 {
		t.Fatalf("a digest %+v, want 2 hashes / 2 keys", da)
	}
	if len(db.Hashes) != 2 || len(db.Keys) != 2 {
		t.Fatalf("b digest %+v, want 2 hashes / 2 keys", db)
	}
	if reg := family(t, b.metrics, "filterd_registered_instances"); reg != 2 {
		t.Errorf("b reports %v instances registered, want both", reg)
	}

	wantFamilies(t, families(t, g.cfg.Metrics), map[string]float64{
		"filterd_gossip_rounds_total":    1,
		"filterd_gossip_exchanges_total": 1,
		"filterd_gossip_failures_total":  0,
	})
	if g.Stats().Imported == 0 || family(t, g.cfg.Metrics, "filterd_gossip_pushed_total") == 0 {
		t.Error("push-pull moved nothing")
	}

	// Converged replicas exchange empty rounds.
	before := family(t, b.metrics, "filterd_sync_accepted_total")
	g.RunOnce(context.Background())
	if after := family(t, b.metrics, "filterd_sync_accepted_total"); after != before {
		t.Errorf("second round imported again: %v items accepted, then %v", before, after)
	}
}

// TestGossipSpreadsPatchedDrift pins the acceptance property: a PATCH
// applied at one owner is visible at the co-owner after one gossip round
// — the new instance is PATCHable there without it ever seeing the
// original write.
func TestGossipSpreadsPatchedDrift(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	instance := readTestdata(t, "mixed6.json")
	resp := post(t, a.ts.URL+"/v1/plan",
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

	g, err := NewGossip(GossipConfig{Peers: []string{b.ts.URL}, Local: a.srv})
	if err != nil {
		t.Fatal(err)
	}
	g.RunOnce(context.Background())

	// PATCH at a (the "surviving owner" in the failure story).
	patchBody := fmt.Sprintf(`{"model": "overlap", "objective": "period",
	  "updates": [{"service": %q, "cost": "99"}]}`, planned.Graph.Services[0])
	preq, _ := http.NewRequest(http.MethodPatch, a.ts.URL+"/v1/instance/"+planned.Hash, strings.NewReader(patchBody))
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	var drift struct {
		NewHash string `json:"new_hash"`
	}
	if err := json.NewDecoder(presp.Body).Decode(&drift); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK || drift.NewHash == "" {
		t.Fatalf("patch status %d, new hash %q", presp.StatusCode, drift.NewHash)
	}

	// One round later the co-owner holds the drifted instance AND its
	// re-planned entry.
	g.RunOnce(context.Background())
	found := false
	for _, h := range b.srv.SyncDigest().Hashes {
		if h == drift.NewHash {
			found = true
		}
	}
	if !found {
		t.Fatal("drifted instance did not reach the co-owner in one round")
	}
	preq2, _ := http.NewRequest(http.MethodPatch, b.ts.URL+"/v1/instance/"+drift.NewHash, strings.NewReader(patchBody))
	presp2, err := http.DefaultClient.Do(preq2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp2.Body)
	presp2.Body.Close()
	if presp2.StatusCode != http.StatusOK {
		t.Fatalf("co-owner PATCH on synced drift target: status %d", presp2.StatusCode)
	}
}

// TestGossipBreakerBacksOffDeadPeer: a dead peer fails
// resilience.Threshold exchanges, opens its breaker, and subsequent rounds
// skip it entirely until the cooldown; the agent never errors out.
func TestGossipBreakerBacksOffDeadPeer(t *testing.T) {
	a := newReplica(t)
	dead := newReplica(t)
	deadURL := dead.ts.URL
	dead.ts.Close()

	g, err := NewGossip(GossipConfig{
		Peers:           []string{deadURL},
		Local:           a.srv,
		BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < resilience.Threshold+2; i++ {
		g.RunOnce(context.Background())
	}

	// Threshold failures before the breaker opens, then two
	// breaker-rejected rounds.
	wantFamilies(t, families(t, g.cfg.Metrics), map[string]float64{
		"filterd_gossip_failures_total": resilience.Threshold,
		"filterd_gossip_skipped_total":  2,
		"filterd_gossip_rounds_total":   resilience.Threshold + 2,
	})
}

// TestGossipStartLoopConverges: the background loop (immediate first
// round) converges without manual driving, and Close stops it.
func TestGossipStartLoopConverges(t *testing.T) {
	a, b := newReplica(t), newReplica(t)
	resp := post(t, a.ts.URL+"/v1/plan",
		fmt.Sprintf(`{"instance": %s, "model": "overlap", "objective": "period"}`, readTestdata(t, "mixed6.json")))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	g, err := NewGossip(GossipConfig{Peers: []string{b.ts.URL}, Local: a.srv, Interval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	defer g.Close()

	deadline := time.Now().Add(5 * time.Second)
	for len(b.srv.SyncDigest().Hashes) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never converged the peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
