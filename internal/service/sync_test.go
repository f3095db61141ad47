package service

// The /v1/sync merge semantics: push-pull exchanges converge two
// replicas' registries and caches, imports are verified (a forged hash
// or torn entry never lands), duplicates and conflicts are counted —
// the service half of the anti-entropy loop (internal/cluster drives
// the other half).

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/rat"
	"repro/internal/solve"
	"repro/internal/store"
	"repro/internal/workflow"
)

// exchangeBothWays emulates one full push-pull gossip round from a to b:
// a POSTs its digest, imports b's answer, and pushes what b wanted —
// exactly the cluster.Gossip exchange, minus the wire.
func exchangeBothWays(a, b *Server) {
	resp := b.SyncExchange(SyncRequest{Digest: a.SyncDigest()})
	for _, si := range resp.Instances {
		a.ImportInstance(si)
	}
	for _, e := range resp.Entries {
		a.ImportEntry(e)
	}
	if len(resp.Want.Hashes) == 0 && len(resp.Want.Keys) == 0 {
		return
	}
	b.SyncExchange(SyncRequest{
		Digest:    a.SyncDigest(),
		Instances: a.ExportInstances(resp.Want.Hashes),
		Entries:   a.ExportEntries(resp.Want.Keys),
	})
}

// sortedDigest normalizes a digest for comparison.
func sortedDigest(d SyncDigest) SyncDigest {
	sort.Strings(d.Hashes)
	sort.Strings(d.Keys)
	return d
}

// TestSyncExchangeConvergesTwoReplicas: each replica solves a different
// instance; after one push-pull round both hold both, and the receiving
// replica's answer for the synced plan is a warm hit, bit-identical to
// the solver's.
func TestSyncExchangeConvergesTwoReplicas(t *testing.T) {
	a := newTestServer(t, Config{Workers: 2})
	b := newTestServer(t, Config{Workers: 2})

	reqA := Request{App: gen.App(gen.NewRand(1), 4, gen.Mixed), Model: plan.Overlap, Objective: solve.PeriodObjective}
	reqB := Request{App: gen.App(gen.NewRand(2), 5, gen.Filtering), Model: plan.InOrder, Objective: solve.LatencyObjective}
	respA, err := a.Plan(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Plan(reqB); err != nil {
		t.Fatal(err)
	}

	exchangeBothWays(a, b)

	da, db := sortedDigest(a.SyncDigest()), sortedDigest(b.SyncDigest())
	aj, _ := json.Marshal(da)
	bj, _ := json.Marshal(db)
	if string(aj) != string(bj) {
		t.Fatalf("digests disagree after one round:\n%s\nvs\n%s", aj, bj)
	}
	if len(da.Hashes) != 2 || len(da.Keys) != 2 {
		t.Fatalf("converged digest %s, want 2 hashes / 2 keys", aj)
	}

	// B answers A's instance warm — the synced entry, not a re-solve.
	got, err := b.Plan(reqA)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != plancache.Hit {
		t.Errorf("synced plan served with outcome %s, want hit", got.Outcome)
	}
	if got := fingerprint(t, got.Solution); got != fingerprint(t, respA.Solution) {
		t.Error("synced answer differs from the origin replica's")
	}

	for name, srv := range map[string]*Server{"a": a, "b": b} {
		for _, kind := range []string{"instances", "entries"} {
			if n := metric(t, srv, `filterd_sync_accepted_total{kind="`+kind+`"}`); n != 1 {
				t.Errorf("%s accepted %v %s, want 1", name, n, kind)
			}
		}
		for _, dir := range []string{"in", "out"} {
			if n := metric(t, srv, `filterd_sync_bytes_total{direction="`+dir+`"}`); n == 0 {
				t.Errorf("%s sync bytes %s did not move", name, dir)
			}
		}
	}

	// A second round moves nothing: the exchange is idempotent.
	resp := b.SyncExchange(SyncRequest{Digest: a.SyncDigest()})
	if len(resp.Instances) != 0 || len(resp.Entries) != 0 ||
		len(resp.Want.Hashes) != 0 || len(resp.Want.Keys) != 0 {
		t.Errorf("second round still had traffic: %+v", resp)
	}
}

// TestSyncPropagatesDriftState: a PATCH on one replica (new instance, new
// plan under the new hash) reaches the co-owner in one round — the
// property that makes drift survive the PATCHed owner's loss.
func TestSyncPropagatesDriftState(t *testing.T) {
	a := newTestServer(t, Config{Workers: 2})
	b := newTestServer(t, Config{Workers: 2})

	req := Request{App: gen.App(gen.NewRand(3), 4, gen.Mixed), Model: plan.Overlap, Objective: solve.PeriodObjective}
	planned, err := a.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Plan(req); err != nil {
		t.Fatal(err)
	}
	exchangeBothWays(a, b)

	cost := rat.New(99, 1)
	drift, err := a.Drift(planned.Hash, []Update{{Service: planned.Instance.App().Name(0), Cost: &cost}}, req)
	if err != nil {
		t.Fatal(err)
	}
	if drift.NewHash == planned.Hash {
		t.Fatal("drift did not move the hash")
	}

	exchangeBothWays(a, b)

	// B now knows the drifted instance: a PATCH against the NEW hash on B
	// succeeds without B ever having seen the original PATCH.
	if _, err := b.Drift(drift.NewHash, []Update{{Service: planned.Instance.App().Name(0), Cost: &cost}}, req); err != nil {
		t.Fatalf("co-owner cannot PATCH the synced drift target: %v", err)
	}
}

// TestImportRejectsForgedAndTorn: a hash that does not recompute, an
// unparseable instance, and a torn entry are rejected and counted —
// never merged.
func TestImportRejectsForgedAndTorn(t *testing.T) {
	a := newTestServer(t, Config{Workers: 2})
	b := newTestServer(t, Config{Workers: 2})
	req := Request{App: gen.App(gen.NewRand(4), 4, gen.Mixed), Model: plan.Overlap, Objective: solve.PeriodObjective}
	planned, err := a.Plan(req)
	if err != nil {
		t.Fatal(err)
	}

	exported := a.ExportInstances([]string{planned.Hash})
	if len(exported) != 1 {
		t.Fatalf("exported %d instances", len(exported))
	}
	forged := exported[0]
	forged.Hash = "0000000000000000000000000000000000000000000000000000000000000000"
	if err := b.ImportInstance(forged); err == nil {
		t.Error("forged instance hash imported")
	}
	if err := b.ImportInstance(SyncInstance{Hash: "x", Instance: []byte(`{"not":`)}); err == nil {
		t.Error("unparseable instance imported")
	}

	entries := a.ExportEntries([]string{planned.Key})
	if len(entries) != 1 {
		t.Fatalf("exported %d entries", len(entries))
	}
	torn := entries[0][:len(entries[0])/2]
	if err := b.ImportEntry(torn); err == nil {
		t.Error("torn entry imported")
	}

	for series, want := range map[string]float64{
		"filterd_sync_rejected_total":                   3,
		`filterd_sync_accepted_total{kind="instances"}`: 0,
		`filterd_sync_accepted_total{kind="entries"}`:   0,
	} {
		if got := metric(t, b, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if d := b.SyncDigest(); len(d.Hashes) != 0 || len(d.Keys) != 0 {
		t.Errorf("rejected imports left state behind: %+v", d)
	}
}

// TestImportCountsDuplicatesAndConflicts: re-importing held state is a
// duplicate; an entry whose solution value disagrees with the local one
// for the same key is a conflict and keeps the local entry.
func TestImportCountsDuplicatesAndConflicts(t *testing.T) {
	a := newTestServer(t, Config{Workers: 2})
	b := newTestServer(t, Config{Workers: 2})
	req := Request{App: gen.App(gen.NewRand(5), 4, gen.Mixed), Model: plan.Overlap, Objective: solve.PeriodObjective}
	planned, err := a.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Plan(req); err != nil {
		t.Fatal(err)
	}

	entries := a.ExportEntries([]string{planned.Key})
	if err := b.ImportEntry(entries[0]); err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if dup, conf := metric(t, b, "filterd_sync_duplicates_total"), metric(t, b, "filterd_sync_conflicts_total"); dup != 1 || conf != 0 {
		t.Fatalf("after duplicate: %v duplicates, %v conflicts", dup, conf)
	}

	// A conflicting entry: same key, tampered objective value. Decode
	// verifies the instance hash, not the solution, so the import reaches
	// the conflict check — which must keep the local entry.
	var doc map[string]any
	if err := json.Unmarshal(entries[0], &doc); err != nil {
		t.Fatal(err)
	}
	doc["value"] = "1000000"
	tampered, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ImportEntry(tampered); err == nil {
		t.Error("conflicting entry imported silently")
	}
	if n := metric(t, b, "filterd_sync_conflicts_total"); n != 1 {
		t.Errorf("after conflict: %v conflicts", n)
	}
	got, err := b.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != plancache.Hit || !got.Solution.Value.Equal(planned.Solution.Value) {
		t.Errorf("local entry lost to the conflicting import: %s/%s", got.Outcome, got.Solution.Value)
	}
}

// FuzzSyncImport fuzzes the /v1/sync import boundary (ImportInstance when
// entry is false, ImportEntry otherwise). Properties: an import never
// panics; a rejected item moves only the rejected counter (and the
// received-bytes counter, which counts every entry on the wire) and
// leaves registry and cache as they were; an accepted instance
// re-canonicalises to its claimed hash and is registered under it.
func FuzzSyncImport(f *testing.F) {
	src := New(Config{Workers: 1})
	f.Cleanup(src.Close)
	planned, err := src.Plan(Request{App: gen.App(gen.NewRand(6), 5, gen.Mixed), Model: plan.Overlap, Objective: solve.PeriodObjective})
	if err != nil {
		f.Fatal(err)
	}
	inst := src.ExportInstances([]string{planned.Hash})[0]
	entry := src.ExportEntries([]string{planned.Key})[0]
	var doc map[string]any
	if err := json.Unmarshal(entry, &doc); err != nil {
		f.Fatal(err)
	}
	doc["hash"] = strings.Repeat("0", 64)
	mismatched, err := json.Marshal(doc)
	if err != nil {
		f.Fatal(err)
	}
	// The rejected copies come first: on a replica that does not hold the
	// item yet, a rejection that leaked state would show in the digest.
	f.Add(false, inst.Hash, []byte(inst.Instance[:len(inst.Instance)/2]))
	f.Add(false, strings.Repeat("0", 64), []byte(inst.Instance))
	f.Add(false, inst.Hash, []byte(inst.Instance))
	f.Add(true, "", []byte(entry[:len(entry)/2]))
	f.Add(true, "", mismatched)
	f.Add(true, "", []byte(entry))

	// One receiving replica per fuzz process, already holding a plan of
	// its own, so duplicates and conflicts are reachable too.
	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	if _, err := s.Plan(Request{App: gen.App(gen.NewRand(7), 4, gen.Filtering), Model: plan.InOrder, Objective: solve.PeriodObjective}); err != nil {
		f.Fatal(err)
	}
	// state is what a rejected import must leave alone: the whole scrape
	// but the rejected and received-bytes series, plus both digests.
	const rejectedSeries, bytesInSeries = "filterd_sync_rejected_total", `filterd_sync_bytes_total{direction="in"}`
	state := func(t testing.TB) (map[string]float64, SyncDigest) {
		scrape := samples(t, s)
		for _, series := range []string{rejectedSeries, bytesInSeries} {
			if _, ok := scrape[series]; !ok {
				t.Fatalf("no series %s in the registry", series)
			}
		}
		return scrape, s.SyncDigest()
	}

	f.Fuzz(func(t *testing.T, isEntry bool, hash string, data []byte) {
		before, digest := state(t)
		var err error
		if isEntry {
			err = s.ImportEntry(data)
		} else {
			err = s.ImportInstance(SyncInstance{Hash: hash, Instance: data})
		}
		if err != nil && metric(t, s, "filterd_sync_conflicts_total") != before["filterd_sync_conflicts_total"] {
			return // a conflict: counted on its own counter, local entry kept
		}
		if err != nil {
			after, afterDigest := state(t)
			if got, was := after[rejectedSeries], before[rejectedSeries]; got != was+1 {
				t.Fatalf("rejected import moved the rejected counter %v -> %v", was, got)
			}
			for _, series := range []string{rejectedSeries, bytesInSeries} {
				delete(before, series)
				delete(after, series)
			}
			if !reflect.DeepEqual(before, after) || !reflect.DeepEqual(digest, afterDigest) {
				t.Fatalf("rejected import (%v) changed state:\n%v %+v\nvs\n%v %+v", err, before, digest, after, afterDigest)
			}
			return
		}
		if isEntry {
			return
		}
		app := new(workflow.App)
		if err := json.Unmarshal(data, app); err != nil {
			t.Fatalf("accepted instance does not decode: %v", err)
		}
		ci, err := canon.Canonicalize(app)
		if err != nil {
			t.Fatalf("accepted instance does not canonicalise: %v", err)
		}
		if hash != "" && ci.Hash() != hash {
			t.Fatalf("accepted instance claimed %s, re-canonicalises to %s", hash, ci.Hash())
		}
		if _, ok := s.registry.Peek(ci.Hash()); !ok {
			t.Fatalf("accepted instance %s not registered", ci.Hash())
		}
	})
}

// TestSyncExportLeavesRegistryRecency: exporting an instance on a peer's
// behalf must not refresh it in the local drift registry. The registry is
// full and the peer wants only the least recently used hash; once one more
// instance registers, that hash is still the one evicted.
func TestSyncExportLeavesRegistryRecency(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	register := func(seed int64) string {
		inst, err := canon.Canonicalize(gen.App(gen.NewRand(seed), 4, gen.Mixed))
		if err != nil {
			t.Fatal(err)
		}
		s.Register(inst)
		return inst.Hash()
	}
	var hashes []string
	for i := 0; i < registrySize; i++ {
		hashes = append(hashes, register(int64(100+i)))
	}
	if n := metric(t, s, "filterd_registered_instances"); n != registrySize {
		t.Fatalf("registered %v distinct instances, want %d", n, registrySize)
	}
	resp := s.SyncExchange(SyncRequest{Digest: SyncDigest{Hashes: hashes[1:]}})
	if len(resp.Instances) != 1 || resp.Instances[0].Hash != hashes[0] {
		t.Fatalf("exported %d instances, want only the oldest", len(resp.Instances))
	}
	register(int64(100 + registrySize))
	if _, ok := s.registry.Peek(hashes[0]); ok {
		t.Error("the exported oldest instance survived: the export refreshed its recency")
	}
	if _, ok := s.registry.Peek(hashes[1]); !ok {
		t.Error("a locally newer instance was evicted in place of the exported oldest one")
	}
}

// FuzzSyncRequest sends fuzzed bodies to POST /v1/sync on a replica that
// holds one plan. Properties: no body gets a 5xx; a non-200 leaves the
// sync digest as it was; a 200 accounts for every pushed item (accepted
// instances + accepted entries + rejected = items pushed), accepts exactly
// the instances that re-canonicalise to their claimed hash and the entries
// that decode without conflicting, holds every accepted hash and key in
// the post-exchange digest, and answers lists within syncMaxInstances and
// syncMaxEntries. Bodies pushing more than 8 items are skipped.
func FuzzSyncRequest(f *testing.F) {
	src := New(Config{Workers: 1})
	f.Cleanup(src.Close)
	held, err := src.Plan(Request{App: gen.App(gen.NewRand(7), 4, gen.Filtering), Model: plan.InOrder, Objective: solve.PeriodObjective})
	if err != nil {
		f.Fatal(err)
	}
	pushed, err := src.Plan(Request{App: gen.App(gen.NewRand(6), 5, gen.Mixed), Model: plan.Overlap, Objective: solve.PeriodObjective})
	if err != nil {
		f.Fatal(err)
	}
	heldEntry := src.ExportEntries([]string{held.Key})[0]
	inst := src.ExportInstances([]string{pushed.Hash})[0]
	entry := src.ExportEntries([]string{pushed.Key})[0]
	// Torn items travel as JSON strings: the body must stay one JSON value.
	torn, err := json.Marshal(string(entry[:len(entry)/2]))
	if err != nil {
		f.Fatal(err)
	}
	items, err := json.Marshal(SyncRequest{
		Digest:    SyncDigest{Hashes: []string{pushed.Hash}, Keys: []string{pushed.Key, "nope"}},
		Instances: []SyncInstance{inst, {Hash: strings.Repeat("0", 64), Instance: inst.Instance}, {Instance: torn}},
		Entries:   []json.RawMessage{entry, heldEntry, torn},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(items))
	f.Add(`{"digest": {"hashes": [], "keys": []}}`)
	f.Add(`{"digest": {"hashes": ["x"]}, "instances": [{"hash": "", "instance": {"services": []}}]}`)
	f.Add(`{"instances": [5], "entries": [null]}`)
	f.Add(`{"digest": 1}`)
	f.Add(`{`)

	f.Fuzz(func(t *testing.T, body string) {
		// The handler's framing: the first JSON value, trailing bytes
		// ignored.
		var doc SyncRequest
		json.NewDecoder(strings.NewReader(body)).Decode(&doc)
		if len(doc.Instances)+len(doc.Entries) > 8 {
			t.Skip()
		}
		// A fresh replica per body, holding one plan, so duplicates and
		// conflicts are reachable and no body sees another's imports.
		s := New(Config{Workers: 1})
		defer s.Close()
		if err := s.ImportEntry(heldEntry); err != nil {
			t.Fatal(err)
		}
		before := s.SyncDigest()
		rec := httptest.NewRecorder()
		Handler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sync", strings.NewReader(body)))
		after := s.SyncDigest()
		if rec.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("body %q: status %d changed the digest:\n%+v\nvs\n%+v", body, rec.Code, before, after)
			}
			return
		}
		var resp SyncResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: 200 answer does not decode: %v", body, err)
		}
		if got, want := resp.AcceptedInstances+resp.AcceptedEntries+resp.Rejected, len(doc.Instances)+len(doc.Entries); got != want {
			t.Fatalf("body %q: %d accepted instances + %d accepted entries + %d rejected != %d pushed",
				body, resp.AcceptedInstances, resp.AcceptedEntries, resp.Rejected, want)
		}
		if len(resp.Instances) > syncMaxInstances || len(resp.Want.Hashes) > syncMaxInstances ||
			len(resp.Entries) > syncMaxEntries || len(resp.Want.Keys) > syncMaxEntries {
			t.Fatalf("body %q: answer lists exceed the caps: %d/%d instances, %d/%d entries",
				body, len(resp.Instances), len(resp.Want.Hashes), len(resp.Entries), len(resp.Want.Keys))
		}
		hashes, keys := map[string]bool{}, map[string]bool{}
		for _, h := range after.Hashes {
			hashes[h] = true
		}
		for _, k := range after.Keys {
			keys[k] = true
		}
		accepted := 0
		for _, si := range doc.Instances {
			app := new(workflow.App)
			if json.Unmarshal(si.Instance, app) != nil {
				continue
			}
			ci, err := canon.Canonicalize(app)
			if err != nil || (si.Hash != "" && si.Hash != ci.Hash()) {
				continue
			}
			accepted++
			if !hashes[ci.Hash()] {
				t.Fatalf("body %q: accepted instance %s not in the digest", body, ci.Hash())
			}
		}
		if accepted != resp.AcceptedInstances {
			t.Fatalf("body %q: %d instances accepted, want %d", body, resp.AcceptedInstances, accepted)
		}
		heldValue, err := store.Decode(heldEntry)
		if err != nil {
			t.Fatal(err)
		}
		values := map[string]rat.Rat{heldValue.Key: heldValue.Solution.Value}
		accepted = 0
		for _, data := range doc.Entries {
			e, err := store.Decode(data)
			if err != nil {
				continue
			}
			if v, ok := values[e.Key]; ok && !v.Equal(e.Solution.Value) {
				continue // a conflict: the local entry is kept
			} else if !ok {
				values[e.Key] = e.Solution.Value
			}
			accepted++
			if !keys[e.Key] {
				t.Fatalf("body %q: accepted entry %s not in the digest", body, e.Key)
			}
		}
		if accepted != resp.AcceptedEntries {
			t.Fatalf("body %q: %d entries accepted, want %d", body, resp.AcceptedEntries, accepted)
		}
	})
}
