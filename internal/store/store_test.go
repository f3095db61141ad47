package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/plan"
	"repro/internal/solve"
	"repro/internal/workflow"
)

func solvedEntry(t testing.TB, name string) Entry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	app := new(workflow.App)
	if err := app.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	inst, err := canon.Canonicalize(app)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solve.MinPeriod(inst.App(), plan.InOrder, solve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return Entry{Key: inst.Hash() + "|inorder|period", Instance: inst, Solution: sol}
}

// TestPutLoadRoundTripsBitIdentical: an entry written and loaded back
// reproduces the key, hash, objective metadata, graph edges and the exact
// oplist serialization of the original solution.
func TestPutLoadRoundTripsBitIdentical(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := solvedEntry(t, "webquery8.json")
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}

	var got []Entry
	if err := s.Load(func(e Entry) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("loaded %d entries, want 1", len(got))
	}
	e := got[0]
	if e.Key != want.Key || e.Instance.Hash() != want.Instance.Hash() {
		t.Errorf("key/hash: got %q/%s", e.Key, e.Instance.Hash())
	}
	if !e.Solution.Value.Equal(want.Solution.Value) || e.Solution.Exact != want.Solution.Exact {
		t.Errorf("objective: got %s/%v, want %s/%v",
			e.Solution.Value, e.Solution.Exact, want.Solution.Value, want.Solution.Exact)
	}
	if !reflect.DeepEqual(e.Solution.Graph.Graph().Edges(), want.Solution.Graph.Graph().Edges()) {
		t.Error("graph edges differ after the round trip")
	}
	if !e.Solution.Sched.Value.Equal(want.Solution.Sched.Value) ||
		!e.Solution.Sched.LowerBound.Equal(want.Solution.Sched.LowerBound) ||
		e.Solution.Sched.Exact != want.Solution.Sched.Exact ||
		!reflect.DeepEqual(e.Solution.Sched.Bottleneck, want.Solution.Sched.Bottleneck) {
		t.Error("orchestration metadata differs after the round trip")
	}
	wantSched, err := json.Marshal(want.Solution.Sched.List)
	if err != nil {
		t.Fatal(err)
	}
	gotSched, err := json.Marshal(e.Solution.Sched.List)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotSched) != string(wantSched) {
		t.Error("schedule serialization differs after the round trip")
	}
	if st := s.Stats(); st.Writes != 1 || st.Loaded != 1 || st.Skipped != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestPutReplacesSameKey: write-through updates replace, never duplicate.
func TestPutReplacesSameKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := solvedEntry(t, "mixed6.json")
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if names, err := s.entryNames(); err != nil || len(names) != 1 {
		t.Fatalf("entries on disk = %v, %v; want 1", names, err)
	}
}

// TestLoadSkipsForeignAndCorruptFiles: wrong-version entries, torn JSON,
// temp files and hash-mismatched entries are counted skipped, not served.
func TestLoadSkipsForeignAndCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := solvedEntry(t, "mixed6.json")
	if err := s.Put(good); err != nil {
		t.Fatal(err)
	}

	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("torn"+suffix, `{"version": "filterd-plan-store/v1", "key": "tru`)
	write("wrongver"+suffix, `{"version": "filterd-plan-store/v999", "key": "x"}`)
	write(".tmp-123", `garbage from a crashed write`)
	write("README.txt", `not an entry`)

	// A forged entry whose instance does not hash to its recorded hash.
	forged, err := os.ReadFile(filepath.Join(dir, fileName(good.Key)))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(forged, &doc); err != nil {
		t.Fatal(err)
	}
	doc["hash"] = "0000000000000000000000000000000000000000000000000000000000000000"
	forgedData, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	write("forged"+suffix, string(forgedData))

	var keys []string
	if err := s.Load(func(e Entry) { keys = append(keys, e.Key) }); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != good.Key {
		t.Fatalf("loaded keys %v, want only the good entry", keys)
	}
	if st := s.Stats(); st.Loaded != 1 || st.Skipped != 3 {
		t.Errorf("stats %+v, want 1 loaded / 3 skipped", st)
	}
}

// TestLoadQuarantinesCorruptEntry: a corrupted entry is renamed aside
// with a ".bad" suffix, counted, and gone from the next load's way —
// while every healthy entry still serves. Wrong-version entries are
// skipped but left in place (they belong to another codec).
func TestLoadQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := solvedEntry(t, "webquery8.json")
	victim := solvedEntry(t, "mixed6.json")
	if err := s.Put(good); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(victim); err != nil {
		t.Fatal(err)
	}

	// Corrupt the victim in place: truncate it mid-document, the shape a
	// torn write or failing disk leaves behind.
	victimPath := filepath.Join(dir, fileName(victim.Key))
	data, err := os.ReadFile(victimPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victimPath, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	// And one wrong-version file, which must NOT be quarantined.
	foreignPath := filepath.Join(dir, "foreign"+suffix)
	if err := os.WriteFile(foreignPath,
		[]byte(`{"version": "filterd-plan-store/v999"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var keys []string
	if err := s.Load(func(e Entry) { keys = append(keys, e.Key) }); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != good.Key {
		t.Fatalf("loaded keys %v, want only the good entry", keys)
	}
	if st := s.Stats(); st.Loaded != 1 || st.Skipped != 2 || st.Quarantined != 1 {
		t.Errorf("stats %+v, want 1 loaded / 2 skipped / 1 quarantined", st)
	}
	if _, err := os.Stat(victimPath); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still at %s (%v)", victimPath, err)
	}
	if _, err := os.Stat(victimPath + ".bad"); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(foreignPath); err != nil {
		t.Errorf("wrong-version file was moved: %v", err)
	}

	// The next load no longer trips over the corpse: the .bad file is
	// not an entry, so nothing is skipped or re-quarantined.
	if err := s.Load(func(Entry) {}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loaded != 1 || st.Skipped != 1 || st.Quarantined != 0 {
		t.Errorf("second load stats %+v, want 1 loaded / 1 skipped (foreign) / 0 quarantined", st)
	}
}

// TestWriteHooksInjectFailures: an installed hook can fail a write (the
// error surfaces, WriteErrors counts) or tear the payload (the torn
// entry lands on disk and the next load quarantines it).
func TestWriteHooksInjectFailures(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := solvedEntry(t, "mixed6.json")

	s.SetHooks(hookFunc(func(name string, data []byte) ([]byte, error) {
		return nil, os.ErrPermission
	}))
	if err := s.Put(e); err == nil {
		t.Fatal("hooked write failure did not surface")
	}
	if st := s.Stats(); st.WriteErrors != 1 {
		t.Errorf("WriteErrors %d, want 1", st.WriteErrors)
	}

	s.SetHooks(hookFunc(func(name string, data []byte) ([]byte, error) {
		return data[:len(data)/2], nil
	}))
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	s.SetHooks(nil)
	if err := s.Load(func(Entry) {}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loaded != 0 || st.Quarantined != 1 {
		t.Errorf("stats after torn write %+v, want 0 loaded / 1 quarantined", st)
	}
}

// hookFunc adapts a function to the Hooks interface.
type hookFunc func(name string, data []byte) ([]byte, error)

func (f hookFunc) BeforeWrite(name string, data []byte) ([]byte, error) { return f(name, data) }

// TestFlushAndOpenValidation: Flush succeeds on a live store; Open rejects
// an empty directory path.
func TestFlushAndOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("Open(\"\") succeeded")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestEntryOfRetiredMethodLoadsWithoutEffort: testdata holds an entry the
// PR 16 build persisted for a default (auto) request on a 4-service
// instance, whose effort record names the method that build resolved auto
// to — "exact-forest", since retired. The plan must load as it was
// written; only the effort record degrades to nil.
func TestEntryOfRetiredMethodLoadsWithoutEffort(t *testing.T) {
	e := loadRetiredEntry(t, "pr16_auto_exact_forest.plan.json", `"method": "exact-forest"`)
	if !strings.HasSuffix(e.Key, "|OVERLAP|period|auto|auto|0|0|0") || e.Solution.Value.String() != "16/5" || !e.Solution.Exact {
		t.Errorf("entry: key %q value %s exact %v", e.Key, e.Solution.Value, e.Solution.Exact)
	}
}

// TestEntryOfRetiredFamilyLoadsWithoutEffort: testdata holds an entry a
// build with the chain branch-and-bound persisted for a "family": "chain"
// request, a family since retired (the chain optimum is the greedy's). The
// plan loads as it was written, under its old key; only the effort record
// degrades to nil.
func TestEntryOfRetiredFamilyLoadsWithoutEffort(t *testing.T) {
	e := loadRetiredEntry(t, "bnb_chain_family.plan.json", `"family": "chain"`)
	if !strings.HasSuffix(e.Key, "|INORDER|period|branch-bound|chain|0|0|0") || e.Solution.Value.String() != "11/4" || !e.Solution.Graph.IsChain() {
		t.Errorf("entry: key %q value %s graph %s", e.Key, e.Solution.Value, e.Solution.Graph)
	}
}

// loadRetiredEntry loads the testdata entry file, which must contain
// marker, through a store of its own, and checks that it loads whole with
// a nil effort record and re-encodes, effort aside, to the stored bytes.
func loadRetiredEntry(t *testing.T, file, marker string) Entry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(marker)) {
		t.Fatalf("fixture no longer contains %s", marker)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "entry"+suffix), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []Entry
	if err := s.Load(func(e Entry) { got = append(got, e) }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); len(got) != 1 || st.Loaded != 1 || st.Skipped != 0 || st.Quarantined != 0 {
		t.Fatalf("loaded %d entries, stats %+v", len(got), st)
	}
	e := got[0]
	if e.Effort != nil {
		t.Errorf("retired effort record decoded to %+v, want nil", e.Effort)
	}
	again, err := Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	if want := data[:bytes.Index(data, []byte(",\n  \"effort\""))]; !bytes.HasPrefix(again, want) {
		t.Error("the loaded plan does not re-encode to the bytes it was loaded from")
	}
	return e
}

// TestEntryWithBoundCountersLoads: testdata holds an entry the build before
// the order search lost its segmented bound and float pre-filter persisted
// for a default (auto) INORDER period request on a 5-service instance with
// precedence. Its effort record carries the four counters of those
// mechanisms (bound_edges_*, filter_*), and memo_hits, the counter of the
// per-solve orchestration memo deleted since: five legacy counters. The
// entry must load, hold the Solution a solve by this build returns, keep
// every other effort counter, and re-encode to the stored bytes minus the
// five dropped counters. The
// record matches this build's own solve except for the search counters:
// the DAG search now walks only transitively reduced graphs, so it expands
// and evaluates no more nodes than the stored record says (580 and 156
// against the stored 673 and 205; the fixture stays as it was written).
func TestEntryWithBoundCountersLoads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "auto_dag_bound_counters.plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	dropped := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if bytes.Contains(line, []byte(`"bound_edges_`)) || bytes.Contains(line, []byte(`"filter_`)) || bytes.Contains(line, []byte(`"memo_hits"`)) {
			dropped++
			continue
		}
		want = append(want, line...)
	}
	if dropped != 5 || !bytes.Contains(data, []byte(`"filter_certified": 65`)) {
		t.Fatal("fixture no longer carries the five legacy counters")
	}
	e, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(e.Key, "|INORDER|period|auto|auto|0|0|0") || e.Effort == nil {
		t.Fatalf("entry: key %q effort %+v", e.Key, e.Effort)
	}
	again, err := Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Errorf("re-encoded entry differs from the stored one minus the legacy counters:\n%s", again)
	}

	var fresh solve.Effort
	sol, err := solve.MinPeriod(e.Instance.App(), plan.InOrder, solve.Options{Workers: 1, Effort: &fresh})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Encode(Entry{Key: e.Key, Instance: e.Instance, Solution: sol, Effort: e.Effort}); err != nil || !bytes.Equal(got, want) {
		t.Errorf("this build's Solution differs from the stored one (%v)", err)
	}
	// The record minus its timings, which no two solves share.
	stored := *e.Effort
	stored.QueueNanos, stored.SolveNanos, stored.OrchNanos = 0, 0, 0
	fresh.SolveNanos, fresh.OrchNanos = 0, 0
	storedSearch, freshSearch := stored.Search, fresh.Search
	stored.Search, fresh.Search = solve.Stats{}, solve.Stats{}
	if stored.Method != solve.BranchBound || stored.Family != solve.FamilyDAG || stored != fresh {
		t.Errorf("stored effort %+v, this build's solve: %+v", stored, fresh)
	}
	if freshSearch.Expanded > storedSearch.Expanded || freshSearch.Evaluated > storedSearch.Evaluated {
		t.Errorf("stored search %+v, this build's solve searched more: %+v", storedSearch, freshSearch)
	}
}
