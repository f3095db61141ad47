package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
)

type patchCase struct {
	name, body string
	wantStatus int
}

// patchErrorCases are the malformed PATCH /v1/instance/{hash} bodies
// against a registered instance whose first service is target, each with
// the status it fails with.
func patchErrorCases(target string) []patchCase {
	return []patchCase{
		{"not JSON", `{{{`, http.StatusBadRequest},
		{"truncated JSON", `{"updates": [{"service":`, http.StatusBadRequest},
		{"bad cost rational", fmt.Sprintf(`{"updates": [{"service": %q, "cost": "7/0"}]}`, target), http.StatusBadRequest},
		{"empty cost", fmt.Sprintf(`{"updates": [{"service": %q, "cost": ""}]}`, target), http.StatusBadRequest},
		{"bad selectivity rational", fmt.Sprintf(`{"updates": [{"service": %q, "selectivity": "x"}]}`, target), http.StatusBadRequest},
		{"unknown model", fmt.Sprintf(`{"model": "bogus", "updates": [{"service": %q, "cost": "2"}]}`, target), http.StatusBadRequest},
		{"no updates", `{"updates": []}`, http.StatusUnprocessableEntity},
		{"unknown service", `{"updates": [{"service": "nope", "cost": "2"}]}`, http.StatusUnprocessableEntity},
		{"update changes nothing", fmt.Sprintf(`{"updates": [{"service": %q}]}`, target), http.StatusUnprocessableEntity},
	}
}

// TestHTTPPatchErrorPaths sweeps the PATCH /v1/instance/{hash} failure
// modes: every malformed body fails with the right status, fails cleanly
// (no cache entry, no event, no registry growth) and leaves the instance
// re-plannable.
func TestHTTPPatchErrorPaths(t *testing.T) {
	s, ts := newTestAPI(t)
	hash, target, _ := planAndTarget(t, s)
	before := s.Stats()

	cases := patchErrorCases(target)
	for _, tc := range cases {
		resp := doJSON(t, "PATCH", ts.URL+"/v1/instance/"+hash, tc.body, nil)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}
	// Unknown hash stays 404 whatever the body.
	resp := doJSON(t, "PATCH", ts.URL+"/v1/instance/0000", `{"updates": [{"service": "a", "cost": "2"}]}`, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash: status %d, want 404", resp.StatusCode)
	}

	after := s.Stats()
	if after.Cache.Len != before.Cache.Len {
		t.Errorf("failed PATCHes changed the cache: %d -> %d entries", before.Cache.Len, after.Cache.Len)
	}
	if after.Registered != before.Registered {
		t.Errorf("failed PATCHes registered instances: %d -> %d", before.Registered, after.Registered)
	}
	if after.EventsPublished != before.EventsPublished {
		t.Errorf("failed PATCHes published events")
	}

	// The hash still drifts fine after the failure sweep.
	ok := doJSON(t, "PATCH", ts.URL+"/v1/instance/"+hash,
		fmt.Sprintf(`{"model": "overlap", "objective": "period", "updates": [{"service": %q, "cost": "5"}]}`, target), nil)
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Errorf("valid PATCH after the sweep: status %d", ok.StatusCode)
	}
	// Costs and selectivities take bare JSON numbers, as in the instance
	// document.
	bare := doJSON(t, "PATCH", ts.URL+"/v1/instance/"+hash,
		fmt.Sprintf(`{"updates": [{"service": %q, "cost": 6, "selectivity": 0.5}]}`, target), nil)
	bare.Body.Close()
	if bare.StatusCode != http.StatusOK {
		t.Errorf("PATCH with bare numbers: status %d", bare.StatusCode)
	}
}

// FuzzDriftRequest sends fuzzed bodies to PATCH /v1/instance/{hash} on a
// registered instance. Properties: no body gets a 5xx; a non-200 leaves
// the cache length, the registered count and the published events as
// they were; a 200 only answers a body whose updates ApplyUpdates accepts.
func FuzzDriftRequest(f *testing.F) {
	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	hash, target, planned := planAndTarget(f, s)
	for _, tc := range patchErrorCases(target) {
		f.Add(tc.body)
	}
	f.Add(fmt.Sprintf(`{"model": "overlap", "objective": "period", "updates": [{"service": %q, "cost": "5"}]}`, target))
	f.Add(fmt.Sprintf(`{"updates": [{"service": %q, "cost": 7, "selectivity": 0.5}]}`, target))
	f.Add(fmt.Sprintf(`{"updates": [{"service": %q, "cost": null, "selectivity": "1/3"}]}`, target))
	f.Add(fmt.Sprintf(`{"updates": [{"service": %q, "cost": "3"}]} trailing`, target))
	h := Handler(s)

	f.Fuzz(func(t *testing.T, body string) {
		// The handler's framing: the first JSON value, trailing bytes
		// ignored. Restarts multiply the hill climb's work without bound;
		// past a few the body exercises the solver, not the handler.
		var doc DriftRequest
		decodeErr := json.NewDecoder(strings.NewReader(body)).Decode(&doc)
		if doc.Restarts > 4 {
			t.Skip()
		}
		before := s.Stats()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPatch, "/v1/instance/"+hash, strings.NewReader(body)))
		after := s.Stats()
		if rec.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			if after.Cache.Len != before.Cache.Len || after.Registered != before.Registered ||
				after.EventsPublished != before.EventsPublished {
				t.Fatalf("body %q: status %d changed state: cache %d -> %d, registered %d -> %d, events %d -> %d",
					body, rec.Code, before.Cache.Len, after.Cache.Len, before.Registered, after.Registered,
					before.EventsPublished, after.EventsPublished)
			}
			return
		}
		if decodeErr != nil {
			t.Fatalf("body %q: 200 for a body that does not decode: %v", body, decodeErr)
		}
		if _, err := ApplyUpdates(planned.Instance.App(), doc.Updates); err != nil {
			t.Fatalf("body %q: 200 for updates ApplyUpdates rejects: %v", body, err)
		}
	})
}

// FuzzBatchRequest sends fuzzed bodies to POST /v1/batch. Properties: no
// body gets a 5xx; a non-200 leaves the cache length and the registered
// count as they were; a 200 carries one result per request, in request
// order, and each result is what POST /v1/plan answers for that item
// alone: the same error text, or the same plan (value, graph, schedule;
// outcome and cached aside).
func FuzzBatchRequest(f *testing.F) {
	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	small, err := json.Marshal(gen.App(gen.NewRand(11), 3, gen.Mixed))
	if err != nil {
		f.Fatal(err)
	}
	prec, err := json.Marshal(gen.AppWithPrecedence(gen.NewRand(12), 4, gen.Filtering, 0.4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fmt.Sprintf(`{"requests": [{"instance": %s}, {"instance": %s, "model": "inorder", "objective": "latency"}]}`, small, prec))
	f.Add(fmt.Sprintf(`{"requests": [{"instance": %s, "method": "bnb", "family": "chain"}, {"instance": %s, "model": "bogus"}, {"instance": %s}]}`, small, small, small))
	f.Add(fmt.Sprintf(`{"requests": [{"instance": %s, "method": "hill-climb", "restarts": 2, "seed": 5}, {"model": "overlap"}, null]}`, prec))
	f.Add(fmt.Sprintf(`{"requests": [{"instance": %s, "method": "greedy-chain"}]} trailing`, prec))
	f.Add(`{"requests": [{"instance": {"services": []}}]}`)
	f.Add(`{"requests": []}`)
	f.Add(`{"requests": [5]}`)
	f.Add(`{{{`)
	h := Handler(s)
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	// answer decodes a plan answer with outcome and cached cleared and its
	// schedule compacted (a batch item nests it one level deeper).
	answer := func(data []byte) (PlanResponse, error) {
		var p PlanResponse
		if err := json.Unmarshal(data, &p); err != nil {
			return p, err
		}
		var sched bytes.Buffer
		err := json.Compact(&sched, p.Schedule)
		p.Outcome, p.Cached, p.Schedule = "", false, sched.Bytes()
		return p, err
	}

	f.Fuzz(func(t *testing.T, body string) {
		// The handler's framing: the first JSON value, trailing bytes
		// ignored. Large batches, instances and restart counts exercise the
		// solver, not the handler, and so does an exact search raised past
		// its default caps.
		var doc batchRequestJSON
		json.NewDecoder(strings.NewReader(body)).Decode(&doc)
		if len(doc.Requests) > 8 {
			t.Skip()
		}
		for _, item := range doc.Requests {
			if item.Instance.app.N() > 6 || item.Restarts > 4 || item.MaxExactN > 5 {
				t.Skip()
			}
		}
		before := s.Stats()
		rec := post("/v1/batch", body)
		after := s.Stats()
		if rec.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			if after.Cache.Len != before.Cache.Len || after.Registered != before.Registered {
				t.Fatalf("body %q: status %d changed state: cache %d -> %d, registered %d -> %d",
					body, rec.Code, before.Cache.Len, after.Cache.Len, before.Registered, after.Registered)
			}
			return
		}
		var got BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("body %q: undecodable 200 answer: %v", body, err)
		}
		// The items as the bytes a client would send one by one.
		var raw struct {
			Requests []json.RawMessage `json:"requests"`
		}
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&raw); err != nil || len(got.Results) != len(raw.Requests) {
			t.Fatalf("body %q: %d results for %d requests (%v)", body, len(got.Results), len(raw.Requests), err)
		}
		for i, item := range raw.Requests {
			alone := post("/v1/plan", string(item))
			if alone.Code != http.StatusOK {
				var e ErrorBody
				if err := json.Unmarshal(alone.Body.Bytes(), &e); err != nil || got.Results[i].Error != e.Error {
					t.Fatalf("body %q item %d: batch error %q, /v1/plan %d %s", body, i, got.Results[i].Error, alone.Code, alone.Body)
				}
				continue
			}
			want, err := answer(alone.Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			have, err := answer(got.Results[i].Plan)
			if err != nil {
				t.Fatalf("body %q item %d: batch result %+v is no plan (%v), /v1/plan answered one", body, i, got.Results[i], err)
			}
			if !reflect.DeepEqual(have, want) {
				t.Fatalf("body %q item %d: batch plan\n%+v\n/v1/plan\n%+v", body, i, have, want)
			}
		}
	})
}
