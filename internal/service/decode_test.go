package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/workflow"
)

// twoStepDecode is the plan-request decoder as it was before the single
// pass: the instance captured as raw bytes by the body decode, then parsed
// by a second Unmarshal. It is the oracle DecodePlanRequest must agree with.
func twoStepDecode(body []byte) (Request, error) {
	// Named as the shipped document so type-mismatch errors read the same.
	type planRequestJSON struct {
		Instance json.RawMessage `json:"instance"`
		Params
	}
	var doc planRequestJSON
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&doc); err != nil {
		return Request{}, fmt.Errorf("service: parsing request body: %w", err)
	}
	if len(doc.Instance) == 0 {
		return Request{}, fmt.Errorf("service: request has no instance")
	}
	var app workflow.App
	if err := json.Unmarshal(doc.Instance, &app); err != nil {
		return Request{}, fmt.Errorf("service: parsing instance: %w", err)
	}
	return doc.Params.Request(&app)
}

// agreeWithTwoStep checks one body: same accept/reject and error text, and
// for accepted bodies the same parameters and the same canonical instance.
func agreeWithTwoStep(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := DecodePlanRequest(bytes.NewReader(body))
	want, wantErr := twoStepDecode(body)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("body %q:\n  decoder:  %v\n  two-step: %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	gotApp, wantApp := got.App, want.App
	got.App, want.App = nil, nil
	if got != want {
		t.Fatalf("body %q: parameters %+v, two-step %+v", body, got, want)
	}
	gotInst, gotErr := canon.Canonicalize(gotApp)
	wantInst, wantErr := canon.Canonicalize(wantApp)
	if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && gotInst.Hash() != wantInst.Hash()) {
		t.Fatalf("body %q: canonical forms differ (%v / %v)", body, gotErr, wantErr)
	}
}

const (
	twoServices = `{"services": [{"name": "A", "cost": "2/4", "selectivity": "1/2"}, {"name": "B", "cost": "3", "selectivity": "0.5"}], "precedence": [["A", "B"]]}`
	// The three representation freedoms canon undoes, as bench/inputs.go
	// disguises them: services permuted, rationals unreduced, a precedence
	// edge implied by two others.
	disguised = `{"instance":{"services":[{"name":"C","cost":"9/3","selectivity":"14/21"},{"name":"A","cost":"8/4","selectivity":"5/10"},{"name":"B","cost":"6/6","selectivity":"63/70"}],"precedence":[["A","B"],["B","C"],["A","C"]]},"model":"overlap","objective":"period"}`
)

// TestPlanRequestDecodeTable pins which POST /v1/plan bodies the service
// accepts, with which status and error — the behaviour the shared decoder
// keeps (and the router now shares: it routes exactly the accepted set).
func TestPlanRequestDecodeTable(t *testing.T) {
	_, ts := newTestAPI(t)
	cases := []struct {
		name, body string
		status     int
		errText    string
	}{
		{"plain", `{"instance": ` + twoServices + `}`, 200, ""},
		{"disguised wire form", disguised, 200, ""},
		{"unknown members ignored", `{"instance": ` + twoServices + `, "comment": [1, {"x": null}]}`, 200, ""},
		{"trailing garbage", `{"instance": ` + twoServices + `} trailing }{ garbage`, 200, ""},
		{"second value ignored", `{"instance": ` + twoServices + `}{"instance": 7}`, 200, ""},
		{"repeated instance, last wins", `{"instance": {"services": [{"cost": "-1", "selectivity": "1"}]}, "instance": ` + twoServices + `}`, 200, ""},
		{"repeated instance, last loses", `{"instance": ` + twoServices + `, "instance": {"services": [{"cost": "-1", "selectivity": "1"}]}}`,
			400, `service: parsing instance: workflow: service "C1" has negative cost -1`},
		{"missing instance", `{"model": "overlap"}`, 400, "service: request has no instance"},
		{"null instance", `{"instance": null}`, 422, "service: empty instance"},
		{"empty instance", `{"instance": {"services": []}}`, 422, "service: empty instance"},
		{"instance not an object", `{"instance": 7}`, 400, "service: parsing instance: json: cannot unmarshal number into Go value of type workflow.appJSON"},
		{"duplicate names", `{"instance": {"services": [{"name": "A", "cost": "1", "selectivity": "1"}, {"name": "A", "cost": "2", "selectivity": "1"}]}}`,
			400, `service: parsing instance: workflow: duplicate service name "A" (indices 0 and 1)`},
		{"unknown precedence name", `{"instance": {"services": [{"name": "A", "cost": "1", "selectivity": "1"}], "precedence": [["A", "Z"]]}}`,
			400, "service: parsing instance: workflow: precedence edge [A Z] references unknown service"},
		{"duplicate name reported before unknown precedence name", `{"instance": {"services": [{"name": "A", "cost": "1", "selectivity": "1"}, {"name": "A", "cost": "1", "selectivity": "1"}], "precedence": [["A", "Z"]]}}`,
			400, `service: parsing instance: workflow: duplicate service name "A" (indices 0 and 1)`},
		{"default names in precedence", `{"instance": {"services": [{"cost": "1", "selectivity": "1"}, {"cost": "2", "selectivity": "1"}], "precedence": [["C1", "C2"]]}}`, 200, ""},
		{"precedence cycle", `{"instance": {"services": [{"cost": "1", "selectivity": "1"}, {"cost": "2", "selectivity": "1"}], "precedence": [["C1", "C2"], ["C2", "C1"]]}}`,
			400, "service: parsing instance: workflow: precedence constraints contain a cycle"},
		{"zero denominator", `{"instance": {"services": [{"cost": "1/0", "selectivity": "1"}]}}`, 400, `service: parsing instance: rat: zero denominator in "1/0"`},
		{"syntax error", `{"instance": `, 400, "service: parsing request body: unexpected EOF"},
		{"bad syntax inside instance", `{"instance": {"services": [}}`, 400, "service: parsing request body: invalid character '}' looking for beginning of value"},
		{"unknown model", `{"instance": ` + twoServices + `, "model": "sideways"}`, 400, `unknown model "sideways" (want overlap, inorder or outorder)`},
		{"retired method", `{"instance": ` + twoServices + `, "method": "exact-dag"}`, 400, `unknown method "exact-dag"`},
		{"retired family", `{"instance": ` + twoServices + `, "method": "bnb", "family": "chain"}`, 400, `unknown family "chain" (want auto, forest or dag)`},
		{"body over 4 MiB", `{"instance": ` + twoServices + `, "pad": "` + strings.Repeat("x", maxBodyBytes) + `"}`, 400, "service: parsing request body: http: request body too large"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := send(t, "POST", ts.URL+"/v1/plan", c.body)
			if status != c.status {
				t.Fatalf("status %d, want %d: %s", status, c.status, body)
			}
			if c.status != http.StatusOK {
				var doc map[string]string
				if err := json.Unmarshal([]byte(body), &doc); err != nil {
					t.Fatalf("error body is not JSON: %q", body)
				}
				if doc["error"] != c.errText {
					t.Errorf("error %q, want %q", doc["error"], c.errText)
				}
			}
			if len(c.body) <= maxBodyBytes { // the size bound is the HTTP layer's, not the decoder's
				agreeWithTwoStep(t, []byte(c.body))
			}
		})
	}
}

// FuzzPlanRequestDecode holds the single-pass decoder to the two-step one
// on arbitrary bodies: same accept/reject and error, same parameters, same
// canonical hash, and no panic from either.
func FuzzPlanRequestDecode(f *testing.F) {
	for _, seed := range []string{
		disguised,
		`{"instance": ` + twoServices + `, "model": "inorder", "objective": "latency", "method": "bnb", "family": "forest", "seed": 7, "restarts": 2, "max_exact_n": 5}`,
		`{"instance": ` + twoServices + `} trailing`,
		`{"instance": {"services": [{"cost": "-1", "selectivity": "1"}]}, "instance": ` + twoServices + `}`,
		`{"instance": null}`,
		`{"model": "overlap"}`,
		`{"instance": {"services": [{"name": "A", "cost": 1, "selectivity": 0.5}, {"name": "A", "cost": "1", "selectivity": "1"}], "precedence": [["A", "Z"]]}}`,
		`{"instance": {"services": [{"cost": "18446744073709551616/3", "selectivity": "-0"}, {"cost": "+1/2", "selectivity": " 007 "}], "precedence": [["C1", "C2"], ["C2", "C1"]]}}`,
		`[]`, `7`, `{"instance": "x"}`, `{"instance": {"services": [}}`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		agreeWithTwoStep(t, body)
	})
}
