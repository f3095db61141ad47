package service

// The served bytes as a committed oracle: the /v1/plan miss and hit bodies,
// a /v1/batch body and a PATCH /v1/instance/{hash} body for the shipped
// instances under every model and objective, hashed into one constant. A
// change that means to leave every answer alone leaves it unchanged.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// The committed digests, recorded by this test at commit 087d711.
const (
	servedDigestFull  = "2406d3eb46a87919a8684a6220bbfceaeb2666098db8a5e7659d364ff651855a"
	servedDigestShort = "88d0574dd4f7a6e745de60b3f87b5d042e4935bc9e37ef6393b3562e88bf62a2"
)

func TestServedBodyDigest(t *testing.T) {
	_, ts := newTestAPI(t)
	h := sha256.New()
	for _, c := range []struct{ file, params string }{
		// webquery8 is past every exact cap (a hill climb); mixed6 runs the
		// exact forest search, so its PATCH re-plans warm-started.
		{"webquery8.json", ""},
		{"mixed6.json", `, "method": "bnb", "family": "forest"`},
	} {
		if testing.Short() && c.file == "webquery8.json" {
			continue // -short keeps the exact-search half
		}
		instance := readTestdata(t, c.file)
		var app workflow.App
		if err := json.Unmarshal(instance, &app); err != nil {
			t.Fatal(err)
		}
		name, cost := app.Name(0), app.Cost(0).AddInt(3)
		for _, m := range []plan.Model{plan.Overlap, plan.InOrder, plan.OutOrder} {
			for _, obj := range []solve.Objective{solve.PeriodObjective, solve.LatencyObjective} {
				params := fmt.Sprintf(`"model": %q, "objective": %q%s`, strings.ToLower(m.String()), obj, c.params)
				planDoc := fmt.Sprintf(`{"instance": %s, %s}`, instance, params)
				served := func(method, path, body string) string {
					code, out := send(t, method, ts.URL+path, body)
					if code != http.StatusOK {
						t.Fatalf("%s %s/%s: %s %s: status %d: %s", c.file, m, obj, method, path, code, out)
					}
					return out
				}
				miss := served("POST", "/v1/plan", planDoc)
				var doc PlanResponse
				if err := json.Unmarshal([]byte(miss), &doc); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %s %s\n%s%s%s%s", c.file, m, obj, miss,
					served("POST", "/v1/plan", planDoc),
					served("POST", "/v1/batch", fmt.Sprintf(`{"requests": [%s]}`, planDoc)),
					served("PATCH", "/v1/instance/"+doc.Hash, fmt.Sprintf(`{"updates": [{"service": %q, "cost": %q}], %s}`, name, cost, params)))
			}
		}
	}
	want := servedDigestFull
	if testing.Short() {
		want = servedDigestShort
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("served-body digest %s, committed %s", got, want)
	}
}
