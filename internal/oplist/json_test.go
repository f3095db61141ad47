package oplist

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
)

func TestJSONRoundTrip(t *testing.T) {
	l := fig1Latency(t)
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadList(l.Plan(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Lambda().Equal(l.Lambda()) {
		t.Fatal("λ lost")
	}
	for v := 0; v < l.Plan().N(); v++ {
		if !back.CalcBegin(v).Equal(l.CalcBegin(v)) {
			t.Fatalf("calc %d differs", v)
		}
	}
	for idx := range l.Plan().Edges() {
		if !back.CommBegin(idx).Equal(l.CommBegin(idx)) || !back.CommEnd(idx).Equal(l.CommEnd(idx)) {
			t.Fatalf("comm %d differs", idx)
		}
	}
	for _, m := range plan.Models {
		if err := back.Validate(m); err != nil {
			t.Fatalf("restored list invalid under %s: %v", m, err)
		}
	}
}

func TestJSONRoundTripStretched(t *testing.T) {
	// Multi-port stretched communications must survive serialization.
	l := fig1Latency(t)
	idx := l.Plan().EdgeIndex(plan.Edge{From: 0, To: 1})
	l.SetCommStretched(idx, rat.I(5), rat.MustParse("11/2"))
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadList(l.Plan(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.CommEnd(idx).Equal(rat.MustParse("11/2")) {
		t.Fatal("stretched end lost")
	}
}

func TestLoadListErrors(t *testing.T) {
	l := fig1Latency(t)
	w := l.Plan()
	good, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func(s string) string
		errPart string
	}{
		{"bad json", func(s string) string { return "{" }, "unexpected"},
		{"unknown node", func(s string) string { return strings.Replace(s, `"node":"C1"`, `"node":"CX"`, 1) }, "unknown node"},
		{"unknown endpoint", func(s string) string { return strings.Replace(s, `"from":"C1"`, `"from":"CX"`, 1) }, "unknown endpoint"},
		{"duplicate comm", func(s string) string {
			return strings.Replace(s, `"from":"C1","to":"C2"`, `"from":"C1","to":"C4"`, 1)
		}, ""},
	}
	for _, c := range cases {
		mutated := c.mutate(string(good))
		if mutated == string(good) {
			t.Fatalf("%s: mutation did not apply", c.name)
		}
		if _, err := LoadList(w, []byte(mutated)); err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if c.errPart != "" && !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

func TestLoadListWrongPlan(t *testing.T) {
	l := fig1Latency(t)
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	other := plan.MustNewWeighted(nil,
		[]rat.Rat{rat.One, rat.One},
		[]plan.Edge{{From: plan.In, To: 0}, {From: 0, To: 1}, {From: 1, To: plan.Out}},
		[]rat.Rat{rat.One, rat.One, rat.One})
	if _, err := LoadList(other, data); err == nil {
		t.Fatal("loading a Fig1 schedule into a different plan must fail")
	}
}
