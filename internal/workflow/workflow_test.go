package workflow

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rat"
)

func TestNewDefaultsAndValidation(t *testing.T) {
	a, err := New([]Service{
		{Cost: rat.I(4), Selectivity: rat.One},
		{Name: "filter", Cost: rat.New(1, 2), Selectivity: rat.New(9999, 10000)},
	}, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 2 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Name(0) != "C1" || a.Name(1) != "filter" {
		t.Fatalf("names = %q, %q", a.Name(0), a.Name(1))
	}
	if a.IndexOf("filter") != 1 || a.IndexOf("nope") != -1 {
		t.Fatal("IndexOf broken")
	}
	if !a.Cost(0).Equal(rat.I(4)) || !a.Selectivity(1).Equal(rat.New(9999, 10000)) {
		t.Fatal("accessors broken")
	}
	if !a.HasPrecedence() || !a.Precedence().HasEdge(0, 1) {
		t.Fatal("precedence lost")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cases := []struct {
		name     string
		services []Service
		edges    [][2]int
		errPart  string
	}{
		{"negative cost", []Service{{Cost: rat.I(-1), Selectivity: rat.One}}, nil, "negative cost"},
		{"negative selectivity", []Service{{Cost: rat.One, Selectivity: rat.I(-1)}}, nil, "negative selectivity"},
		{"dup names", []Service{{Name: "x", Cost: rat.One, Selectivity: rat.One}, {Name: "x", Cost: rat.One, Selectivity: rat.One}}, nil, "duplicate"},
		{"edge out of range", []Service{{Cost: rat.One, Selectivity: rat.One}}, [][2]int{{0, 1}}, "out of range"},
		{"self loop", []Service{{Cost: rat.One, Selectivity: rat.One}}, [][2]int{{0, 0}}, "self-loop"},
		{"cycle", []Service{{Cost: rat.One, Selectivity: rat.One}, {Cost: rat.One, Selectivity: rat.One}}, [][2]int{{0, 1}, {1, 0}}, "cycle"},
	}
	for _, c := range cases {
		_, err := New(c.services, c.edges)
		if err == nil || !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.errPart)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew([]Service{{Cost: rat.I(-1), Selectivity: rat.One}}, nil)
}

func TestUniformAndFromCostsSels(t *testing.T) {
	a := Uniform(5, rat.I(4), rat.One)
	if a.N() != 5 || !a.Cost(4).Equal(rat.I(4)) || a.HasPrecedence() {
		t.Fatal("Uniform wrong")
	}
}

func TestServicesCopy(t *testing.T) {
	a := Uniform(2, rat.I(1), rat.One)
	s := a.Services()
	s[0].Cost = rat.I(99)
	if a.Cost(0).Equal(rat.I(99)) {
		t.Fatal("Services returned internal slice")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	a := MustNew([]Service{
		{Name: "scan", Cost: rat.I(4), Selectivity: rat.New(1, 2)},
		{Name: "join", Cost: rat.MustParse("23/3"), Selectivity: rat.I(2)},
		{Cost: rat.One, Selectivity: rat.One},
	}, [][2]int{{0, 1}, {1, 2}})

	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back App
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != 3 {
		t.Fatalf("N = %d", back.N())
	}
	for i := 0; i < 3; i++ {
		if back.Name(i) != a.Name(i) || !back.Cost(i).Equal(a.Cost(i)) || !back.Selectivity(i).Equal(a.Selectivity(i)) {
			t.Fatalf("service %d differs after round trip", i)
		}
	}
	if !back.Precedence().HasEdge(0, 1) || !back.Precedence().HasEdge(1, 2) || back.Precedence().EdgeCount() != 2 {
		t.Fatal("precedence lost in round trip")
	}
}

func TestUnmarshalHandWritten(t *testing.T) {
	doc := `{
	  "services": [
	    {"cost": "4", "selectivity": "1"},
	    {"name": "f", "cost": "0.5", "selectivity": "9999/10000"}
	  ],
	  "precedence": [["C1", "f"]]
	}`
	var a App
	if err := json.Unmarshal([]byte(doc), &a); err != nil {
		t.Fatal(err)
	}
	if a.Name(0) != "C1" || !a.Selectivity(1).Equal(rat.New(9999, 10000)) {
		t.Fatal("hand-written instance parsed wrong")
	}
	if !a.Precedence().HasEdge(0, 1) {
		t.Fatal("precedence edge missing")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		`{"services":[{"cost":"1","selectivity":"1"}],"precedence":[["C1","nope"]]}`,
		`{"services":[{"cost":"-1","selectivity":"1"}]}`,
		`{"services":[{"cost":"x","selectivity":"1"}]}`,
		`not json`,
	}
	for _, doc := range cases {
		var a App
		if err := json.Unmarshal([]byte(doc), &a); err == nil {
			t.Errorf("expected error for %s", doc)
		}
	}
}
