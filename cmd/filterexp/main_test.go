package main

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// TestSelectReports: -exp keeps the named reports in report order, case and
// spaces forgiven, and an ID that matches no report is an error naming it —
// not an empty, successful run.
func TestSelectReports(t *testing.T) {
	all := []experiments.Report{{ID: "E1"}, {ID: "E2"}, {ID: "E10"}}
	ids := func(rs []experiments.Report) []string {
		var out []string
		for _, r := range rs {
			out = append(out, r.ID)
		}
		return out
	}
	for _, tc := range []struct {
		filter string
		want   []string
	}{
		{"", []string{"E1", "E2", "E10"}},
		{"e10, E1", []string{"E1", "E10"}},
		{"E2,E2,", []string{"E2"}},
	} {
		got, err := selectReports(all, tc.filter)
		if err != nil || !reflect.DeepEqual(ids(got), tc.want) {
			t.Errorf("-exp %q: got %v, %v; want %v", tc.filter, ids(got), err, tc.want)
		}
	}
	for filter, msg := range map[string]string{
		"E1,BOGUS":    "unknown experiment ID(s): BOGUS",
		"bogus,E3,E1": "unknown experiment ID(s): BOGUS,E3",
	} {
		if got, err := selectReports(all, filter); err == nil || err.Error() != msg {
			t.Errorf("-exp %q: got %v, %v; want error %q", filter, ids(got), err, msg)
		}
	}
}
