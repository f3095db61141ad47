package service

import (
	"testing"

	"repro/internal/rat"
	"repro/internal/workflow"
)

// TestEncodeEventGolden pins the SSE frame of a re-plan event byte for byte:
// the id, event and data lines, with the instance compacted and
// HTML-escaped inside the data line the way json.Marshal renders it.
func TestEncodeEventGolden(t *testing.T) {
	app, err := workflow.New([]workflow.Service{
		{Name: "<a&b>", Cost: rat.New(3, 2), Selectivity: rat.New(1, 2)},
		{Name: "C2", Cost: rat.I(4), Selectivity: rat.I(2)},
	}, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{
			"with instance",
			Event{ID: 7, Hash: "h0", NewHash: "h1", OldValue: rat.New(23, 3), NewValue: rat.I(4), NewApp: app},
			"id: 7\nevent: replan\n" +
				`data: {"hash":"h0","new_hash":"h1","old_value":"23/3","new_value":"4",` +
				`"instance":{"services":[{"name":"\u003ca\u0026b\u003e","cost":"3/2","selectivity":"1/2"},` +
				`{"name":"C2","cost":"4","selectivity":"2"}],"precedence":[["\u003ca\u0026b\u003e","C2"]]}}` +
				"\n\n",
		},
		{
			"without instance",
			Event{ID: 1, Hash: "h0", NewHash: "h2", OldValue: rat.I(1), NewValue: rat.New(-1, 2)},
			"id: 1\nevent: replan\n" +
				`data: {"hash":"h0","new_hash":"h2","old_value":"1","new_value":"-1/2"}` +
				"\n\n",
		},
	}
	for _, tc := range cases {
		got, err := encodeEvent(tc.ev)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
