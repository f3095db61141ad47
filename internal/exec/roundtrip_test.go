package exec

// The closed-loop round trip the data plane exists for, against a real
// filterd HTTP surface (httptest + service.Handler): plan → execute →
// observe → PATCH → replan SSE event → hot swap. Run with -race; the
// executor, the SSE consumer, and the service share the process.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/workflow"
)

func newFilterd(t *testing.T) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(service.Handler(srv))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// countReplanEvents subscribes to hash over raw SSE and reports how many
// replan frames arrive before the connection is closed by cancel.
func countReplanEvents(t *testing.T, baseURL, hash string) (count func() int, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/v1/subscribe/"+hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	events := make(chan struct{}, 64)
	ready := make(chan struct{})
	go func() {
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, ": subscribed") {
				close(ready)
			}
			if strings.HasPrefix(line, "event: replan") {
				events <- struct{}{}
			}
		}
	}()
	<-ready
	return func() int { return len(events) }, cancel
}

// TestRoundTripControllerDrift is the acceptance scenario: injected cost
// drift on a bottleneck service makes the executor's estimates depart the
// declared instance, and the closed loop reacts with exactly one PATCH,
// exactly one replan SSE event, and a hot swap to a schedule bit-identical
// to planning the drifted instance directly — with no tuple loss.
func TestRoundTripControllerDrift(t *testing.T) {
	_, ts := newFilterd(t)
	client := &Client{BaseURL: ts.URL, Params: service.Params{Model: "overlap", Objective: "period"}}
	ctx := context.Background()

	// The declared instance plans around cost ~1 services; the stream
	// charges service b cost 40 — the drifted bottleneck, so the re-plan
	// provably changes the objective (and therefore publishes an event).
	app, err := workflow.New([]workflow.Service{
		{Name: "a", Cost: rat.I(2), Selectivity: rat.New(1, 2)},
		{Name: "b", Cost: rat.One, Selectivity: rat.New(3, 4)},
		{Name: "c", Cost: rat.I(3), Selectivity: rat.New(1, 3)},
		{Name: "d", Cost: rat.New(1, 2), Selectivity: rat.New(4, 5)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	costB := rat.I(40)

	initial, err := client.Plan(ctx, app, "")
	if err != nil {
		t.Fatal(err)
	}
	replans, stopSub := countReplanEvents(t, ts.URL, initial.Hash)
	defer stopSub()

	// MinSamples 256 and threshold 1/4 put Bernoulli sampling noise ~8σ
	// away from a selectivity trigger, so the only drift episode is the
	// injected one.
	ex, err := New(Config{
		App: app, Planner: client, Seed: 11, Workers: 4,
		Truth:  map[string]Truth{"b": {Cost: &costB}},
		Window: 512, MinSamples: 256, Threshold: rat.New(1, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ex.Run(ctx, 4096)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly one PATCH, from the controller; the executor never adopts
	// its own echo from the subscription stream.
	if report.Patches != 1 || report.ReplanEvents != 0 || report.Swaps != 1 {
		t.Fatalf("patches=%d replans=%d swaps=%d, want 1/0/1\n%s",
			report.Patches, report.ReplanEvents, report.Swaps, describeReport(report))
	}
	ep := report.Episodes[0]
	if ep.Source != "controller" || ep.OldHash != initial.Hash || ep.NewHash != report.Hash {
		t.Fatalf("episode %+v inconsistent with run", ep)
	}
	if ep.NewValue.Equal(ep.OldValue) {
		t.Fatal("cost drift on the bottleneck did not move the objective")
	}
	// The PATCH carried b's measured cost exactly (the virtual clock
	// charges a constant, so the mean is exact) — the hysteresis that
	// keeps episode count at one.
	var sawB bool
	for _, u := range ep.Updates {
		if u.Service == "b" {
			sawB = true
			if u.Cost == nil || !u.Cost.Equal(costB) {
				t.Fatalf("b's update %+v, want cost %s", u, costB)
			}
		}
	}
	if !sawB {
		t.Fatalf("updates %+v missing the drifted service", ep.Updates)
	}

	// No tuple loss across the swap.
	if report.Tuples != 4096 {
		t.Fatalf("tuples %d, want 4096", report.Tuples)
	}

	// The hot-swapped schedule is bit-identical to planning the drifted
	// instance directly (what `filterplan` would print for it).
	direct, err := client.Plan(ctx, report.App, "")
	if err != nil {
		t.Fatal(err)
	}
	directSched, err := json.Marshal(direct.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Hash != report.Hash || !bytes.Equal(directSched, report.Schedule) {
		t.Fatalf("swapped schedule diverges from direct plan of the drifted instance:\n%s\nvs\n%s",
			report.Schedule, directSched)
	}

	// Exactly one replan event crossed the SSE surface.
	deadline := time.Now().Add(2 * time.Second)
	for replans() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := replans(); got != 1 {
		t.Fatalf("observed %d replan SSE events, want exactly 1", got)
	}
}

// TestRoundTripExternalReplanAdoption covers the other half of the
// subscribe path: a PATCH the executor did NOT issue arrives through its
// SSE subscription mid-run and is adopted at a round boundary.
func TestRoundTripExternalReplanAdoption(t *testing.T) {
	_, ts := newFilterd(t)
	client := &Client{BaseURL: ts.URL, Params: service.Params{Model: "overlap", Objective: "period"}}
	ctx := context.Background()

	app, err := workflow.New([]workflow.Service{
		{Name: "a", Cost: rat.I(2), Selectivity: rat.New(1, 2)},
		{Name: "b", Cost: rat.One, Selectivity: rat.New(3, 4)},
		{Name: "c", Cost: rat.I(3), Selectivity: rat.New(1, 3)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := client.Plan(ctx, app, "")
	if err != nil {
		t.Fatal(err)
	}

	// Pace the run to ~1.5s so the external PATCH lands mid-stream; the
	// estimates match the declared values (no Truth), so the controller
	// stays silent and the subscribe path is isolated.
	ex, err := New(Config{
		App: app, Planner: client, Seed: 5, Workers: 2,
		Rate: 2000, Window: 250, Threshold: neverDrift(),
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		report *Report
		err    error
	}
	done := make(chan result, 1)
	go func() {
		r, err := ex.Run(ctx, 3000)
		done <- result{r, err}
	}()

	time.Sleep(300 * time.Millisecond)
	cost := rat.I(99)
	external, err := client.Drift(ctx, initial.Hash, initial.App,
		[]Update{{Service: initial.App.Name(0), Cost: &cost}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if external.Hash == initial.Hash {
		t.Fatal("external drift did not re-hash the instance")
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	report := res.report
	if report.ReplanEvents != 1 || report.Patches != 0 || report.Swaps != 1 {
		t.Fatalf("replans=%d patches=%d swaps=%d, want 1/0/1\n%s",
			report.ReplanEvents, report.Patches, report.Swaps, describeReport(report))
	}
	ep := report.Episodes[0]
	if ep.Source != "subscribe" || ep.OldHash != initial.Hash || ep.NewHash != external.Hash {
		t.Fatalf("adoption episode %+v, want %s -> %s via subscribe", ep, initial.Hash, external.Hash)
	}
	if report.Hash != external.Hash || report.Tuples != 3000 {
		t.Fatalf("final hash %s tuples %d, want %s and 3000", report.Hash, report.Tuples, external.Hash)
	}
}
