package service

// Intake backpressure (Config.MaxPending) and the /metrics surface:
// admissions beyond the watermark shed with ErrOverloaded / HTTP 429 +
// Retry-After, shed requests are never cached (the same key solves
// cleanly once the burst passes), and the Prometheus endpoint exposes
// the queue and shed counters.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rat"
	"repro/internal/workflow"
)

// blockPool admits n parked tasks — they take every solver slot and the
// rest wait for one — returning the release function. It waits until all
// blockers are admitted (pending reflects them).
func blockPool(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.submit(nil, func() { <-stop }); err != nil {
				t.Errorf("blocker shed: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pending.Load() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d blockers admitted", s.pending.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return func() { close(stop); wg.Wait() }
}

func smallApp(t *testing.T) *workflow.App {
	t.Helper()
	services := []workflow.Service{
		{Name: "A", Cost: rat.New(2, 1), Selectivity: rat.New(1, 2)},
		{Name: "B", Cost: rat.New(3, 1), Selectivity: rat.New(1, 3)},
	}
	app, err := workflow.New(services, nil)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestShedBeyondMaxPendingAndRetryCleanly(t *testing.T) {
	s := New(Config{Workers: 1, MaxPending: 2})
	defer s.Close()

	release := blockPool(t, s, 2) // one running, one queued: watermark reached
	req := Request{App: smallApp(t)}
	_, err := s.Plan(req)
	if !errors.Is(err, ErrOverloaded) {
		release()
		t.Fatalf("plan over the watermark: err %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.MaxPending != 2 {
		t.Errorf("stats after shed = Shed %d MaxPending %d", st.Shed, st.MaxPending)
	}

	// The shed error was never cached: after the burst the same request
	// solves normally.
	release()
	resp, err := s.Plan(req)
	if err != nil {
		t.Fatalf("plan after release: %v", err)
	}
	if resp.Outcome.String() != "miss" {
		t.Errorf("post-shed outcome %s, want a fresh miss", resp.Outcome)
	}
}

func TestCacheHitsAreNeverShed(t *testing.T) {
	s := New(Config{Workers: 1, MaxPending: 2})
	defer s.Close()
	req := Request{App: smallApp(t)}
	if _, err := s.Plan(req); err != nil {
		t.Fatal(err)
	}

	release := blockPool(t, s, 2)
	defer release()
	resp, err := s.Plan(req)
	if err != nil {
		t.Fatalf("cached plan shed under load: %v", err)
	}
	if resp.Outcome.String() != "hit" {
		t.Errorf("outcome %s, want hit", resp.Outcome)
	}
}

func TestShedHTTP429WithRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, MaxPending: 2})
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	release := blockPool(t, s, 2)
	body := `{"instance": {"services": [
	  {"name": "A", "cost": "2", "selectivity": "1/2"},
	  {"name": "B", "cost": "3", "selectivity": "1/3"}]}}`
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		release()
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		release()
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, payload)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}

	release()
	resp2, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status after release %d, want 200", resp2.StatusCode)
	}
}

func TestClosedServer503(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	s.Close()

	body := `{"instance": {"services": [{"name": "A", "cost": "2", "selectivity": "1/2"}]}}`
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	body := `{"instance": {"services": [
	  {"name": "A", "cost": "2", "selectivity": "1/2"},
	  {"name": "B", "cost": "3", "selectivity": "1/3"}]}}`
	if resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// A rejected request: the route's counter reads the committed status
	// from the middleware's recorder, not from a writer of its own.
	if resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(`{}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text format", ct)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	for _, want := range []string{
		"filterd_queue_depth 0",
		"filterd_shed_total 0",
		"filterd_solve_seconds_count 1",
		"filterd_plancache_misses_total 1",
		`filterd_http_requests_total{route="plan",code="200"} 1`,
		`filterd_http_requests_total{route="plan",code="400"} 1`,
		`filterd_http_request_seconds_count{route="plan"} 2`,
		"filterd_max_pending",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The backpressure watermark is a positive gauge.
	if m := scrapeMetrics(t, ts.URL); m["filterd_max_pending"] <= 0 {
		t.Errorf("filterd_max_pending = %v, want > 0", m["filterd_max_pending"])
	}
}

// TestShedBatchItemsFailAlone: a batch under load sheds per item; the
// response stays 200 with per-item errors mentioning the overload.
func TestShedBatchItemsFailAlone(t *testing.T) {
	s := New(Config{Workers: 1, MaxPending: 2})
	defer s.Close()
	release := blockPool(t, s, 2)
	defer release()

	results := s.PlanBatchContext(context.Background(), []Request{{App: smallApp(t)}})
	if len(results) != 1 {
		t.Fatalf("%d results", len(results))
	}
	if !errors.Is(results[0].Err, ErrOverloaded) {
		t.Errorf("batch item error %v, want ErrOverloaded", results[0].Err)
	}
	if st := s.Stats(); st.Shed == 0 {
		t.Error("no shed counted")
	}
}

// TestAbandonedWhileWaitingNeverRuns: a request whose context dies while
// it waits for a solver slot returns the context error at once and its
// work never runs, even after the slot frees.
func TestAbandonedWhileWaitingNeverRuns(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	release := sync.OnceFunc(blockPool(t, s, 1)) // the only slot is held

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() { done <- s.submit(ctx, func() { ran.Store(true) }) }()
	waitFor(t, "the second solve to be admitted", func() bool { return s.pending.Load() == 2 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("abandoned submit: err %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("abandoned submit still waiting 2 s after its context ended")
		release()
		<-done
	}
	release()
	if ran.Load() {
		t.Error("abandoned work ran")
	}
}
