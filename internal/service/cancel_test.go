package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/solve"
)

// httpGet is http.Get without the shadowing pitfalls inside goroutines.
func httpGet(url string) (*http.Response, error) { return http.Get(url) }

// TestExpiredContextAbortsWithoutPoisoningCache is acceptance criterion
// (c): a request whose context is already dead aborts cleanly — the error
// wraps context.Canceled, nothing is cached under the key — and the next
// request with a live context solves fresh and matches the direct answer.
func TestExpiredContextAbortsWithoutPoisoningCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	req := Request{App: gen.App(gen.NewRand(21), 4, gen.Mixed), Model: plan.Overlap, Objective: solve.PeriodObjective}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PlanContext(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired context: got error %v", err)
	}
	if st := s.Stats(); st.Cache.Len != 0 || st.Cache.InFlight != 0 {
		t.Fatalf("aborted request left cache state: %+v", st.Cache)
	}

	// Clean retry: a live-context request solves fresh.
	resp, err := s.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != plancache.Miss {
		t.Errorf("retry outcome = %s, want miss", resp.Outcome)
	}
	if want := fingerprint(t, directSolve(t, req)); fingerprint(t, resp.Solution) != want {
		t.Error("retry differs from direct solve")
	}
}

// TestMidSolveCancellationAborts cancels a request while its solve runs on
// the pool and requires the context error back without a cached entry.
// The instance is big enough that the hill climb runs for a while; if the
// solve still wins the race the test skips rather than flakes.
func TestMidSolveCancellationAborts(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	req := Request{
		App:       gen.App(gen.NewRand(22), 16, gen.Mixed),
		Model:     plan.InOrder,
		Objective: solve.PeriodObjective,
		Method:    solve.HillClimb,
		Restarts:  64,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.PlanContext(ctx, req)
		done <- err
	}()
	// Cancel as soon as the solve reached the pool.
	for i := 0; s.Stats().Solves == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-done
	if err == nil {
		t.Skip("solve finished before the cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got error %v", err)
	}
	if st := s.Stats(); st.Cache.Len != 0 {
		t.Fatalf("canceled solve was cached: %+v", st.Cache)
	}
	// The key is clean: re-solving succeeds.
	if _, err := s.Plan(req); err != nil {
		t.Fatalf("retry after mid-solve cancel: %v", err)
	}
}

// TestCoalescedFollowerSurvivesLeaderCancel: a request coalesced onto a
// solve whose LEADING request is canceled must not inherit the 499 — it
// retries (becoming the leader under its own live context) and still gets
// the answer.
func TestCoalescedFollowerSurvivesLeaderCancel(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	req := Request{
		App:       gen.App(gen.NewRand(23), 16, gen.Mixed),
		Model:     plan.InOrder,
		Objective: solve.PeriodObjective,
		Method:    solve.HillClimb,
		Restarts:  64,
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.PlanContext(leaderCtx, req)
		leaderDone <- err
	}()
	for i := 0; s.Stats().Solves == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	followerDone := make(chan error, 1)
	var followerResp Response
	go func() {
		var err error
		followerResp, err = s.Plan(req)
		followerDone <- err
	}()
	// Wait until the follower provably coalesced onto the leader's solve,
	// then kill the leader.
	for i := 0; s.Stats().Cache.Coalesced == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.Stats().Cache.Coalesced == 0 {
		t.Skip("solve finished before the follower could coalesce")
	}
	cancelLeader()

	if err := <-followerDone; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if want := fingerprint(t, directSolve(t, req)); fingerprint(t, followerResp.Solution) != want {
		t.Error("follower's retried answer differs from direct solve")
	}
	<-leaderDone // leader may have been canceled or finished first; either is fine
}

// TestCloseEndsOpenSubscriptionStreams: an open SSE stream must end when
// the server shuts down (otherwise graceful HTTP shutdown would stall on
// the connected subscriber until its deadline).
func TestCloseEndsOpenSubscriptionStreams(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()
	resp, err := s.Plan(Request{App: gen.App(gen.NewRand(24), 4, gen.Mixed)})
	if err != nil {
		t.Fatal(err)
	}

	streamClosed := make(chan error, 1)
	go func() {
		r, err := httpGet(ts.URL + "/v1/subscribe/" + resp.Hash)
		if err != nil {
			streamClosed <- err
			return
		}
		defer r.Body.Close()
		_, err = io.ReadAll(r.Body) // returns when the server ends the stream
		streamClosed <- err
	}()
	// Wait for the subscription to be registered, then close the server.
	for i := 0; s.Stats().Subscribers == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked on the open subscription stream")
	}
	select {
	case err := <-streamClosed:
		if err != nil {
			t.Fatalf("stream reader: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription stream did not end on Close")
	}
}

// TestHTTPCancelledRequestGets499: the HTTP surface maps a dead request
// context to the 499 client-closed-request status, and the error body
// still parses as the usual JSON error document.
func TestHTTPCancelledRequestGets499(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := fmt.Sprintf(`{"instance": %s, "model": "overlap"}`, readTestdata(t, "mixed6.json"))
	req := httptest.NewRequest("POST", "/v1/plan", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Errorf("no JSON error document: %s", rec.Body.String())
	}
	if st := s.Stats(); st.Cache.Len != 0 {
		t.Errorf("cache poisoned by the 499 request: %+v", st.Cache)
	}
}

// tripCtx reports itself canceled from its (allow+1)-th Err poll on,
// independent of wall clock: a solve aborted at a deterministic point.
type tripCtx struct {
	context.Context
	allow int64
	polls atomic.Int64
}

func (c *tripCtx) Err() error {
	if c.polls.Add(1) > c.allow {
		return context.Canceled
	}
	return nil
}

// TestCanceledSolveCountsItsEffort: a solve that aborts mid-search still
// adds its branch-and-bound nodes to the solver totals, as it adds its
// orchestrations to the memo totals — the totals cover every executed
// solve, not only the ones that returned a plan.
func TestCanceledSolveCountsItsEffort(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	req := Request{
		App:       gen.App(gen.NewRand(3), 7, gen.Filtering),
		Model:     plan.InOrder,
		Objective: solve.PeriodObjective,
		Method:    solve.BranchBound,
		Family:    solve.FamilyForest,
	}
	if _, err := s.PlanContext(&tripCtx{Context: context.Background(), allow: 8}, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("tripped context: got error %v", err)
	}
	st := s.Stats()
	if st.Solves != 1 || st.MemoMisses == 0 {
		t.Fatalf("want one executed solve with orchestrations: %+v", st)
	}
	if st.SolverExpanded == 0 {
		t.Errorf("the aborted solve's expanded nodes were dropped: %d orchestrations counted, 0 nodes",
			st.MemoHits+st.MemoMisses)
	}
}
