package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/solve"
)

// driftByOne returns a registered instance's hash plus an update that
// provably changes the OVERLAP period (the first service's cost jumps to
// 99, far above the instance's optimum).
func planAndTarget(t testing.TB, s *Server) (string, string, Response) {
	t.Helper()
	req := Request{App: testdataApp(t, "mixed6.json"), Model: plan.Overlap, Objective: solve.PeriodObjective}
	resp, err := s.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Hash, resp.Instance.App().Name(0), resp
}

// TestDriftDeliversExactlyOneEventPerSubscriber is acceptance criterion
// (d): a PATCH that changes the objective delivers exactly one event to
// each subscriber of that hash; a PATCH that does not change it delivers
// none. Publication happens before Drift returns, so the per-channel
// counts are deterministic.
func TestDriftDeliversExactlyOneEventPerSubscriber(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	hash, target, planned := planAndTarget(t, s)

	subA, cancelA := s.Subscribe(hash)
	subB, cancelB := s.Subscribe(hash)
	chA, chB := subA.Events(), subB.Events()
	defer cancelA()
	defer cancelB()
	if st := s.Stats(); st.Subscribers != 2 {
		t.Fatalf("subscribers = %d", st.Subscribers)
	}

	cost := rat.I(99)
	req := Request{Model: plan.Overlap, Objective: solve.PeriodObjective}
	report, err := s.Drift(hash, []Update{{Service: target, Cost: &cost}}, req)
	if err != nil {
		t.Fatal(err)
	}
	if report.NewValue.Equal(report.OldValue) {
		t.Fatalf("drift to cost 99 did not change the objective (%s)", report.OldValue)
	}

	for name, ch := range map[string]<-chan Event{"A": chA, "B": chB} {
		select {
		case ev := <-ch:
			if ev.Hash != hash || ev.NewHash != report.NewHash ||
				!ev.OldValue.Equal(report.OldValue) || !ev.NewValue.Equal(report.NewValue) {
				t.Errorf("subscriber %s: event %+v inconsistent with report", name, ev)
			}
		default:
			t.Fatalf("subscriber %s received no event", name)
		}
		select {
		case ev := <-ch:
			t.Errorf("subscriber %s received a second event: %+v", name, ev)
		default:
		}
	}
	if st := s.Stats(); st.EventsPublished != 2 || st.EventsDropped != 0 {
		t.Errorf("event counters: %+v", st)
	}

	// A no-op drift (cost re-set to its current value) re-plans to the
	// same objective: no event.
	same := planned.Instance.App().Service(0).Cost
	if _, err := s.Drift(hash, []Update{{Service: target, Cost: &same}}, req); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]<-chan Event{"A": chA, "B": chB} {
		select {
		case ev := <-ch:
			t.Errorf("subscriber %s got an event for an unchanged objective: %+v", name, ev)
		default:
		}
	}

	// Canceled subscriptions stop counting and stop receiving.
	cancelA()
	if st := s.Stats(); st.Subscribers != 1 {
		t.Errorf("subscribers after cancel = %d", st.Subscribers)
	}
}

// TestHTTPSubscribeStreamsReplanEvent drives the SSE surface end to end:
// subscribe over HTTP, PATCH the hash, and read the replan event with the
// full old/new payload.
func TestHTTPSubscribeStreamsReplanEvent(t *testing.T) {
	s, ts := newTestAPI(t)
	hash, target, _ := planAndTarget(t, s)

	resp, err := http.Get(ts.URL + "/v1/subscribe/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	// The stream opens with a comment line announcing the subscription.
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("stream preamble %q, %v", line, err)
	}

	var drift DriftResponse
	patchResp := doJSON(t, "PATCH", ts.URL+"/v1/instance/"+hash,
		fmt.Sprintf(`{"model": "overlap", "objective": "period", "updates": [{"service": %q, "cost": "99"}]}`, target), &drift)
	if patchResp.StatusCode != http.StatusOK {
		t.Fatalf("patch status %d", patchResp.StatusCode)
	}

	// Read until the event's data line (skipping blank keep-alive lines).
	var data string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading event: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimSpace(strings.TrimPrefix(line, "data: "))
			break
		}
	}
	var ev Event
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("event payload %q: %v", data, err)
	}
	if ev.Hash != hash || ev.NewHash != drift.NewHash ||
		!ev.OldValue.Equal(drift.OldValue) || !ev.NewValue.Equal(drift.NewValue) {
		t.Errorf("event %+v inconsistent with the drift response %+v", ev, drift)
	}
}

// TestSlowSubscriberDropsAreCountedAndFlagged pins the slow-consumer
// contract: a subscriber that stops draining loses exactly the events
// beyond its buffer, the hub counts them (filterd_subscribe_dropped_total
// on /metrics), and the subscription's lag counter hands the same number
// to the consumer — silently missing a re-plan is impossible.
func TestSlowSubscriberDropsAreCountedAndFlagged(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	sub, cancel := s.Subscribe("h")
	defer cancel()

	const extra = 3
	for i := 0; i < subscriberBuffer+extra; i++ {
		s.hub.publish("h", Event{Hash: "h", NewHash: "h2"})
	}
	st := s.Stats()
	if st.EventsPublished != subscriberBuffer || st.EventsDropped != extra {
		t.Fatalf("published %d dropped %d, want %d and %d",
			st.EventsPublished, st.EventsDropped, subscriberBuffer, extra)
	}
	if got := sub.Lagged(); got != extra {
		t.Fatalf("Lagged() = %d, want %d", got, extra)
	}
	if got := sub.Lagged(); got != 0 {
		t.Fatalf("second Lagged() = %d, want 0 (the counter drains)", got)
	}
	if got := len(sub.Events()); got != subscriberBuffer {
		t.Fatalf("buffered events = %d, want %d", got, subscriberBuffer)
	}
	// Draining resumes cleanly: the buffered events are the FIRST ones
	// published, not the last.
	<-sub.Events()
	s.hub.publish("h", Event{Hash: "h"})
	if got := sub.Lagged(); got != 0 {
		t.Fatalf("lag after recovery = %d, want 0", got)
	}
}

// TestHTTPSubscribeEmitsLaggedEvent drives the SSE lagged notice: a
// subscriber whose buffer overflowed receives an explicit `lagged` event
// naming the number of missed re-plans on its next wake-up, so it can
// re-fetch instead of trusting the stream.
func TestHTTPSubscribeEmitsLaggedEvent(t *testing.T) {
	s, ts := newTestAPI(t)
	hash, _, _ := planAndTarget(t, s)

	resp, err := http.Get(ts.URL + "/v1/subscribe/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("stream preamble %q, %v", line, err)
	}

	// Find the handler's subscription and lag it directly — the
	// deterministic stand-in for a real stall, which would need the TCP
	// window to fill while drift re-plans overflow the hub buffer.
	s.hub.mu.Lock()
	tp := s.hub.topics[hash]
	if tp == nil || len(tp.subs) != 1 {
		s.hub.mu.Unlock()
		t.Fatalf("no single subscription for %s", hash)
	}
	for sub := range tp.subs {
		sub.lagged.Add(3)
	}
	s.hub.mu.Unlock()
	s.hub.publish(hash, Event{Hash: hash, NewHash: "next"})

	sawReplan := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading stream: %v", err)
		}
		if strings.HasPrefix(line, "event: replan") {
			sawReplan = true
		}
		if strings.HasPrefix(line, "event: lagged") {
			if !sawReplan {
				t.Fatal("lagged notice arrived before the wake-up event")
			}
			data, err := r.ReadString('\n')
			if err != nil || strings.TrimSpace(data) != `data: {"dropped": 3}` {
				t.Fatalf("lagged payload %q, %v", data, err)
			}
			return
		}
	}
}

// TestSubscribeSinceReplaysRetainedEvents pins the hub-level resume
// contract: a subscriber resuming from a cursor replays exactly the
// retained events after it (in order), a cursor beyond the retained ring
// reports the gap, and the replay slice is atomically consistent with the
// live channel — no event is both replayed and delivered, none falls
// between.
func TestSubscribeSinceReplaysRetainedEvents(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	const extra = 5
	total := uint64(replayRing + extra)
	for i := uint64(0); i < total; i++ {
		s.hub.publish("h", Event{Hash: "h", NewHash: "next"})
	}

	// Resume from the second-to-last seen event: two replays, no gap.
	sub, replay, missed, cancel := s.SubscribeSince("h", total-2)
	if missed != 0 || len(replay) != 2 ||
		replay[0].ID != total-1 || replay[1].ID != total {
		t.Fatalf("resume at %d: replay %v missed %d, want IDs [%d %d] and 0",
			total-2, replay, missed, total-1, total)
	}
	// The live channel carries only what publishes AFTER the resume.
	if got := len(sub.Events()); got != 0 {
		t.Fatalf("live channel pre-seeded with %d events", got)
	}
	s.hub.publish("h", Event{Hash: "h"})
	ev := <-sub.Events()
	if ev.ID != total+1 {
		t.Fatalf("live event ID %d, want %d", ev.ID, total+1)
	}
	cancel()

	// Cursor 0 ("subscribed before, saw nothing") is beyond the ring by
	// exactly the evicted prefix; the whole ring replays.
	_, replay, missed, cancel2 := s.SubscribeSince("h", 0)
	defer cancel2()
	if missed != extra+1 { // events 1..extra evicted, plus the post-resume publish shifted one more out
		t.Fatalf("gap from cursor 0 = %d, want %d", missed, extra+1)
	}
	if len(replay) != replayRing || replay[0].ID != uint64(extra)+2 {
		t.Fatalf("replay len %d first ID %d, want %d starting at %d",
			len(replay), replay[0].ID, replayRing, extra+2)
	}

	// A cursor at or past the sequence head replays nothing.
	_, replay, missed, cancel3 := s.SubscribeSince("h", total+1)
	defer cancel3()
	if len(replay) != 0 || missed != 0 {
		t.Fatalf("up-to-date resume: replay %v missed %d", replay, missed)
	}
}

// TestHTTPSubscribeResumesFromLastEventID drives the SSE resume end to
// end: a subscriber reads event 1 with its id: line, disconnects, misses a
// re-plan, reconnects with Last-Event-ID: 1, and receives the missed event
// as a replay frame before anything live.
func TestHTTPSubscribeResumesFromLastEventID(t *testing.T) {
	s, ts := newTestAPI(t)
	hash, target, _ := planAndTarget(t, s)

	readFrame := func(r *bufio.Reader) (id, data string) {
		t.Helper()
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reading stream: %v", err)
			}
			if strings.HasPrefix(line, "id: ") {
				id = strings.TrimSpace(strings.TrimPrefix(line, "id: "))
			}
			if strings.HasPrefix(line, "data: ") {
				return id, strings.TrimSpace(strings.TrimPrefix(line, "data: "))
			}
		}
	}

	// First connection sees the first drift as live event 1.
	resp, err := http.Get(ts.URL + "/v1/subscribe/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(resp.Body)
	if line, _ := r.ReadString('\n'); !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("stream preamble %q", line)
	}
	var first DriftResponse
	doJSON(t, "PATCH", ts.URL+"/v1/instance/"+hash,
		fmt.Sprintf(`{"model": "overlap", "objective": "period", "updates": [{"service": %q, "cost": "99"}]}`, target), &first)
	id, _ := readFrame(r)
	if id != "1" {
		t.Fatalf("first event id %q, want 1", id)
	}
	resp.Body.Close() // disconnect; the next drift is missed

	var second DriftResponse
	doJSON(t, "PATCH", ts.URL+"/v1/instance/"+hash,
		fmt.Sprintf(`{"model": "overlap", "objective": "period", "updates": [{"service": %q, "cost": "999"}]}`, target), &second)
	if second.NewValue.Equal(first.NewValue) {
		t.Fatal("second drift must change the objective again")
	}

	// Reconnect with the resume cursor: event 2 replays immediately, with
	// its instance payload intact.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/subscribe/"+hash, nil)
	req.Header.Set("Last-Event-ID", "1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	r2 := bufio.NewReader(resp2.Body)
	if line, _ := r2.ReadString('\n'); !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("resume preamble %q", line)
	}
	id, data := readFrame(r2)
	var ev Event
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("replayed payload %q: %v", data, err)
	}
	if id != "2" || ev.NewHash != second.NewHash || !ev.NewValue.Equal(second.NewValue) {
		t.Fatalf("replayed frame id %q event %+v, want id 2 matching %+v", id, ev, second)
	}
	if ev.NewApp == nil {
		t.Fatal("replayed event lost its instance document")
	}

	// A resume gap beyond the retained ring announces itself as lagged.
	s.hub.mu.Lock()
	tp := s.hub.topics[hash]
	s.hub.mu.Unlock()
	for tp.seq < replayRing+2 {
		s.hub.publish(hash, Event{Hash: hash, NewHash: "x"})
	}
	req3, _ := http.NewRequest("GET", ts.URL+"/v1/subscribe/"+hash, nil)
	req3.Header.Set("Last-Event-ID", "0")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	r3 := bufio.NewReader(resp3.Body)
	for {
		line, err := r3.ReadString('\n')
		if err != nil {
			t.Fatalf("reading gapped stream: %v", err)
		}
		if strings.HasPrefix(line, "event: lagged") {
			data, _ := r3.ReadString('\n')
			if strings.TrimSpace(data) != `data: {"dropped": 2}` {
				t.Fatalf("gap payload %q, want dropped: 2", data)
			}
			break
		}
		if strings.HasPrefix(line, "event: replan") {
			t.Fatal("replay started before the lagged notice")
		}
	}

	// Malformed cursors are rejected outright.
	req4, _ := http.NewRequest("GET", ts.URL+"/v1/subscribe/"+hash, nil)
	req4.Header.Set("Last-Event-ID", "not-a-number")
	resp4, err := http.DefaultClient.Do(req4)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID status %d, want 400", resp4.StatusCode)
	}
}

// TestHTTPSubscribeUnknownHash404s: subscriptions require a registered
// instance.
func TestHTTPSubscribeUnknownHash404s(t *testing.T) {
	_, ts := newTestAPI(t)
	resp, err := http.Get(ts.URL + "/v1/subscribe/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
