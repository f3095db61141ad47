package cluster

// Shutdown leaves nothing running: a router that forwarded, probed and
// failed over, and a gossip agent that ran its loop, return the process to
// the goroutine count it had before they were created.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// goroutinesBackTo polls runtime.NumGoroutine until it is back at base,
// failing with every goroutine's stack once the deadline passes.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before New:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// serialReplica is newReplica with one solver slot. service.New starts no
// goroutine of its own, so the count taken as the baseline is settled.
func serialReplica(t *testing.T) *replica {
	t.Helper()
	s := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(service.Handler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return &replica{srv: s, ts: ts}
}

func TestRouterCloseLeavesNoGoroutine(t *testing.T) {
	a, b := serialReplica(t), serialReplica(t)
	local := service.New(service.Config{Workers: 1})
	t.Cleanup(local.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // a peer that refuses connections: forwards fail over

	base := runtime.NumGoroutine()
	rt, err := New(Config{Peers: []string{a.ts.URL, b.ts.URL, deadURL}, Local: local, Replicas: 1, HealthInterval: time.Millisecond, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mixed6.json", "webquery8.json"} {
		for _, model := range []string{"overlap", "inorder", "outorder"} {
			body := fmt.Sprintf(`{"instance": %s, "model": %q}`, readTestdata(t, name), model)
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", name, model, rec.Code, rec.Body)
			}
		}
	}
	if st := rt.Stats(); st.Forwarded == 0 || st.Failovers == 0 {
		t.Fatalf("want forwards and failovers: %+v", st)
	}
	rt.Close()
	goroutinesBackTo(t, base)
}

func TestGossipCloseLeavesNoGoroutine(t *testing.T) {
	a, b := serialReplica(t), serialReplica(t)
	resp := post(t, b.ts.URL+"/v1/plan", fmt.Sprintf(`{"instance": %s}`, readTestdata(t, "mixed6.json")))
	resp.Body.Close()

	base := runtime.NumGoroutine()
	g, err := NewGossip(GossipConfig{Peers: []string{b.ts.URL}, Local: a.srv, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	for g.Stats().Exchanges < 3 {
		runtime.Gosched()
	}
	g.Close()
	goroutinesBackTo(t, base)
}
