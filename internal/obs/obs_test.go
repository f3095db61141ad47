package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSanitizeID(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"abc123", "abc123"},
		{"req.id-4_x", "req.id-4_x"},
		{"has space", ""},
		{"semi;colon", ""},
		{"new\nline", ""},
		{"<script>", ""},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("a", 65), ""},
	}
	for _, c := range cases {
		if got := SanitizeID(c.in); got != c.want {
			t.Errorf("SanitizeID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNewIDShape(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("ID lengths %d, %d, want 16", len(a), len(b))
	}
	if a == b {
		t.Fatalf("two fresh IDs collided: %s", a)
	}
	if SanitizeID(a) != a {
		t.Fatalf("generated ID %q does not survive its own sanitizer", a)
	}
}

// TestRingEvictionAndOrder fills a 3-slot ring with five spans and checks
// the snapshot keeps the newest three, most recent first.
func TestRingEvictionAndOrder(t *testing.T) {
	tr := NewTracer(3)
	for i, id := range []string{"a", "b", "c", "d", "e"} {
		sp := tr.Start("GET /x", id)
		sp.End(200 + i)
	}
	if got := tr.Total(); got != 5 {
		t.Fatalf("total %d, want 5", got)
	}
	views := tr.Snapshot()
	if len(views) != 3 {
		t.Fatalf("snapshot length %d, want 3", len(views))
	}
	for i, want := range []string{"e", "d", "c"} {
		if views[i].ID != want {
			t.Errorf("snapshot[%d].ID = %q, want %q", i, views[i].ID, want)
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Start("GET /x", "once")
	sp.End(200)
	sp.End(500) // must not double-record or overwrite the status
	if got := tr.Total(); got != 1 {
		t.Fatalf("total %d after double End, want 1", got)
	}
	v := tr.Snapshot()[0]
	if v.Status != 200 {
		t.Fatalf("status %d, want the first End's 200", v.Status)
	}
}

func TestSpanAnnotations(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.Start("POST /v1/plan", "annotated")
	sp.SetHash("deadbeef", "deadbeef|inorder|period")
	sp.SetOutcome("hit", "cache")
	sp.SetShard(7, "http://peer")
	sp.SetServedBy("http://peer")
	sp.Observe(PhaseCanon, 2*time.Millisecond)
	sp.Observe(PhaseCanon, 3*time.Millisecond) // accumulates
	sp.SetSolver(10, 4, 6)
	sp.End(500)
	v := tr.Snapshot()[0]
	if v.Hash != "deadbeef" || v.Outcome != "hit" || v.Source != "cache" {
		t.Errorf("hash/outcome/source = %q/%q/%q", v.Hash, v.Outcome, v.Source)
	}
	if v.Shard != 7 || v.Owner != "http://peer" || v.ServedBy != "http://peer" {
		t.Errorf("shard/owner/served_by = %v/%q/%q", v.Shard, v.Owner, v.ServedBy)
	}
	if got := v.PhaseSeconds["canon"]; got != (5 * time.Millisecond).Seconds() {
		t.Errorf("canon phase %v, want 0.005", got)
	}
	if v.Solver == nil || v.Solver.Expanded != 10 || v.Solver.Pruned != 4 || v.Solver.Evals != 6 {
		t.Errorf("solver view %+v", v.Solver)
	}
	if v.Status != 500 {
		t.Errorf("status = %d", v.Status)
	}
}

// TestNilSafety drives every span and tracer method through nil receivers
// and disabled tracers — the hot path calls them unconditionally.
func TestNilSafety(t *testing.T) {
	var sp *Span
	if sp.ID() != "" {
		t.Error("nil span ID not empty")
	}
	sp.SetHash("h", "k")
	sp.SetOutcome("miss", "solve")
	sp.SetShard(1, "o")
	sp.SetServedBy("x")
	sp.Observe(PhaseSolve, time.Millisecond)
	sp.SetSolver(1, 2, 3)
	sp.End(200)

	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer enabled")
	}
	if tr.Total() != 0 || tr.Capacity() != 0 || tr.Snapshot() != nil {
		t.Error("nil tracer not empty")
	}
	s2 := tr.Start("GET /x", "id")
	s2.SetOutcome("miss", "solve")
	s2.End(200) // records nowhere

	disabled := NewTracer(0)
	if disabled.Enabled() {
		t.Error("zero-capacity tracer enabled")
	}
	disabled.Start("GET /x", "id").End(200)
	if disabled.Total() != 0 {
		t.Error("disabled tracer recorded a span")
	}
}

func TestMiddlewareGeneratesAndEchoes(t *testing.T) {
	tr := NewTracer(4)
	h := Middleware(tr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := From(r.Context())
		if sp == nil {
			t.Error("handler context has no span")
			return
		}
		// The header copy carries the canonical ID for proxy layers.
		if got := r.Header.Get(HeaderRequestID); got != sp.ID() {
			t.Errorf("request header %q != span ID %q", got, sp.ID())
		}
		w.WriteHeader(http.StatusTeapot)
	}))

	// No inbound ID: one is generated and echoed.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	id := rec.Header().Get(HeaderRequestID)
	if id == "" || SanitizeID(id) != id {
		t.Fatalf("generated header %q", id)
	}
	if v := tr.Snapshot()[0]; v.ID != id || v.Status != http.StatusTeapot || v.Route != "GET /v1/stats" {
		t.Fatalf("span %+v, want id=%s status=418", v, id)
	}

	// Valid inbound ID: honored verbatim.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	req.Header.Set(HeaderRequestID, "client-id-42")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(HeaderRequestID); got != "client-id-42" {
		t.Fatalf("inbound ID not echoed: %q", got)
	}

	// Malformed inbound ID: replaced, never reflected back.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/v1/stats", nil)
	req.Header.Set(HeaderRequestID, "bad id;\n")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(HeaderRequestID); got == "" || SanitizeID(got) != got || got == "bad id;\n" {
		t.Fatalf("malformed inbound ID handled as %q", got)
	}
}

// TestMiddlewareEchoBeforeHandler pins the shed contract: the response
// carries the ID even when the handler writes an error without touching
// headers (429/503 sheds, panicking-adjacent paths).
func TestMiddlewareEchoBeforeHandler(t *testing.T) {
	h := Middleware(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/plan", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get(HeaderRequestID) == "" {
		t.Fatal("shed response lost the request ID")
	}
}

// TestMiddlewareNestedPassthrough pins the router-over-service layering:
// the inner middleware must not start a second span or mint a second ID.
func TestMiddlewareNestedPassthrough(t *testing.T) {
	innerTracer := NewTracer(4)
	var innerSpan *Span
	inner := Middleware(innerTracer, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		innerSpan = From(r.Context())
		w.WriteHeader(http.StatusOK)
	}))
	outerTracer := NewTracer(4)
	var outerSpan *Span
	outer := Middleware(outerTracer, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		outerSpan = From(r.Context())
		inner.ServeHTTP(w, r)
	}))
	rec := httptest.NewRecorder()
	outer.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if innerSpan == nil || innerSpan != outerSpan {
		t.Fatal("nested middleware did not reuse the outer span")
	}
	if got := innerTracer.Total(); got != 0 {
		t.Fatalf("inner tracer recorded %d spans, want 0 (outer owns the span)", got)
	}
	if got := outerTracer.Total(); got != 1 {
		t.Fatalf("outer tracer recorded %d spans, want 1", got)
	}
}

// TestStatusReadsTheOneRecorder: handlers read the committed status from
// the middleware's writer — the outer layer's when middlewares nest, a
// fresh one when the outer layer serves into a writer of its own (the
// router's batch fan-out) — so no layer stacks a second recorder.
func TestStatusReadsTheOneRecorder(t *testing.T) {
	var sawWriter http.ResponseWriter
	inner := Middleware(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := Status(w); got != http.StatusOK {
			t.Errorf("status before any write = %d, want 200", got)
		}
		w.WriteHeader(http.StatusTeapot)
		if got := Status(w); got != http.StatusTeapot {
			t.Errorf("status after WriteHeader(418) = %d", got)
		}
		sawWriter = w
	}))
	var outerWriter http.ResponseWriter
	var sideways bool
	outer := Middleware(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		outerWriter = w
		if sideways {
			w = httptest.NewRecorder()
		}
		inner.ServeHTTP(w, r)
	}))
	outer.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/stats", nil))
	if sawWriter != outerWriter {
		t.Error("nested middleware wrapped the outer recorder a second time")
	}
	sideways = true
	outer.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/stats", nil))
	if sawWriter == outerWriter {
		t.Error("a writer of the outer layer's own was not given a recorder")
	}
	if got := Status(httptest.NewRecorder()); got != http.StatusOK {
		t.Errorf("status of a foreign writer = %d, want 200", got)
	}
}

func TestTracerHandler(t *testing.T) {
	tr := NewTracer(2)
	tr.Start("GET /x", "h1").End(200)
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var doc struct {
		Enabled  bool       `json:"enabled"`
		Capacity int        `json:"capacity"`
		Total    int64      `json:"total"`
		Spans    []SpanView `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Enabled || doc.Capacity != 2 || doc.Total != 1 || len(doc.Spans) != 1 {
		t.Fatalf("document %+v", doc)
	}

	// Disabled (nil) tracer still answers, with an empty document.
	var nilTr *Tracer
	rec = httptest.NewRecorder()
	nilTr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Enabled || doc.Spans == nil || len(doc.Spans) != 0 {
		t.Fatalf("disabled document %+v", doc)
	}
}

func TestFailoverMark(t *testing.T) {
	ctx := httptest.NewRequest("GET", "/", nil).Context()
	if IsFailover(ctx) {
		t.Fatal("fresh context marked failover")
	}
	if !IsFailover(MarkFailover(ctx)) {
		t.Fatal("marked context not reported")
	}
	if IsFailover(nil) {
		t.Fatal("nil context marked failover")
	}
}
