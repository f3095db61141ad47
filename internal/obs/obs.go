// Package obs is the observability spine of the planning service: request
// IDs, per-request spans, and a bounded in-process trace ring, all
// dependency-free (DESIGN.md §7).
//
// Every HTTP request entering the router or a replica gets one ID —
// honoring an inbound X-Filterd-Request-Id so a client-chosen or
// router-assigned ID survives the whole forwarding chain — and one Span
// carried in the request context. The layers below annotate that span as
// the request traverses them: the router records shard, owner and
// served-by; the service records the canonical hash, the cache outcome and
// the phase timings (canon / cache / queue / solve / orchestrate / store);
// the solver's search-effort counters are attached when a solve actually
// ran. Ended spans land in a bounded ring buffer served as JSON at
// GET /debug/requests — the flight recorder for "what did request X cost
// and who answered it".
//
// Tracing is observational by construction: a Span never influences
// routing, caching or solving, so answers are bit-identical with tracing
// on, off, or absent. All Span methods are nil-receiver-safe no-ops and
// allocation-free — code below the HTTP layer annotates unconditionally
// without caring whether a span exists, and the cache-hit hot path stays
// zero-allocation when tracing is disabled (pinned by the service's
// AllocBudget guard).
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// HeaderRequestID is the request-correlation header: honored inbound,
// echoed on every response, and propagated on every forward.
const HeaderRequestID = "X-Filterd-Request-Id"

// maxIDLen bounds an inbound request ID; longer (or non-token) values are
// replaced, so a hostile client cannot inject log noise or unbounded
// strings through the header.
const maxIDLen = 64

// NewID returns a fresh request ID: 16 hex characters of crypto/rand.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps
		// requests flowing (correlation degrades, serving does not).
		return "00000000826f7273"
	}
	return hex.EncodeToString(b[:])
}

// SanitizeID validates an inbound request ID: IDs up to 64 characters of
// [A-Za-z0-9._-] pass through unchanged, anything else (empty included)
// returns "" and the caller generates a fresh one.
func SanitizeID(s string) string {
	if len(s) == 0 || len(s) > maxIDLen {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return s
}

// Phase indexes one timed segment of a request's life. The enum indexes a
// fixed array in Span, so recording a phase is a field write — no string
// keys, no map, no allocation.
type Phase int

const (
	// PhaseCanon is instance canonicalization (hashing included).
	PhaseCanon Phase = iota
	// PhaseCache is the plan-cache interaction: for a hit, essentially the
	// whole service time; for a miss, the singleflight bookkeeping around
	// the solve.
	PhaseCache
	// PhaseQueue is the wait between solve admission and the solve taking
	// a solver slot.
	PhaseQueue
	// PhaseSolve is the solver wall time (orchestration included).
	PhaseSolve
	// PhaseOrchestrate is the orchestration share of the solve: the time
	// spent scoring candidate graphs (a subset of PhaseSolve).
	PhaseOrchestrate
	// PhaseStore is the write-through persistence of a fresh solve.
	PhaseStore

	phaseCount
)

// String names the phase for the /debug/requests JSON and metric labels.
func (p Phase) String() string {
	switch p {
	case PhaseCanon:
		return "canon"
	case PhaseCache:
		return "cache"
	case PhaseQueue:
		return "queue"
	case PhaseSolve:
		return "solve"
	case PhaseOrchestrate:
		return "orchestrate"
	case PhaseStore:
		return "store"
	default:
		return "unknown"
	}
}

// Span is one request's trace record. Created by Middleware, carried in
// the request context, annotated by the routing and serving layers, and
// recorded into the creating Tracer's ring at End. All methods are safe
// for concurrent use (a batch's fan-out goroutines touch one span) and
// are nil-receiver-safe no-ops, so annotation sites never branch on
// whether tracing is attached.
type Span struct {
	tracer *Tracer

	mu       sync.Mutex
	id       string
	route    string
	start    time.Time
	duration time.Duration
	status   int
	hash     string
	key      string
	outcome  string
	source   string
	shard    int
	owner    string
	servedBy string
	phases   [phaseCount]time.Duration
	// Solver effort of the serving solve (zero when served without one).
	expanded, pruned, evals int64
	ended                   bool
}

// ID returns the request ID ("" on a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id
}

// SetHash records the canonical hash and full cache key.
func (s *Span) SetHash(hash, key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.hash, s.key = hash, key
	s.mu.Unlock()
}

// SetOutcome records how the request was served: the cache outcome
// (miss/hit/coalesced) and the plan source (cache/store/solve/failover).
func (s *Span) SetOutcome(outcome, source string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.outcome, s.source = outcome, source
	s.mu.Unlock()
}

// SetShard records the routing decision: the shard index and its owner.
func (s *Span) SetShard(shard int, owner string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.shard, s.owner = shard, owner
	s.mu.Unlock()
}

// SetServedBy records who produced the answer (a peer URL, or the
// router's "unroutable"/"local-failover" verdicts).
func (s *Span) SetServedBy(by string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.servedBy = by
	s.mu.Unlock()
}

// SetSolver records the search effort behind the answer.
func (s *Span) SetSolver(expanded, pruned, evals int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.expanded, s.pruned, s.evals = expanded, pruned, evals
	s.mu.Unlock()
}

// Observe accumulates d into a phase timer (phases can be visited more
// than once — e.g. the drift path solves twice).
func (s *Span) Observe(p Phase, d time.Duration) {
	if s == nil || p < 0 || p >= phaseCount {
		return
	}
	s.mu.Lock()
	s.phases[p] += d
	s.mu.Unlock()
}

// End closes the span with the response status and records it into the
// creating tracer's ring (idempotent; only the first End lands).
func (s *Span) End(status int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.status = status
	s.duration = time.Since(s.start)
	t := s.tracer
	s.mu.Unlock()
	if t.Enabled() {
		t.record(s)
	}
}

// SolverView is the search-effort block of a SpanView.
type SolverView struct {
	Expanded int64 `json:"expanded"`
	Pruned   int64 `json:"pruned"`
	Evals    int64 `json:"orchestrations"`
}

// SpanView is the JSON form of one recorded span.
type SpanView struct {
	ID              string             `json:"id"`
	Route           string             `json:"route"`
	Start           time.Time          `json:"start"`
	DurationSeconds float64            `json:"duration_seconds"`
	Status          int                `json:"status"`
	Hash            string             `json:"hash,omitempty"`
	Key             string             `json:"key,omitempty"`
	Outcome         string             `json:"outcome,omitempty"`
	Source          string             `json:"source,omitempty"`
	Shard           int                `json:"shard"`
	Owner           string             `json:"owner,omitempty"`
	ServedBy        string             `json:"served_by,omitempty"`
	PhaseSeconds    map[string]float64 `json:"phase_seconds,omitempty"`
	Solver          *SolverView        `json:"solver,omitempty"`
}

// view snapshots the span for reporting.
func (s *Span) view() SpanView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := SpanView{
		ID:              s.id,
		Route:           s.route,
		Start:           s.start,
		DurationSeconds: s.duration.Seconds(),
		Status:          s.status,
		Hash:            s.hash,
		Key:             s.key,
		Outcome:         s.outcome,
		Source:          s.source,
		Shard:           s.shard,
		Owner:           s.owner,
		ServedBy:        s.servedBy,
	}
	for p := Phase(0); p < phaseCount; p++ {
		if s.phases[p] > 0 {
			if v.PhaseSeconds == nil {
				v.PhaseSeconds = make(map[string]float64, int(phaseCount))
			}
			v.PhaseSeconds[p.String()] = s.phases[p].Seconds()
		}
	}
	if s.expanded != 0 || s.pruned != 0 || s.evals != 0 {
		v.Solver = &SolverView{Expanded: s.expanded, Pruned: s.pruned, Evals: s.evals}
	}
	return v
}

// Tracer owns the bounded ring of ended spans. A nil or zero-capacity
// tracer is "tracing disabled": Start still issues spans (the request ID
// must exist regardless), End simply drops them.
type Tracer struct {
	mu    sync.Mutex
	buf   []*Span
	next  int
	total int64
	cap   int
}

// NewTracer returns a tracer keeping the most recent capacity spans
// (capacity <= 0: tracing disabled — spans are issued but never kept).
func NewTracer(capacity int) *Tracer {
	if capacity < 0 {
		capacity = 0
	}
	return &Tracer{cap: capacity}
}

// Enabled reports whether ended spans are recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.cap > 0 }

// Capacity returns the ring bound (0 when disabled).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.cap
}

// Start issues the span of one request. Safe on a nil tracer — the span
// works normally and is dropped at End.
func (t *Tracer) Start(route, id string) *Span {
	return &Span{tracer: t, route: route, id: id, start: time.Now(), shard: -1}
}

// record appends an ended span to the ring, evicting the oldest beyond
// capacity.
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.next = (t.next + 1) % t.cap
	}
	t.total++
}

// Total counts the spans ever recorded (evicted ones included).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the recorded spans, most recent first.
func (t *Tracer) Snapshot() []SpanView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, 0, len(t.buf))
	// Ring order: buf[next:] are the oldest entries, buf[:next] the newest.
	for i := 0; i < len(t.buf); i++ {
		spans = append(spans, t.buf[(t.next+i)%len(t.buf)])
	}
	t.mu.Unlock()
	out := make([]SpanView, 0, len(spans))
	for i := len(spans) - 1; i >= 0; i-- {
		out = append(out, spans[i].view())
	}
	return out
}

// Handler serves the ring as JSON — the GET /debug/requests endpoint.
// Always answers (an empty, "enabled": false document when tracing is
// disabled), so probing the endpoint never needs to special-case 404s.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := struct {
			Enabled  bool       `json:"enabled"`
			Capacity int        `json:"capacity"`
			Total    int64      `json:"total"`
			Spans    []SpanView `json:"spans"`
		}{
			Enabled:  t.Enabled(),
			Capacity: t.Capacity(),
			Total:    t.Total(),
			Spans:    t.Snapshot(),
		}
		if out.Spans == nil {
			out.Spans = []SpanView{}
		}
		writeJSON(w, out)
	})
}

// writeJSON writes v as an indented JSON document (a debug endpoint —
// human eyes first).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type ctxKey int

const (
	spanKey ctxKey = iota
	failoverKey
)

// WithSpan attaches a span to a context.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey, s)
}

// From returns the span carried by ctx, or nil. Reading is
// allocation-free, so hot paths may call it unconditionally.
func From(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// MarkFailover marks the context of a request the router failed over to
// its local service, so the serving layer reports source "failover"
// regardless of whether tracing is enabled. Only the (rare) failover path
// pays the context allocation.
func MarkFailover(ctx context.Context) context.Context {
	return context.WithValue(ctx, failoverKey, true)
}

// IsFailover reports whether MarkFailover ran on this request's context.
func IsFailover(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	b, _ := ctx.Value(failoverKey).(bool)
	return b
}

// statusRecorder captures the committed status for Span.End and for the
// handlers' own request counters (Status), forwarding Flush so traced SSE
// streams still flush event by event.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusRecorder) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Status returns the status committed so far on a ResponseWriter that
// Middleware handed to its handler (200 when nothing was written yet, as
// net/http would send). Handlers that count requests by status read it
// here instead of stacking a recorder of their own.
func Status(w http.ResponseWriter) int {
	if sw, ok := w.(*statusRecorder); ok && sw.code != 0 {
		return sw.code
	}
	return http.StatusOK
}

// Middleware is the request-ID and span boundary of one HTTP surface:
// it resolves the request ID (inbound header honored, sanitized, or
// freshly generated), echoes it on the response BEFORE the handler runs —
// so sheds, failures and streamed responses all carry it — starts a span
// in the request context, and ends the span with the committed status.
//
// Layered surfaces compose: when the context already carries a span (the
// cluster router serving its embedded local service), the inner middleware
// passes straight through — one request, one ID, one span, annotated by
// every layer it crossed — and reuses the outer layer's status recorder
// (adding one only when the outer layer wrote into a writer of its own, as
// the router's batch fan-out does).
func Middleware(t *Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if From(r.Context()) != nil {
			if _, ok := w.(*statusRecorder); !ok {
				w = &statusRecorder{ResponseWriter: w}
			}
			next.ServeHTTP(w, r)
			return
		}
		id := SanitizeID(r.Header.Get(HeaderRequestID))
		if id == "" {
			id = NewID()
			// Downstream layers (forwards, logs) read the canonical ID from
			// the span; the header copy keeps body-level proxying honest.
			r.Header.Set(HeaderRequestID, id)
		}
		w.Header().Set(HeaderRequestID, id)
		sp := t.Start(r.Method+" "+r.URL.Path, id)
		sw := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(WithSpan(r.Context(), sp)))
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		sp.End(code)
	})
}

// BuildInfo returns the binary's module version and VCS revision
// (shortened), from runtime/debug.ReadBuildInfo. Builds without VCS
// stamping report ("devel", "unknown").
func BuildInfo() (version, revision string) {
	version, revision = "devel", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, revision
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		version = v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			revision = s.Value
			if len(revision) > 12 {
				revision = revision[:12]
			}
		}
	}
	return version, revision
}
