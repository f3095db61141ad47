package service

// HTTP/JSON surface of the planning service, mounted by cmd/filterd and
// exercised end to end by examples/service. The wire format reuses the
// repository's existing codecs: instances are workflow.App JSON (the same
// files filterplan -in reads), schedules are oplist.List JSON (the same
// exact-rational operation lists the library emits everywhere else), and
// the option vocabulary is the shared cliopt one, so every name accepted
// on a CLI flag is accepted in a request body. The documents themselves
// are declared once, in wire.go.
//
//	POST  /v1/plan            plan one instance
//	POST  /v1/batch           plan many instances in one request
//	PATCH /v1/instance/{hash} drift re-planning against a registered instance
//	GET   /v1/subscribe/{hash} server-sent re-plan events for a registered instance
//	GET   /v1/explain/{hash}  provenance of the last serve: source, solver counters, timings
//	GET   /v1/healthz         liveness plus build identity
//	GET   /metrics            every counter and gauge, Prometheus text format (internal/metrics)
//	GET   /debug/requests     recent request spans (internal/obs ring)
//
// Every handler runs under the request's context: a client that
// disconnects or times out aborts its own solve (the search loops poll
// the context), the aborted error is never cached, and the response
// status is 499 (client closed request, the de-facto convention) — a dead
// client stops burning the pool.
//
// Every response — success, shed, failure, stream — carries
// X-Filterd-Request-Id (obs.Middleware echoes it before handlers run),
// and JSON error bodies repeat the id for support correlation.
import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/plancache"
)

// maxBodyBytes bounds request bodies (instances are small; 4 MiB is
// generous even for batches).
const maxBodyBytes = 4 << 20

// StatusClientClosedRequest is the response status of a request whose own
// context died mid-solve (canceled or past its deadline). 499 is nginx's
// convention; Go's stdlib has no name for it.
const StatusClientClosedRequest = 499

// errStatus maps a service error to its response status: shed admissions
// are 429 (retry after the burst), a closing server is 503, context death
// is the client's doing (499), validation problems are 422, everything
// else stays a server-side 500.
func errStatus(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return StatusClientClosedRequest
	}
	return fallback
}

// body returns the encoded POST /v1/plan answer of resp: the bytes its
// cache entry owns for resp.Outcome, encoded on first use.
func (resp Response) body(req Request) ([]byte, error) {
	b := &resp.entry.bodies[resp.Outcome]
	b.once.Do(func() { b.data, b.err = resp.entry.encode(resp.Outcome, req) })
	return b.data, b.err
}

// encode renders the entry's answer for one outcome — the only encoder of
// plan responses. req supplies the model and objective the cache key pins.
func (e *cacheEntry) encode(outcome plancache.Outcome, req Request) ([]byte, error) {
	sched, err := json.Marshal(e.sol.Sched.List)
	if err != nil {
		return nil, fmt.Errorf("service: encoding schedule: %w", err)
	}
	app := e.inst.App()
	g := PlanGraph{Services: make([]string, app.N())}
	for i := 0; i < app.N(); i++ {
		g.Services[i] = app.Name(i)
	}
	for _, edge := range e.sol.Graph.Graph().Edges() {
		g.Edges = append(g.Edges, [2]string{app.Name(edge[0]), app.Name(edge[1])})
	}
	var buf bytes.Buffer
	err = encodeJSON(&buf, PlanResponse{
		Hash:    e.inst.Hash(),
		Cached:  outcome == plancache.Hit,
		Outcome: outcome.String(),
		// Lowercased so the response vocabulary matches the request one
		// (cliopt parses case-insensitively, clients may compare exactly).
		Model:     strings.ToLower(req.Model.String()),
		Objective: req.Objective.String(),
		Value:     e.sol.Value,
		Exact:     e.sol.Exact,
		Period:    e.sol.Sched.List.Period(),
		Latency:   e.sol.Sched.List.Latency(),
		Graph:     g,
		Schedule:  sched,
	})
	if err != nil {
		return nil, fmt.Errorf("service: encoding plan response: %w", err)
	}
	return buf.Bytes(), nil
}

// encodeEvent renders one hub event as an SSE frame: the per-hash event ID
// (the client echoes it as Last-Event-ID on reconnect) plus the replan
// payload.
func encodeEvent(ev Event) ([]byte, error) {
	data, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf("id: %d\nevent: replan\ndata: %s\n\n", ev.ID, data)), nil
}

// instrument wraps a route handler with the request counter and latency
// histogram (subscribe streams record their whole lifetime — their
// latency series measures stream duration, not time-to-first-byte). The
// usual series are resolved once, here (Vec.With builds a map key per
// call); the status is the one obs.Middleware's recorder committed.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	ok := s.mRequests.With(route, "200")
	latency := s.mLatency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		if code := obs.Status(w); code == http.StatusOK {
			ok.Inc()
		} else {
			s.mRequests.With(route, strconv.Itoa(code)).Inc()
		}
		latency.Observe(time.Since(start).Seconds())
	}
}

// Handler returns the HTTP API of the server.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.metrics.Handler())
	mux.HandleFunc("POST /v1/plan", s.instrument("plan", func(w http.ResponseWriter, r *http.Request) {
		req, err := DecodePlanRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := s.PlanContext(r.Context(), req)
		if err != nil {
			WriteError(w, errStatus(err, http.StatusUnprocessableEntity), err)
			return
		}
		body, err := resp.body(req)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		writeBody(w, http.StatusOK, body)
	}))

	mux.HandleFunc("POST /v1/batch", s.instrument("batch", func(w http.ResponseWriter, r *http.Request) {
		var doc batchRequestJSON
		if !decodeBody(w, r, &doc) {
			return
		}
		if len(doc.Requests) == 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("service: batch has no requests"))
			return
		}
		// Decode every item first so a malformed item fails fast without
		// burning solver time on its neighbors.
		reqs := make([]Request, len(doc.Requests))
		decodeErrs := make([]error, len(doc.Requests))
		valid := make([]Request, 0, len(doc.Requests))
		for i := range doc.Requests {
			reqs[i], decodeErrs[i] = doc.Requests[i].request()
			if decodeErrs[i] == nil {
				valid = append(valid, reqs[i])
			}
		}
		results := s.PlanBatchContext(r.Context(), valid)
		out := BatchResponse{Results: make([]BatchItem, len(doc.Requests))}
		vi := 0
		for i := range doc.Requests {
			if decodeErrs[i] != nil {
				out.Results[i] = BatchItem{Error: decodeErrs[i].Error()}
				continue
			}
			res := results[vi]
			vi++
			if res.Err != nil {
				out.Results[i] = BatchItem{Error: res.Err.Error()}
				continue
			}
			plan, err := res.Response.body(reqs[i])
			if err != nil {
				out.Results[i] = BatchItem{Error: err.Error()}
				continue
			}
			out.Results[i] = BatchItem{Plan: plan}
		}
		WriteJSON(w, http.StatusOK, out)
	}))

	mux.HandleFunc("PATCH /v1/instance/{hash}", s.instrument("drift", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if _, ok := s.Instance(hash); !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("service: no registered instance with hash %s", hash))
			return
		}
		var doc DriftRequest
		if !decodeBody(w, r, &doc) {
			return
		}
		params, err := doc.Params.Request(nil)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		report, err := s.DriftContext(r.Context(), hash, doc.Updates, params)
		if err != nil {
			WriteError(w, errStatus(err, http.StatusUnprocessableEntity), err)
			return
		}
		plan, err := report.Response.body(params)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		out := DriftResponse{
			OldHash:   report.OldHash,
			NewHash:   report.NewHash,
			OldValue:  report.OldValue,
			NewValue:  report.NewValue,
			WarmStart: report.WarmStart,
			Plan:      plan,
		}
		if report.WarmStart {
			inc := report.Incumbent
			out.Incumbent = &inc
		}
		WriteJSON(w, http.StatusOK, out)
	}))

	mux.HandleFunc("GET /v1/subscribe/{hash}", s.instrument("subscribe", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if _, ok := s.Instance(hash); !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("service: no registered instance with hash %s", hash))
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			WriteError(w, http.StatusInternalServerError, fmt.Errorf("service: streaming unsupported by this server"))
			return
		}
		// Last-Event-ID (the SSE resume convention) replays the retained
		// events fired between a disconnect and this reconnect; a gap
		// beyond the retained history is reported as a lagged event, the
		// same "re-fetch the plan" signal as an in-connection overflow.
		// Without the header the stream is live-only, per the SSE spec.
		sinceID := liveOnly
		if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
			id, err := strconv.ParseUint(lastID, 10, 64)
			if err != nil {
				WriteError(w, http.StatusBadRequest, fmt.Errorf("service: parsing Last-Event-ID: %w", err))
				return
			}
			sinceID = id
		}
		sub, replay, missed, cancel := s.SubscribeSince(hash, sinceID)
		events := sub.Events()
		defer cancel()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		// An immediate comment line tells the client the stream is live
		// before the first (possibly much later) re-plan event.
		fmt.Fprintf(w, ": subscribed %s\n\n", hash)
		if missed > 0 {
			fmt.Fprintf(w, "event: lagged\ndata: {\"dropped\": %d}\n\n", missed)
		}
		for _, ev := range replay {
			frame, err := encodeEvent(ev)
			if err != nil {
				slog.Warn("service: encoding event failed",
					"request_id", w.Header().Get(obs.HeaderRequestID), "err", err)
				return
			}
			w.Write(frame)
		}
		fl.Flush()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-s.Closing():
				// Server shutdown ends the stream so a connected
				// subscriber cannot stall http.Server.Shutdown to its
				// deadline.
				return
			case ev := <-events:
				frame, err := encodeEvent(ev)
				if err != nil {
					slog.Warn("service: encoding event failed",
						"request_id", w.Header().Get(obs.HeaderRequestID), "err", err)
					return
				}
				w.Write(frame)
				// A full buffer dropped events against this subscriber
				// while it stalled: tell it, so it re-fetches the plan
				// instead of trusting the stream to be complete. Drops can
				// only happen with a full buffer, so the wake-up event that
				// carries this notice always exists.
				if n := sub.Lagged(); n > 0 {
					fmt.Fprintf(w, "event: lagged\ndata: {\"dropped\": %d}\n\n", n)
				}
				fl.Flush()
			}
		}
	}))

	mux.HandleFunc("GET /v1/explain/{hash}", s.instrument("explain", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		e, ok := s.Explain(hash)
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("service: no explain record for hash %s", hash))
			return
		}
		WriteJSON(w, http.StatusOK, explainResponse(e))
	}))

	mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, Healthz{Status: "ok", Version: s.version, Revision: s.revision})
	}))

	// Replica synchronization (sync.go): one push-pull exchange per POST,
	// driven by the anti-entropy loop of internal/cluster; a newly
	// (re)joined owner converges by iterating exchanges.
	mux.HandleFunc("POST /v1/sync", s.instrument("sync", func(w http.ResponseWriter, r *http.Request) {
		var doc SyncRequest
		if !decodeBody(w, r, &doc) {
			return
		}
		WriteJSON(w, http.StatusOK, s.SyncExchange(doc))
	}))

	// The span ring: always mounted (it answers "enabled": false when
	// tracing is off), so probing the endpoint needs no special-casing.
	mux.Handle("GET /debug/requests", s.tracer.Handler())

	// The middleware is the request-ID and span boundary: it echoes
	// X-Filterd-Request-Id before any handler runs (so sheds, errors and
	// SSE streams all carry it) and passes through untouched when an outer
	// layer — the cluster router — already owns the request's span.
	return obs.Middleware(s.tracer, mux)
}

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(into); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("service: parsing request body: %w", err))
		return false
	}
	return true
}

// encodeJSON writes v the way every JSON body of this API is rendered:
// two-space indent, trailing newline.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteJSON encodes v in full before committing anything, so the response
// carries a Content-Length and an encode failure is a clean 500 with the
// request id, never a truncated body under a 200 status line. (Exported
// for the cluster router, which answers in the same rendering.)
func WriteJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := encodeJSON(&buf, v); err != nil {
		slog.Warn("service: encoding response failed",
			"request_id", w.Header().Get(obs.HeaderRequestID), "err", err)
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("service: encoding response: %w", err))
		return
	}
	writeBody(w, code, buf.Bytes())
}

// writeBody commits an already encoded JSON body.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// retryAfterSeconds is the Retry-After value of shed (429) and
// shutting-down (503) responses: bursts are short-lived relative to
// solves, so one second is a reasonable first backoff.
const retryAfterSeconds = "1"

// WriteError answers err as an ErrorBody — the one error writer of the
// API, exported for the cluster router's own errors. 429 and 503 carry
// Retry-After.
func WriteError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	// The id repeats in the body for support correlation: error reports
	// usually quote the body, not the headers. obs.Middleware set the
	// header before any handler ran; "" only for un-middlewared embeds.
	WriteJSON(w, code, ErrorBody{Error: err.Error(), RequestID: w.Header().Get(obs.HeaderRequestID)})
}
