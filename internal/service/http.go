package service

// HTTP/JSON surface of the planning service, mounted by cmd/filterd and
// exercised end to end by examples/service. The wire format reuses the
// repository's existing codecs: instances are workflow.App JSON (the same
// files filterplan -in reads), schedules are oplist.List JSON (the same
// exact-rational operation lists the library emits everywhere else), and
// the option vocabulary is the shared cliopt one, so every name accepted
// on a CLI flag is accepted in a request body.
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
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliopt"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/rat"
	"repro/internal/workflow"
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

// planParamsJSON are the solve parameters shared by plan, batch items and
// drift requests. Empty strings mean the defaults.
type planParamsJSON struct {
	Model     string `json:"model,omitempty"`
	Objective string `json:"objective,omitempty"`
	Method    string `json:"method,omitempty"`
	Family    string `json:"family,omitempty"`
	MaxExactN int    `json:"max_exact_n,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Restarts  int    `json:"restarts,omitempty"`
}

// request resolves the wire parameters into a Request for app.
func (p planParamsJSON) request(app *workflow.App) (Request, error) {
	req := Request{App: app, MaxExactN: p.MaxExactN, Seed: p.Seed, Restarts: p.Restarts}
	var err error
	if p.Model != "" {
		if req.Model, err = cliopt.Model(p.Model); err != nil {
			return req, err
		}
	}
	if p.Objective != "" {
		if req.Objective, err = cliopt.Objective(p.Objective); err != nil {
			return req, err
		}
	}
	if p.Method != "" {
		if req.Method, err = cliopt.Method(p.Method); err != nil {
			return req, err
		}
	}
	if p.Family != "" {
		if req.Family, err = cliopt.Family(p.Family); err != nil {
			return req, err
		}
	}
	return req, nil
}

type planRequestJSON struct {
	// Instance is a workflow.App JSON document — identical to the
	// filterplan -in file format.
	Instance instanceJSON `json:"instance"`
	planParamsJSON
}

// instanceJSON decodes the instance member in place, in the one pass over
// the body, keeping the application's verdict instead of failing the
// surrounding decode: requests are judged body syntax first, then missing
// instance, then instance, and a repeated member overrides an earlier one.
type instanceJSON struct {
	app     workflow.App
	err     error
	present bool
}

func (i *instanceJSON) UnmarshalJSON(data []byte) error {
	i.present = true
	i.err = i.app.UnmarshalJSON(data)
	return nil
}

// request resolves one decoded wire request into a service Request.
func (doc *planRequestJSON) request() (Request, error) {
	if !doc.Instance.present {
		return Request{}, fmt.Errorf("service: request has no instance")
	}
	if doc.Instance.err != nil {
		return Request{}, fmt.Errorf("service: parsing instance: %w", doc.Instance.err)
	}
	return doc.planParamsJSON.request(&doc.Instance.app)
}

// DecodePlanRequest reads one POST /v1/plan body: the first JSON value of
// r, unknown members ignored, the rest left unread. The cluster router
// calls it on the bodies it forwards, so router and replica accept and
// reject the same ones.
func DecodePlanRequest(r io.Reader) (Request, error) {
	var doc planRequestJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return Request{}, fmt.Errorf("service: parsing request body: %w", err)
	}
	return doc.request()
}

type graphJSON struct {
	// Services lists the canonical service order; Edges the execution
	// graph over service names.
	Services []string    `json:"services"`
	Edges    [][2]string `json:"edges"`
}

type planResponseJSON struct {
	Hash      string    `json:"hash"`
	Cached    bool      `json:"cached"`
	Outcome   string    `json:"outcome"` // miss, hit or coalesced
	Model     string    `json:"model"`
	Objective string    `json:"objective"`
	Value     rat.Rat   `json:"value"`
	Exact     bool      `json:"exact"`
	Period    rat.Rat   `json:"period"`
	Latency   rat.Rat   `json:"latency"`
	Graph     graphJSON `json:"graph"`
	// Schedule is the operation list in the oplist JSON codec (exact
	// rational begin/end times, communications keyed by endpoint names).
	Schedule json.RawMessage `json:"schedule"`
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
	g := graphJSON{Services: make([]string, app.N())}
	for i := 0; i < app.N(); i++ {
		g.Services[i] = app.Name(i)
	}
	for _, edge := range e.sol.Graph.Graph().Edges() {
		g.Edges = append(g.Edges, [2]string{app.Name(edge[0]), app.Name(edge[1])})
	}
	var buf bytes.Buffer
	err = encodeJSON(&buf, planResponseJSON{
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

type batchRequestJSON struct {
	Requests []planRequestJSON `json:"requests"`
}

// Batch items and drift answers embed the bytes Response.body returns.
type batchItemJSON struct {
	Error string          `json:"error,omitempty"`
	Plan  json.RawMessage `json:"plan,omitempty"`
}

type batchResponseJSON struct {
	Results []batchItemJSON `json:"results"`
}

type driftUpdateJSON struct {
	Service     string `json:"service"`
	Cost        string `json:"cost,omitempty"`
	Selectivity string `json:"selectivity,omitempty"`
}

type driftRequestJSON struct {
	Updates []driftUpdateJSON `json:"updates"`
	planParamsJSON
}

type driftResponseJSON struct {
	OldHash   string          `json:"old_hash"`
	NewHash   string          `json:"new_hash"`
	OldValue  rat.Rat         `json:"old_value"`
	NewValue  rat.Rat         `json:"new_value"`
	WarmStart bool            `json:"warm_start"`
	Incumbent *rat.Rat        `json:"incumbent,omitempty"`
	Plan      json.RawMessage `json:"plan"`
}

// healthzJSON is the GET /v1/healthz liveness document.
type healthzJSON struct {
	Status   string `json:"status"`
	Version  string `json:"version"`
	Revision string `json:"revision"`
}

// explainJSON renders one provenance record (GET /v1/explain/{hash}).
type explainJSON struct {
	Hash      string `json:"hash"`
	Key       string `json:"key"`
	RequestID string `json:"request_id,omitempty"`
	Model     string `json:"model"`
	Objective string `json:"objective"`
	// Method and Family are the RESOLVED strategy when the effort record
	// exists (what the solver actually searched), the requested one
	// otherwise.
	Method  string              `json:"method"`
	Family  string              `json:"family"`
	Source  string              `json:"source"`  // cache | store | solve | failover
	Outcome string              `json:"outcome"` // miss | hit | coalesced
	Value   rat.Rat             `json:"value"`
	Exact   bool                `json:"exact"`
	Served  time.Time           `json:"served"`
	Solver  *explainSolverJSON  `json:"solver,omitempty"`
	Orch    *explainOrchJSON    `json:"orchestration,omitempty"`
	Timings *explainTimingsJSON `json:"timings,omitempty"`
}

type explainSolverJSON struct {
	Expanded  int64 `json:"expanded"`
	Pruned    int64 `json:"pruned"`
	Evaluated int64 `json:"evaluated"`
}

type explainOrchJSON struct {
	Orchestrations int64 `json:"orchestrations"`
	MemoHits       int64 `json:"memo_hits"`
	Prefixes       int64 `json:"prefixes"`
	Pruned         int64 `json:"pruned"`
	Evaluated      int64 `json:"evaluated"`
}

type explainTimingsJSON struct {
	QueueSeconds float64 `json:"queue_seconds"`
	SolveSeconds float64 `json:"solve_seconds"`
	OrchSeconds  float64 `json:"orchestrate_seconds"`
}

// explainResponse renders a provenance record. The solver, orchestration
// and timing blocks come from the effort record of the producing solve —
// identical whether this serve solved, hit the cache, or warm-loaded the
// plan (the /v1/explain determinism contract); they are absent only for
// plans persisted before effort records existed.
func explainResponse(e Explain) explainJSON {
	out := explainJSON{
		Hash:      e.Hash,
		Key:       e.Key,
		RequestID: e.RequestID,
		Model:     strings.ToLower(e.Model.String()),
		Objective: e.Objective.String(),
		Method:    e.Method.String(),
		Family:    e.Family.String(),
		Source:    e.Source,
		Outcome:   e.Outcome,
		Value:     e.Value,
		Exact:     e.Exact,
		Served:    e.Served,
	}
	if ef := e.Effort; ef != nil {
		out.Method = ef.Method.String()
		out.Family = ef.Family.String()
		out.Solver = &explainSolverJSON{
			Expanded:  ef.Search.Expanded,
			Pruned:    ef.Search.Pruned,
			Evaluated: ef.Search.Evaluated,
		}
		out.Orch = &explainOrchJSON{
			Orchestrations: ef.Evals,
			MemoHits:       ef.MemoHits,
			Prefixes:       ef.Orch.Prefixes,
			Pruned:         ef.Orch.Pruned,
			Evaluated:      ef.Orch.Evaluated,
		}
		out.Timings = &explainTimingsJSON{
			QueueSeconds: float64(ef.QueueNanos) / 1e9,
			SolveSeconds: float64(ef.SolveNanos) / 1e9,
			OrchSeconds:  float64(ef.OrchNanos) / 1e9,
		}
	}
	return out
}

// eventJSON is the SSE payload of one re-plan notification. Instance is
// the drifted application document (the filterplan -in format), so a
// subscriber — e.g. the stream executor reacting to a PATCH it did not
// issue itself — can POST it to /v1/plan (a cache hit) and obtain the
// re-planned schedule without knowing the updates.
type eventJSON struct {
	Hash     string          `json:"hash"`
	NewHash  string          `json:"new_hash"`
	OldValue rat.Rat         `json:"old_value"`
	NewValue rat.Rat         `json:"new_value"`
	Instance json.RawMessage `json:"instance,omitempty"`
}

// encodeEvent renders one hub event as an SSE frame: the per-hash event ID
// (the client echoes it as Last-Event-ID on reconnect) plus the replan
// payload.
func encodeEvent(ev Event) ([]byte, error) {
	doc := eventJSON{
		Hash:     ev.Hash,
		NewHash:  ev.NewHash,
		OldValue: ev.OldValue,
		NewValue: ev.NewValue,
	}
	if ev.NewApp != nil {
		inst, err := json.Marshal(ev.NewApp)
		if err != nil {
			return nil, err
		}
		doc.Instance = inst
	}
	data, err := json.Marshal(doc)
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
			httpError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := s.PlanContext(r.Context(), req)
		if err != nil {
			httpError(w, errStatus(err, http.StatusUnprocessableEntity), err)
			return
		}
		body, err := resp.body(req)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
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
			httpError(w, http.StatusBadRequest, fmt.Errorf("service: batch has no requests"))
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
		out := batchResponseJSON{Results: make([]batchItemJSON, len(doc.Requests))}
		vi := 0
		for i := range doc.Requests {
			if decodeErrs[i] != nil {
				out.Results[i] = batchItemJSON{Error: decodeErrs[i].Error()}
				continue
			}
			res := results[vi]
			vi++
			if res.Err != nil {
				out.Results[i] = batchItemJSON{Error: res.Err.Error()}
				continue
			}
			plan, err := res.Response.body(reqs[i])
			if err != nil {
				out.Results[i] = batchItemJSON{Error: err.Error()}
				continue
			}
			out.Results[i] = batchItemJSON{Plan: plan}
		}
		WriteJSON(w, http.StatusOK, out)
	}))

	mux.HandleFunc("PATCH /v1/instance/{hash}", s.instrument("drift", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if _, ok := s.Instance(hash); !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("service: no registered instance with hash %s", hash))
			return
		}
		var doc driftRequestJSON
		if !decodeBody(w, r, &doc) {
			return
		}
		updates := make([]Update, len(doc.Updates))
		for i, u := range doc.Updates {
			updates[i].Service = u.Service
			if u.Cost != "" {
				c, err := rat.Parse(u.Cost)
				if err != nil {
					httpError(w, http.StatusBadRequest, fmt.Errorf("service: update %d cost: %w", i, err))
					return
				}
				updates[i].Cost = &c
			}
			if u.Selectivity != "" {
				sel, err := rat.Parse(u.Selectivity)
				if err != nil {
					httpError(w, http.StatusBadRequest, fmt.Errorf("service: update %d selectivity: %w", i, err))
					return
				}
				updates[i].Selectivity = &sel
			}
		}
		params, err := doc.planParamsJSON.request(nil)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		report, err := s.DriftContext(r.Context(), hash, updates, params)
		if err != nil {
			httpError(w, errStatus(err, http.StatusUnprocessableEntity), err)
			return
		}
		plan, err := report.Response.body(params)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		out := driftResponseJSON{
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
			httpError(w, http.StatusNotFound, fmt.Errorf("service: no registered instance with hash %s", hash))
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("service: streaming unsupported by this server"))
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
				httpError(w, http.StatusBadRequest, fmt.Errorf("service: parsing Last-Event-ID: %w", err))
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
			httpError(w, http.StatusNotFound, fmt.Errorf("service: no explain record for hash %s", hash))
			return
		}
		WriteJSON(w, http.StatusOK, explainResponse(e))
	}))

	mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, healthzJSON{Status: "ok", Version: s.version, Revision: s.revision})
	}))

	// Replica synchronization (sync.go): GET answers the digest, POST one
	// push-pull exchange. The anti-entropy loop of internal/cluster drives
	// both; a newly (re)joined owner converges by iterating exchanges.
	mux.HandleFunc("GET /v1/sync", s.instrument("sync", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.SyncDigest())
	}))
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
		httpError(w, http.StatusBadRequest, fmt.Errorf("service: parsing request body: %w", err))
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
		httpError(w, http.StatusInternalServerError, fmt.Errorf("service: encoding response: %w", err))
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

func httpError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	// The id repeats in the body for support correlation: error reports
	// usually quote the body, not the headers. obs.Middleware set the
	// header before any handler ran; "" only for un-middlewared embeds.
	WriteJSON(w, code, map[string]string{
		"error":      err.Error(),
		"request_id": w.Header().Get(obs.HeaderRequestID),
	})
}
