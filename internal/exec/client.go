package exec

// Client is the Planner speaking the filterd HTTP API: POST /v1/plan for
// planning, PATCH /v1/instance/{hash} for drift re-planning, and
// GET /v1/subscribe/{hash} for the SSE re-plan stream. The subscription
// reconnects automatically, echoing the last seen event ID as the SSE
// Last-Event-ID header so the service (or the cluster router forwarding
// the header to the owning replica) replays the re-plan events fired
// during the gap — the resume path the executor relies on to never miss
// an external re-plan.

import (
	"bufio"
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

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/workflow"
)

// ClientParams are the solve parameters sent with every plan and drift
// request, in the HTTP API's vocabulary (cliopt names; empty strings mean
// the service defaults).
type ClientParams struct {
	Model     string `json:"model,omitempty"`
	Objective string `json:"objective,omitempty"`
	Method    string `json:"method,omitempty"`
	Family    string `json:"family,omitempty"`
	MaxExactN int    `json:"max_exact_n,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Restarts  int    `json:"restarts,omitempty"`
}

// Client implements Planner over HTTP against a filterd (or cluster
// router) base URL.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Subscribe requires a
	// client without a global timeout (streams outlive any sane one).
	HTTPClient *http.Client
	// Params are the solve parameters of every request.
	Params ClientParams
	// Logger, when non-nil, receives reconnect and parse warnings.
	Logger *slog.Logger
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// planWireResponse mirrors the service's plan response document.
type planWireResponse struct {
	Hash     string          `json:"hash"`
	Value    rat.Rat         `json:"value"`
	Period   rat.Rat         `json:"period"`
	Graph    planWireGraph   `json:"graph"`
	Schedule json.RawMessage `json:"schedule"`
}

type planWireGraph struct {
	Services []string    `json:"services"`
	Edges    [][2]string `json:"edges"`
}

// driftWireResponse mirrors the service's drift response document.
type driftWireResponse struct {
	OldHash  string           `json:"old_hash"`
	NewHash  string           `json:"new_hash"`
	OldValue rat.Rat          `json:"old_value"`
	NewValue rat.Rat          `json:"new_value"`
	Plan     planWireResponse `json:"plan"`
}

// eventWire mirrors the SSE replan payload.
type eventWire struct {
	Hash     string          `json:"hash"`
	NewHash  string          `json:"new_hash"`
	OldValue rat.Rat         `json:"old_value"`
	NewValue rat.Rat         `json:"new_value"`
	Instance json.RawMessage `json:"instance"`
}

// Plan implements Planner: POST /v1/plan.
func (c *Client) Plan(ctx context.Context, app *workflow.App, requestID string) (Plan, error) {
	inst, err := json.Marshal(app)
	if err != nil {
		return Plan{}, fmt.Errorf("exec: encoding instance: %w", err)
	}
	body := struct {
		Instance json.RawMessage `json:"instance"`
		ClientParams
	}{Instance: inst, ClientParams: c.Params}
	var wire planWireResponse
	if err := c.do(ctx, http.MethodPost, "/v1/plan", body, requestID, &wire); err != nil {
		return Plan{}, err
	}
	return c.assemble(wire, app)
}

// Drift implements Planner: PATCH /v1/instance/{hash}. The drifted
// instance is reconstructed locally as app with the updates applied —
// the same values the service declared, since a drift PATCH is exactly
// "replace these services' declared values with these".
func (c *Client) Drift(ctx context.Context, hash string, app *workflow.App, updates []Update, requestID string) (Plan, error) {
	type updateWire struct {
		Service     string `json:"service"`
		Cost        string `json:"cost,omitempty"`
		Selectivity string `json:"selectivity,omitempty"`
	}
	ups := make([]updateWire, len(updates))
	for i, u := range updates {
		ups[i].Service = u.Service
		if u.Cost != nil {
			ups[i].Cost = u.Cost.String()
		}
		if u.Selectivity != nil {
			ups[i].Selectivity = u.Selectivity.String()
		}
	}
	body := struct {
		Updates []updateWire `json:"updates"`
		ClientParams
	}{Updates: ups, ClientParams: c.Params}
	var wire driftWireResponse
	if err := c.do(ctx, http.MethodPatch, "/v1/instance/"+hash, body, requestID, &wire); err != nil {
		return Plan{}, err
	}
	drifted, err := service.ApplyUpdates(app, updates)
	if err != nil {
		return Plan{}, err
	}
	return c.assemble(wire.Plan, drifted)
}

// Subscribe implements Planner: a self-healing SSE consumer of
// GET /v1/subscribe/{hash}. Replan events are decoded and delivered on
// the returned channel; on any stream error the client reconnects with
// Last-Event-ID set to the last delivered ID, so the service replays the
// gap. The channel closes when ctx ends.
func (c *Client) Subscribe(ctx context.Context, hash string) (<-chan Replan, error) {
	out := make(chan Replan, 16)
	go c.subscribeLoop(ctx, hash, out)
	return out, nil
}

func (c *Client) subscribeLoop(ctx context.Context, hash string, out chan<- Replan) {
	defer close(out)
	logger := c.logger()
	lastID := uint64(0)
	seen := false
	reconnect := resilience.Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	for attempt := 0; ctx.Err() == nil; attempt++ {
		err := c.consumeStream(ctx, hash, &lastID, &seen, out)
		if ctx.Err() != nil {
			return
		}
		d := reconnect.Delay(attempt)
		logger.Warn("exec.subscribe.reconnect", "hash", hash, "err", err, "backoff", d)
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
	}
}

// consumeStream opens one SSE connection and pumps its frames until the
// stream or the context ends. lastID/seen track the resume cursor across
// calls.
func (c *Client) consumeStream(ctx context.Context, hash string, lastID *uint64, seen *bool, out chan<- Replan) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/subscribe/"+hash, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *seen {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("exec: subscribe %s: status %d: %s", hash, resp.StatusCode, strings.TrimSpace(string(b)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var id uint64
	var event string
	var data bytes.Buffer
	dispatch := func() error {
		defer func() { id, event = 0, ""; data.Reset() }()
		switch event {
		case "replan":
			var wire eventWire
			if err := json.Unmarshal(data.Bytes(), &wire); err != nil {
				return fmt.Errorf("exec: decoding replan event: %w", err)
			}
			rp := Replan{
				ID:       id,
				Hash:     wire.Hash,
				NewHash:  wire.NewHash,
				OldValue: wire.OldValue,
				NewValue: wire.NewValue,
			}
			if len(wire.Instance) > 0 {
				var app workflow.App
				if err := json.Unmarshal(wire.Instance, &app); err != nil {
					return fmt.Errorf("exec: decoding replan instance: %w", err)
				}
				rp.App = &app
			}
			select {
			case out <- rp:
			case <-ctx.Done():
				return ctx.Err()
			}
			if id > 0 {
				*lastID, *seen = id, true
			}
		case "lagged":
			// Events were lost beyond the retained history. The next
			// replan still carries the full drifted instance, so the
			// executor converges on it; surface the gap for operators.
			c.logger().Warn("exec.subscribe.lagged", "hash", hash, "data", data.String())
		}
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" {
				if err := dispatch(); err != nil {
					return err
				}
			} else {
				id, event = 0, ""
				data.Reset()
			}
		case strings.HasPrefix(line, ":"):
			// comment (keep-alive / subscribed banner)
		case strings.HasPrefix(line, "id:"):
			v, err := strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
			if err == nil {
				id = v
			}
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimSpace(line[5:]))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.EOF
}

// ErrUpstreamBusy marks a request that kept answering 429/503 through
// every Retry-After backoff attempt — the service is shedding load or
// draining, not broken, so callers should hold their state and retry the
// operation on their own schedule (the executor's controller re-issues
// the PATCH next measurement round).
var ErrUpstreamBusy = errors.New("exec: upstream busy")

// busyRetries bounds the in-call retries of a 429/503 answer;
// maxRetryWait caps one backoff sleep however large the advertised
// Retry-After is.
const (
	busyRetries  = 3
	maxRetryWait = 5 * time.Second
)

// busyBackoff is the ladder of the 429/503 waits.
var busyBackoff = resilience.Backoff{Base: 100 * time.Millisecond, Max: maxRetryWait}

// retryWait resolves one 429/503 backoff: the server's Retry-After
// seconds when parseable (capped at maxRetryWait, plus the ladder's
// jitter), otherwise busyBackoff's step for this attempt.
func retryWait(header string, attempt int) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
		return time.Duration(min(secs, int(maxRetryWait/time.Second)))*time.Second + busyBackoff.Jitter()
	}
	return busyBackoff.Delay(attempt)
}

// do executes one JSON request/response round trip. A 429 or 503 answer
// is retried in place up to busyRetries times, honoring the Retry-After
// header (bounded, jittered); exhaustion fails with ErrUpstreamBusy so
// the caller can distinguish backpressure from breakage.
func (c *Client) do(ctx context.Context, method, path string, body any, requestID string, into any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("exec: encoding request: %w", err)
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(raw))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if requestID != "" {
			req.Header.Set(obs.HeaderRequestID, requestID)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			if attempt >= busyRetries {
				return fmt.Errorf("%w: %s %s: status %d after %d backoffs: %s",
					ErrUpstreamBusy, method, path, resp.StatusCode, attempt, strings.TrimSpace(string(b)))
			}
			d := retryWait(resp.Header.Get("Retry-After"), attempt)
			c.logger().Warn("exec.backoff", "method", method, "path", path,
				"status", resp.StatusCode, "wait", d, "request_id", requestID)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return fmt.Errorf("exec: %s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
		}
		err = json.NewDecoder(resp.Body).Decode(into)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("exec: decoding %s %s response: %w", method, path, err)
		}
		return nil
	}
}

// assemble turns a wire plan plus the instance it was computed from into
// the executor's Plan: the canonical service order and execution graph
// arrive as names, the declared values come from src (the same values the
// service canonicalized — canonicalization permutes, it never rewrites).
func (c *Client) assemble(wire planWireResponse, src *workflow.App) (Plan, error) {
	app, err := remapApp(src, wire.Graph.Services)
	if err != nil {
		return Plan{}, err
	}
	edges := make([][2]int, 0, len(wire.Graph.Edges))
	for _, e := range wire.Graph.Edges {
		u, v := app.IndexOf(e[0]), app.IndexOf(e[1])
		if u < 0 || v < 0 {
			return Plan{}, fmt.Errorf("exec: plan edge %s -> %s names unknown service", e[0], e[1])
		}
		edges = append(edges, [2]int{u, v})
	}
	eg, err := plan.Build(app, edges)
	if err != nil {
		return Plan{}, fmt.Errorf("exec: rebuilding execution graph: %w", err)
	}
	// Compact the schedule: the wire bytes carry the server's response
	// indentation (plan responses and drift responses nest differently),
	// and Plan.Schedule is compared bit-for-bit across those paths.
	var sched bytes.Buffer
	if err := json.Compact(&sched, wire.Schedule); err != nil {
		return Plan{}, fmt.Errorf("exec: compacting schedule: %w", err)
	}
	return Plan{
		Hash:     wire.Hash,
		App:      app,
		Graph:    eg,
		Value:    wire.Value,
		Period:   wire.Period,
		Schedule: json.RawMessage(sched.Bytes()),
	}, nil
}

// remapApp reorders src's services into the given name order, remapping
// precedence edges along. It fails unless order is exactly a permutation
// of src's names.
func remapApp(src *workflow.App, order []string) (*workflow.App, error) {
	if len(order) != src.N() {
		return nil, fmt.Errorf("exec: canonical order has %d services, instance has %d", len(order), src.N())
	}
	services := make([]workflow.Service, len(order))
	newIdx := make(map[string]int, len(order))
	for i, name := range order {
		v := src.IndexOf(name)
		if v < 0 {
			return nil, fmt.Errorf("exec: canonical order names unknown service %q", name)
		}
		services[i] = src.Service(v)
		newIdx[name] = i
	}
	if len(newIdx) != len(order) {
		return nil, fmt.Errorf("exec: canonical order repeats a service name")
	}
	var prec [][2]int
	for _, e := range src.Precedence().Edges() {
		prec = append(prec, [2]int{newIdx[src.Name(e[0])], newIdx[src.Name(e[1])]})
	}
	return workflow.New(services, prec)
}
