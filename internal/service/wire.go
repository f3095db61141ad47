package service

// The /v1 wire vocabulary: every JSON document the HTTP API (http.go)
// reads or writes is declared here, once. The cluster router and
// exec.Client encode and decode these same types instead of mirroring
// them — encoding/json ignores unknown members, so a rename on one side
// of a mirror would break the other side silently. Two documents are the
// service's own Go types, tagged where they are declared: the drift delta
// (Update, service.go) and the re-plan event (Event, subscribe.go). The
// replica-sync documents live with their exchange in sync.go.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cliopt"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// Params are the solve parameters shared by plan, batch items and drift
// requests, in the cliopt vocabulary. Empty strings mean the defaults.
type Params struct {
	Model     string `json:"model,omitempty"`
	Objective string `json:"objective,omitempty"`
	Method    string `json:"method,omitempty"`
	Family    string `json:"family,omitempty"`
	MaxExactN int    `json:"max_exact_n,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Restarts  int    `json:"restarts,omitempty"`
}

// Request resolves the parameters into a Request for app — the one
// resolver of option names, used by the HTTP handlers and by callers that
// take the same names on their command line.
func (p Params) Request(app *workflow.App) (Request, error) {
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
	Params
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
	return doc.Params.Request(&doc.Instance.app)
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

// PlanGraph is a plan's execution graph by name: Services lists the
// canonical service order, Edges the graph over service names.
type PlanGraph struct {
	Services []string    `json:"services"`
	Edges    [][2]string `json:"edges"`
}

// PlanResponse is the POST /v1/plan answer, also embedded in batch items
// and drift answers.
type PlanResponse struct {
	Hash      string    `json:"hash"`
	Cached    bool      `json:"cached"`
	Outcome   string    `json:"outcome"` // miss, hit or coalesced
	Model     string    `json:"model"`
	Objective string    `json:"objective"`
	Value     rat.Rat   `json:"value"`
	Exact     bool      `json:"exact"`
	Period    rat.Rat   `json:"period"`
	Latency   rat.Rat   `json:"latency"`
	Graph     PlanGraph `json:"graph"`
	// Schedule is the operation list in the oplist JSON codec (exact
	// rational begin/end times, communications keyed by endpoint names).
	Schedule json.RawMessage `json:"schedule"`
}

type batchRequestJSON struct {
	Requests []planRequestJSON `json:"requests"`
}

// BatchItem is one POST /v1/batch result: an error text or the plan
// answer's bytes.
type BatchItem struct {
	Error string          `json:"error,omitempty"`
	Plan  json.RawMessage `json:"plan,omitempty"`
}

// BatchResponse is the POST /v1/batch answer, one item per request in
// request order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// DriftRequest is the PATCH /v1/instance/{hash} body.
type DriftRequest struct {
	Updates []Update `json:"updates"`
	Params
}

// DriftResponse is the PATCH /v1/instance/{hash} answer; Plan holds the
// drifted instance's PlanResponse bytes.
type DriftResponse struct {
	OldHash   string          `json:"old_hash"`
	NewHash   string          `json:"new_hash"`
	OldValue  rat.Rat         `json:"old_value"`
	NewValue  rat.Rat         `json:"new_value"`
	WarmStart bool            `json:"warm_start"`
	Incumbent *rat.Rat        `json:"incumbent,omitempty"`
	Plan      json.RawMessage `json:"plan"`
}

// Healthz is the GET /v1/healthz liveness document. Role is set by the
// cluster router only, so a replica's answer carries no role member.
type Healthz struct {
	Status   string `json:"status"`
	Role     string `json:"role,omitempty"`
	Version  string `json:"version"`
	Revision string `json:"revision"`
}

// ErrorBody is every JSON error answer: the error text plus the request
// id of X-Filterd-Request-Id, for support correlation.
type ErrorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id"`
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
	Prefixes       int64 `json:"prefixes"`
	Pruned         int64 `json:"pruned"`
	Evaluated      int64 `json:"evaluated"`
	CutOffs        int64 `json:"cutoffs"`
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
			Prefixes:       ef.Orch.Prefixes,
			Pruned:         ef.Orch.Pruned,
			Evaluated:      ef.Orch.Evaluated,
			CutOffs:        ef.Orch.CutOffs,
		}
		out.Timings = &explainTimingsJSON{
			QueueSeconds: float64(ef.QueueNanos) / 1e9,
			SolveSeconds: float64(ef.SolveNanos) / 1e9,
			OrchSeconds:  float64(ef.OrchNanos) / 1e9,
		}
	}
	return out
}
