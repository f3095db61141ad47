package exec

// The executor's view of the control plane. A Planner answers three
// questions — what is the plan for this instance, what is the re-plan
// after these measured updates, and what re-plans did someone else
// trigger — and two implementations exist: Local wraps an in-process
// service.Server (cmd/filterexec's embedded mode and the tests), Client
// (client.go) speaks the filterd HTTP API including the SSE subscribe
// stream with Last-Event-ID resume.

import (
	"context"
	"encoding/json"

	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/workflow"
)

// Plan is the executor-facing slice of a planning response: the canonical
// instance the plan was computed from (declared costs and selectivities),
// the execution graph over its indices, and the schedule. The schedule is
// carried in whatever form the planner has it — the operation list
// in-process, the wire bytes over HTTP — and encoded only where it is
// read: json.Marshal(Schedule) is its compact JSON document.
type Plan struct {
	Hash     string
	App      *workflow.App
	Graph    *plan.ExecGraph
	Value    rat.Rat
	Period   rat.Rat
	Schedule json.Marshaler
}

// Update is one measured drift: empirical values for a named service.
// Nil fields are unchanged. It is the service's drift delta, so Local
// hands the executor's updates to the server as they are.
type Update = service.Update

// Replan is one external re-plan notification delivered by Subscribe:
// the subscribed hash was PATCHed into NewHash. NewApp is the drifted
// instance when the event carried it (planning it is a cache hit on the
// service), nil otherwise. It is the service's event, as the SSE stream
// carries it.
type Replan = service.Event

// Planner is the executor's control-plane client.
type Planner interface {
	// Plan plans app (or serves it from cache) and returns the current
	// plan. requestID, when non-empty, correlates the control-plane
	// request with the executor's round spans.
	Plan(ctx context.Context, app *workflow.App, requestID string) (Plan, error)
	// Drift reports measured updates against a previously planned hash
	// and returns the re-planned schedule. app is the currently declared
	// instance the updates apply to — the HTTP client needs it to
	// reconstruct the drifted instance, since the wire response carries
	// only names.
	Drift(ctx context.Context, hash string, app *workflow.App, updates []Update, requestID string) (Plan, error)
	// Subscribe streams re-plan events for hash until ctx ends. The
	// returned channel is closed when the subscription ends.
	Subscribe(ctx context.Context, hash string) (<-chan Replan, error)
}

// Local is the in-process Planner: an embedded service.Server plus the
// fixed solve parameters every request uses. It is what cmd/filterexec
// runs without -url, and what the tests wire the executor to.
type Local struct {
	Server *service.Server
	// Params carries the solve parameters (model, objective, method,
	// family, seed, ...); its App field is replaced per call.
	Params service.Request
}

// Plan implements Planner.
func (l *Local) Plan(ctx context.Context, app *workflow.App, requestID string) (Plan, error) {
	req := l.Params
	req.App = app
	resp, err := l.Server.PlanContext(ctx, req)
	if err != nil {
		return Plan{}, err
	}
	return planFromResponse(resp), nil
}

// Drift implements Planner.
func (l *Local) Drift(ctx context.Context, hash string, app *workflow.App, updates []Update, requestID string) (Plan, error) {
	report, err := l.Server.DriftContext(ctx, hash, updates, l.Params)
	if err != nil {
		return Plan{}, err
	}
	return planFromResponse(report.Response), nil
}

// Subscribe implements Planner.
func (l *Local) Subscribe(ctx context.Context, hash string) (<-chan Replan, error) {
	sub, cancel := l.Server.Subscribe(hash)
	out := make(chan Replan, 16)
	go func() {
		defer cancel()
		defer close(out)
		for {
			select {
			case <-ctx.Done():
				return
			case ev := <-sub.Events():
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out, nil
}

// planFromResponse converts a service response into the executor's Plan.
func planFromResponse(resp service.Response) Plan {
	list := resp.Solution.Sched.List
	return Plan{
		Hash:     resp.Hash,
		App:      resp.Instance.App(),
		Graph:    resp.Solution.Graph,
		Value:    resp.Solution.Value,
		Period:   list.Period(),
		Schedule: list,
	}
}
