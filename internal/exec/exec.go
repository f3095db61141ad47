// Package exec is the data plane: a tuple-stream executor that runs the
// schedules the planning stack produces, measures what the stream
// actually does, and drives the re-plan loop when reality departs the
// declared instance.
//
// The control plane (internal/solve behind internal/service) answers
// "given declared costs and selectivities, what is the best mapping and
// schedule". This package closes the loop the paper leaves open: it
// pushes a synthetic tuple stream through the planned execution graph —
// compiled into a flat stage program and run 64 tuples at a time
// (program.go) — estimates each service's empirical selectivity and
// per-tuple cost online, and when an estimate departs its declared value
// beyond a confidence-gated threshold, PATCHes the instance
// (service.Drift / PATCH /v1/instance/{hash}) and hot-swaps to the
// re-planned schedule at a tuple-round boundary. Externally triggered
// re-plans arrive through the subscription stream (SSE with
// Last-Event-ID resume over HTTP) and are adopted the same way.
//
// Determinism contract: with a fixed Seed and no user Predicate, every
// verdict is the pure function sim.Verdict(seed, name, tuple) — so two
// runs with the same seed, instance, and tuple count produce
// bit-identical verdicts, estimator values, and drift-trigger sequences,
// regardless of Workers, Rate, or goroutine interleaving. The executor
// only measures wall time; it never lets wall time influence a decision.
package exec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// Defaults for the zero-valued Config knobs.
const (
	// DefaultWindow is the tuples-per-round default: estimator merge,
	// drift control, and hot swaps happen at round boundaries.
	DefaultWindow = 256
	// DefaultMinSamples is the confidence gate: a service's estimates
	// cannot trigger a drift PATCH before this many evaluated tuples.
	DefaultMinSamples = 64
)

// DefaultThreshold returns the default relative drift threshold 1/8: an
// estimate departing its declared value by more than 12.5% triggers a
// re-plan.
func DefaultThreshold() rat.Rat { return rat.New(1, 8) }

// Truth is the physical reality of one service for the synthetic stream:
// the pass fraction and per-tuple cost the stream actually exhibits, as
// opposed to the declared values the plan was computed from. Nil fields
// default to the declared values (no drift). Truth is fixed for the whole
// run — re-planning changes what is declared, never what is true.
type Truth struct {
	// Selectivity is the true pass fraction, in [0, 1]. The declared
	// selectivity may exceed 1 (expanding services); a pass fraction
	// cannot.
	Selectivity *rat.Rat
	// Cost is the true per-tuple cost charged by the virtual clock;
	// must be positive.
	Cost *rat.Rat
}

// Predicate decides a tuple's verdict at one service, overriding the
// synthetic Bernoulli draw. Determinism across runs and worker counts is
// the implementation's responsibility: it must be a pure function of
// (name, tuple).
type Predicate func(name string, tuple uint64) bool

// Config parameterizes an Executor.
type Config struct {
	// App is the declared instance to plan and execute.
	App *workflow.App
	// Planner is the control-plane client (Local or Client).
	Planner Planner

	// Seed drives the synthetic verdicts (sim.Verdict).
	Seed uint64
	// Rate, when positive, paces the stream to this many tuples per
	// second of wall time. Pacing never affects verdicts or decisions.
	Rate float64
	// Window is the tuples-per-round granularity (DefaultWindow if 0).
	Window int
	// MinSamples gates drift decisions (DefaultMinSamples if 0).
	MinSamples uint64
	// Threshold is the relative drift threshold (DefaultThreshold if
	// zero): trigger when |emp - decl| > Threshold·decl.
	Threshold rat.Rat
	// Truth overrides the stream's physical behavior per service name.
	Truth map[string]Truth
	// Predicate, when non-nil, replaces the synthetic verdicts.
	Predicate Predicate
	// Workers selects the execution mode: ≤ 1 runs the stage program on
	// one goroutine; > 1 runs the pipelined stage network (one goroutine
	// per service). Both produce identical counts and decisions.
	Workers int

	// Metrics, when non-nil, receives the filterexec_* instruments.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records a span per run and per re-plan.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives structured progress events.
	Logger *slog.Logger
	// RequestID correlates the run's control-plane requests; generated
	// when empty.
	RequestID string
}

// DriftEpisode records one hot swap: the round it happened after, which
// hash was swapped for which, the measured updates that triggered it (nil
// for externally adopted re-plans), and the objective movement.
type DriftEpisode struct {
	Round    uint64
	Tuple    uint64 // first tuple of the next round, the swap boundary
	Source   string // "controller" (own PATCH) or "subscribe" (external)
	OldHash  string
	NewHash  string
	Updates  []Update
	OldValue rat.Rat
	NewValue rat.Rat
}

// ServiceStats is the final estimator snapshot of one service.
type ServiceStats struct {
	Name string
	// In counts evaluated tuples (alive on arrival), Out the passed
	// subset.
	In, Out uint64
	// EmpSelectivity is Out/In exact (zero when In == 0);
	// DeclSelectivity the final declared value.
	EmpSelectivity  rat.Rat
	DeclSelectivity rat.Rat
	// MeanCost is the exact mean virtual per-tuple cost; EWMACost the
	// observational smoother over the same samples; DeclCost the final
	// declared value.
	MeanCost rat.Rat
	EWMACost float64
	DeclCost rat.Rat
}

// Report is the outcome of one Run.
type Report struct {
	// Tuples is the number pushed through the graph; Emitted the
	// survivors (alive at every exit service); Rounds the number of
	// execution rounds.
	Tuples  uint64
	Emitted uint64
	Rounds  uint64
	// Patches counts controller-initiated drift PATCHes, ReplanEvents
	// externally triggered re-plans adopted from the subscription
	// stream, Swaps all schedule hot swaps (= Patches + ReplanEvents).
	Patches      int
	ReplanEvents int
	Swaps        int
	// Hash, Value, Period, Schedule and App describe the final plan.
	Hash     string
	Value    rat.Rat
	Period   rat.Rat
	Schedule json.RawMessage
	App      *workflow.App
	// Services is the name-sorted estimator snapshot; Episodes the
	// drift history in order.
	Services []ServiceStats
	Episodes []DriftEpisode
	// Elapsed and Throughput are wall-clock observations (excluded from
	// the determinism contract).
	Elapsed    time.Duration
	Throughput float64
}

// Executor runs one instance's tuple stream against the control plane.
type Executor struct {
	cfg Config
	m   *execMetrics

	// plan is the current plan and prog its compiled form, both replaced
	// by adopt (run loop only, single goroutine).
	plan Plan
	prog *program

	// estimators and truthThreshold are per service name and fixed for
	// the run: the measurements so far, and the physical pass threshold
	// resolved against the initial declared instance (the true cost lives
	// in the estimator it is charged to).
	estimators     map[string]*estimator
	truthThreshold map[string]uint64
}

// New validates cfg and returns an Executor. The initial plan is not
// computed until Run.
func New(cfg Config) (*Executor, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("exec: Config.App is nil")
	}
	if cfg.Planner == nil {
		return nil, fmt.Errorf("exec: Config.Planner is nil")
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("exec: Window %d is not positive", cfg.Window)
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = DefaultMinSamples
	}
	if cfg.Threshold.IsZero() {
		cfg.Threshold = DefaultThreshold()
	}
	if cfg.Threshold.Sign() < 0 {
		return nil, fmt.Errorf("exec: Threshold %s is negative", cfg.Threshold)
	}
	if cfg.RequestID == "" {
		cfg.RequestID = obs.NewID()
	}
	for name, t := range cfg.Truth {
		if cfg.App.IndexOf(name) < 0 {
			return nil, fmt.Errorf("exec: Truth names unknown service %q", name)
		}
		if t.Selectivity != nil {
			if t.Selectivity.Sign() < 0 || t.Selectivity.Greater(rat.One) {
				return nil, fmt.Errorf("exec: Truth[%q].Selectivity %s outside [0, 1]", name, *t.Selectivity)
			}
		}
		if t.Cost != nil && t.Cost.Sign() <= 0 {
			return nil, fmt.Errorf("exec: Truth[%q].Cost %s is not positive", name, *t.Cost)
		}
	}
	e := &Executor{
		cfg:            cfg,
		estimators:     make(map[string]*estimator, cfg.App.N()),
		truthThreshold: make(map[string]uint64, cfg.App.N()),
	}
	if cfg.Metrics != nil {
		e.m = newExecMetrics(cfg.Metrics)
	}
	for v := 0; v < cfg.App.N(); v++ {
		name := cfg.App.Name(v)
		sel := cfg.App.Selectivity(v)
		cost := cfg.App.Cost(v)
		if t, ok := cfg.Truth[name]; ok {
			if t.Selectivity != nil {
				sel = *t.Selectivity
			}
			if t.Cost != nil {
				cost = *t.Cost
			}
		}
		e.truthThreshold[name] = sim.Threshold(sel)
		e.estimators[name] = newEstimator(name, cost)
	}
	return e, nil
}

// logger returns the configured logger or a discard-equivalent default.
func (e *Executor) logger() *slog.Logger {
	if e.cfg.Logger != nil {
		return e.cfg.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// Run plans the instance, executes nTuples through the planned graph in
// Window-sized rounds, and returns the final report. Between rounds it
// adopts externally triggered re-plans from the subscription stream and
// runs the drift controller; both swap the active schedule at the round
// boundary, never mid-tuple.
func (e *Executor) Run(ctx context.Context, nTuples uint64) (*Report, error) {
	start := time.Now()
	span := e.span("exec.run", e.cfg.RequestID)
	logger := e.logger()

	p, err := e.cfg.Planner.Plan(ctx, e.cfg.App, e.cfg.RequestID)
	if err != nil {
		span.SetError(err.Error())
		span.End(500)
		return nil, fmt.Errorf("exec: initial plan: %w", err)
	}
	e.adopt(p)
	// The stage network, if any, belongs to the run: whichever way Run
	// returns, no stage goroutine of the then-current program outlives it.
	defer func() { e.prog.stop() }()
	span.SetHash(p.Hash, "")
	logger.Info("exec.plan", "hash", p.Hash, "value", p.Value.String(), "period", p.Period.String())

	// Subscription manager: one subscription per current hash, replaced
	// on every hot swap so externally triggered re-plans against the
	// active instance keep arriving.
	subCtx, cancelSub := context.WithCancel(ctx)
	defer cancelSub()
	events, err := e.cfg.Planner.Subscribe(subCtx, p.Hash)
	if err != nil {
		span.SetError(err.Error())
		span.End(500)
		return nil, fmt.Errorf("exec: subscribe %s: %w", p.Hash, err)
	}
	resubscribe := func() {
		cancelSub()
		subCtx, cancelSub = context.WithCancel(ctx)
		ev, serr := e.cfg.Planner.Subscribe(subCtx, e.plan.Hash)
		if serr != nil {
			logger.Warn("exec.subscribe", "hash", e.plan.Hash, "err", serr)
			events = nil
			return
		}
		events = ev
	}
	defer func() { cancelSub() }()

	report := &Report{Hash: p.Hash}
	var roundDeadline time.Time
	if e.cfg.Rate > 0 {
		roundDeadline = start
	}

	for done := uint64(0); done < nTuples; {
		if err := ctx.Err(); err != nil {
			span.SetError(err.Error())
			span.End(499)
			return nil, err
		}
		n := uint64(e.cfg.Window)
		if rest := nTuples - done; rest < n {
			n = rest
		}
		emitted := e.prog.run(round{first: done, n: n})
		report.Tuples += n
		report.Emitted += emitted
		report.Rounds++
		done += n
		if e.m != nil {
			e.m.tuples.Add(int64(n))
			e.m.emitted.Add(int64(emitted))
			e.m.rounds.Inc()
			observeOccupancy(e.prog.stages, report.Tuples)
		}

		// Round boundary: adopt external re-plans, then run the drift
		// controller. Both may hot-swap the plan for the next round.
		if swapped := e.adoptExternal(ctx, events, report, done, logger); swapped {
			resubscribe()
		}
		swapped, cerr := e.controller(ctx, report, done, logger)
		if cerr != nil {
			span.SetError(cerr.Error())
			span.End(500)
			return nil, cerr
		}
		if swapped {
			resubscribe()
		}

		if e.cfg.Rate > 0 {
			roundDeadline = roundDeadline.Add(time.Duration(float64(n) / e.cfg.Rate * float64(time.Second)))
			if d := time.Until(roundDeadline); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
		}
	}

	report.Hash = e.plan.Hash
	report.Value = e.plan.Value
	report.Period = e.plan.Period
	if report.Schedule, err = json.Marshal(e.plan.Schedule); err != nil {
		span.SetError(err.Error())
		span.End(500)
		return nil, fmt.Errorf("exec: encoding schedule: %w", err)
	}
	report.App = e.plan.App
	report.Services = e.serviceStats()
	report.Elapsed = time.Since(start)
	if s := report.Elapsed.Seconds(); s > 0 {
		report.Throughput = float64(report.Tuples) / s
	}
	if e.m != nil {
		e.m.throughput.Set(report.Throughput)
	}
	span.SetHash(e.plan.Hash, "")
	span.SetOutcome("completed", "exec")
	span.End(200)
	logger.Info("exec.done",
		"tuples", report.Tuples, "emitted", report.Emitted,
		"rounds", report.Rounds, "patches", report.Patches,
		"replans", report.ReplanEvents, "hash", report.Hash)
	return report, nil
}

// span starts a tracer span, tolerating a nil tracer.
func (e *Executor) span(route, id string) *obs.Span {
	if e.cfg.Tracer == nil {
		return nil
	}
	return e.cfg.Tracer.Start(route, id)
}

// adopt makes p the current plan: the previous plan's stage network is
// stopped and p compiled in its place.
func (e *Executor) adopt(p Plan) {
	if e.prog != nil {
		e.prog.stop()
	}
	e.plan, e.prog = p, e.compile(p)
}

// estimatorFor returns the estimator of a service name, creating it for
// names first seen after a hot swap (canonicalization never renames, so
// this only happens for instances grown out-of-band).
func (e *Executor) estimatorFor(name string) *estimator {
	st := e.estimators[name]
	if st == nil {
		st = newEstimator(name, rat.Zero)
		e.estimators[name] = st
	}
	return st
}

// adoptExternal drains pending subscription events and adopts the last
// externally triggered re-plan: the event's drifted instance is planned
// (a cache hit on the service) and hot-swapped in. The executor's own
// PATCH echo — an event whose NewHash is already the active hash — is
// ignored. Returns whether a swap happened.
func (e *Executor) adoptExternal(ctx context.Context, events <-chan Replan, report *Report, tuple uint64, logger *slog.Logger) bool {
	swapped := false
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return swapped
			}
			if ev.NewHash == e.plan.Hash {
				continue // own PATCH echo
			}
			if ev.NewApp == nil {
				logger.Warn("exec.replan.skipped", "new_hash", ev.NewHash, "reason", "event carried no instance")
				continue
			}
			span := e.span("exec.replan", e.cfg.RequestID)
			t0 := time.Now()
			p, err := e.cfg.Planner.Plan(ctx, ev.NewApp, e.cfg.RequestID)
			if err != nil {
				logger.Warn("exec.replan.failed", "new_hash", ev.NewHash, "err", err)
				span.SetError(err.Error())
				span.End(500)
				continue
			}
			span.Observe(obs.PhaseSolve, time.Since(t0))
			span.SetHash(p.Hash, "")
			span.SetOutcome("adopted", "subscribe")
			span.End(200)
			report.Episodes = append(report.Episodes, DriftEpisode{
				Round:    report.Rounds,
				Tuple:    tuple,
				Source:   "subscribe",
				OldHash:  e.plan.Hash,
				NewHash:  p.Hash,
				OldValue: ev.OldValue,
				NewValue: ev.NewValue,
			})
			logger.Info("exec.swap", "source", "subscribe", "old_hash", e.plan.Hash, "new_hash", p.Hash)
			e.adopt(p)
			report.ReplanEvents++
			report.Swaps++
			if e.m != nil {
				e.m.replans.Inc()
				e.m.swaps.Inc()
			}
			swapped = true
		default:
			return swapped
		}
	}
}

// controller compares each confident estimator against the declared
// values of the active plan and, when any departs beyond the threshold,
// PATCHes the instance once with every drifted estimate and hot-swaps to
// the re-planned schedule. Declaring the empirical values is the
// hysteresis: after the swap the estimates sit exactly on the declared
// values, so the controller stays quiet until the stream moves again.
// Services are examined in name order — part of the determinism contract
// — which the stage program keeps, so a quiet round allocates nothing.
func (e *Executor) controller(ctx context.Context, report *Report, tuple uint64, logger *slog.Logger) (bool, error) {
	app := e.plan.App
	var updates []Update
	for _, k := range e.prog.byName {
		st := &e.prog.stages[k]
		est := st.est
		if !est.confident(e.cfg.MinSamples) {
			continue
		}
		var up Update
		declSel := app.Selectivity(st.v)
		if declSel.Less(rat.One) {
			// An expanding (σ ≥ 1) service never drops tuples, so the
			// pass-fraction estimator carries no drift signal for it.
			if emp, ok := est.selectivity(); ok && drifted(emp, declSel, e.cfg.Threshold) {
				drift := emp // only a drifted estimate moves to the heap
				up.Selectivity = &drift
			}
		}
		declCost := app.Cost(st.v)
		if mean, ok := est.meanCost(); ok && drifted(mean, declCost, e.cfg.Threshold) {
			drift := mean
			up.Cost = &drift
		}
		if up.Selectivity != nil || up.Cost != nil {
			up.Service = st.name
			updates = append(updates, up)
		}
	}
	if len(updates) == 0 {
		return false, nil
	}

	span := e.span("exec.drift", e.cfg.RequestID)
	t0 := time.Now()
	p, err := e.cfg.Planner.Drift(ctx, e.plan.Hash, e.plan.App, updates, e.cfg.RequestID)
	if err != nil {
		span.SetError(err.Error())
		if errors.Is(err, ErrUpstreamBusy) {
			// The service shed the PATCH even after the client's bounded
			// backoff. The estimators keep their samples, so the drift is
			// still visible next measurement round — retry then rather
			// than failing the whole run over load shedding.
			span.End(503)
			logger.Warn("exec.drift.deferred", "hash", e.plan.Hash, "err", err)
			if e.m != nil {
				e.m.driftDeferred.Inc()
			}
			return false, nil
		}
		span.End(500)
		return false, fmt.Errorf("exec: drift patch on %s: %w", e.plan.Hash, err)
	}
	span.Observe(obs.PhaseSolve, time.Since(t0))
	span.SetHash(p.Hash, "")
	span.SetOutcome("patched", "controller")
	span.End(200)

	ep := DriftEpisode{
		Round:    report.Rounds,
		Tuple:    tuple,
		Source:   "controller",
		OldHash:  e.plan.Hash,
		NewHash:  p.Hash,
		Updates:  updates,
		OldValue: e.plan.Value,
		NewValue: p.Value,
	}
	report.Episodes = append(report.Episodes, ep)
	logger.Info("exec.swap", "source", "controller",
		"old_hash", ep.OldHash, "new_hash", ep.NewHash,
		"updates", len(updates),
		"old_value", ep.OldValue.String(), "new_value", ep.NewValue.String())
	e.adopt(p)
	report.Patches++
	report.Swaps++
	if e.m != nil {
		e.m.patches.Inc()
		e.m.swaps.Inc()
	}
	return true, nil
}

// serviceStats snapshots the estimators against the final declared
// instance, name-sorted.
func (e *Executor) serviceStats() []ServiceStats {
	app := e.plan.App
	names := make([]string, 0, len(e.estimators))
	for name := range e.estimators {
		names = append(names, name)
	}
	sort.Strings(names)
	stats := make([]ServiceStats, 0, len(names))
	for _, name := range names {
		est := e.estimators[name]
		s := ServiceStats{Name: name, In: est.in, Out: est.out, EWMACost: est.ewma}
		if sel, ok := est.selectivity(); ok {
			s.EmpSelectivity = sel
		}
		if mean, ok := est.meanCost(); ok {
			s.MeanCost = mean
		}
		if v := app.IndexOf(name); v >= 0 {
			s.DeclSelectivity = app.Selectivity(v)
			s.DeclCost = app.Cost(v)
		}
		stats = append(stats, s)
	}
	return stats
}
