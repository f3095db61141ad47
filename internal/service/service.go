// Package service is the long-running planning service of the repository:
// the in-process core of the filterd daemon (cmd/filterd).
//
// The paper's setting makes a service the natural scaling lever: a plan is
// computed once per (application, model, objective) and reused across
// millions of data sets, so the NP-hard search cost amortizes across
// repeated and slowly-drifting instances. The service implements that
// amortization in three layers:
//
//   - canonical intake: every request's instance is canonicalized (package
//     canon), so permuted listings, unreduced rationals and redundant
//     precedence edges all land on the same content hash;
//   - plan cache: solved plans live in a bounded LRU keyed by canonical
//     hash plus the solve parameters (package plancache), with
//     singleflight deduplication — N concurrent identical requests cost
//     one solve;
//   - drift re-planning: cost/selectivity updates against a registered
//     instance re-solve the drifted instance warm-started by seeding the
//     branch-and-bound incumbent with the old plan re-evaluated on the new
//     numbers (solve.Options.Incumbent), and report old-vs-new objectives.
//
// # One pool, never nested
//
// The service owns the whole parallelism budget: at most Config.Workers
// solves run at once, each on its request's own goroutine after taking one
// of Workers solver slots, and every inner solve runs with Workers: 1, so
// concurrent requests parallelize across the slots while no request ever
// nests a second pool under it. Admission is one bound, the maxPending
// watermark: beyond it a solve is shed. Each solve is deterministic (fixed canonical
// instance, serial solver), so cached, coalesced and fresh responses for
// one key are bit-identical — and identical to a direct
// solve.MinPeriod/MinLatency call with the same options on the canonical
// instance.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/rat"
	"repro/internal/solve"
	"repro/internal/store"
	"repro/internal/workflow"
)

// ErrClosed is returned by requests submitted after Close.
var ErrClosed = errors.New("service: server closed")

// ErrOverloaded is returned by solve admissions beyond the maxPending
// watermark: the intake backpressure signal. The HTTP layer maps it to 429 with a
// Retry-After header; the request was shed before waiting for a solver
// slot, so nothing about it is cached and an immediate retry is safe (if
// the burst has passed).
var ErrOverloaded = errors.New("service: overloaded")

const (
	// registrySize bounds the drift-target registry: the canonical
	// instances drift updates may name, each with its plan-provenance
	// record (explain.go). Least-recently-used instances are forgotten when
	// the bound is hit; a drift against a forgotten hash fails and the
	// client re-submits the instance.
	registrySize = 1024
	// cacheSize bounds the plan cache (completed entries).
	cacheSize = 256
	// maxServices rejects larger instances at validation: the exact
	// methods refuse far earlier, but the bound keeps even heuristic
	// requests from monopolizing a slot.
	maxServices = 64
	// waitingSolves is the fixed part of the default maxPending,
	// 64 + 2×Workers: with every slot busy, 64 + Workers admitted solves
	// may wait for one.
	waitingSolves = 64
)

// Config tunes a Server. The zero value requests defaults.
type Config struct {
	// Workers bounds the solves running at once: the number of solver
	// slots (0 = runtime.NumCPU()). Inner solves always run serially in
	// their slot.
	Workers int
	// maxPending is the load-shedding watermark and the one admission
	// bound: the most admitted-but-unfinished solves (waiting for a slot
	// or running) the server holds before shedding. An admission beyond it
	// fails immediately with ErrOverloaded instead of ballooning goroutines
	// and latency under a burst. 0 = 64 + 2×Workers; the backpressure
	// tests set a small one. Cache hits are never shed — they cost no
	// solver time.
	maxPending int
	// Metrics, when non-nil, is the registry the server publishes its
	// operational metrics into (request latency, solver wall time, cache
	// and memo counters, queue depth, shed count — served at GET /metrics
	// by Handler). nil creates a private registry, so embedded servers in
	// tests never collide. Share one registry per process at most once:
	// metric names are registered once per server lifetime.
	Metrics *metrics.Registry
	// Store, when non-nil, persists every successful solve write-through
	// and is warm-loaded into the plan cache (and the drift registry) at
	// New, so a restarted server answers previously solved requests as
	// warm hits bit-identical to pre-restart. Persistence failures never
	// fail a request — they only show in the store's counters.
	Store *store.Store
	// Tracer, when non-nil, records per-request spans into its ring
	// (served at GET /debug/requests). nil or a zero-capacity tracer
	// disables recording; request IDs and /v1/explain work regardless.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives the server's structured log events
	// (sheds, store-write failures, encode errors), request_id-correlated.
	// nil discards them — embedded test servers stay silent by default.
	Logger *slog.Logger
}

// Request is one planning request. The zero values of Model, Objective,
// Method and Family are the defaults (Overlap, period, Auto, auto).
type Request struct {
	App       *workflow.App
	Model     plan.Model
	Objective solve.Objective
	Method    solve.Method
	Family    solve.Family
	// MaxExactN, Seed and Restarts forward to solve.Options; they are part
	// of the cache key, since they can change the returned plan.
	MaxExactN int
	Seed      int64
	Restarts  int
}

// solveOptions builds the solver options of a request. Workers is pinned
// to 1: the request already holds one of the service's solver slots (one
// pool, never nested). ctx bounds the search (nil: unbounded) — it can
// only abort the solve with an error, never change its result, so it is
// not part of the cache key.
func (r Request) solveOptions(ctx context.Context) solve.Options {
	return solve.Options{
		Method:    r.Method,
		Family:    r.Family,
		MaxExactN: r.MaxExactN,
		Seed:      r.Seed,
		Restarts:  r.Restarts,
		Workers:   1,
		Ctx:       ctx,
	}
}

// Response is one planning answer.
type Response struct {
	// Hash is the canonical instance hash; Key the full cache key (hash
	// plus solve parameters).
	Hash string
	Key  string
	// Outcome reports how the request was served: fresh solve, cache hit,
	// or coalesced onto a concurrent identical solve.
	Outcome plancache.Outcome
	// Instance is the canonical form the solution refers to.
	Instance *canon.Instance
	// Solution is the plan, bit-identical to a direct
	// solve.MinPeriod/MinLatency call on Instance.App() with the request's
	// options.
	Solution solve.Solution
	// entry is the cache entry that answered; it owns the HTTP body.
	entry *cacheEntry
}

// Update is one drift delta: new cost and/or selectivity for a named
// service. Nil fields keep the current value. It is also the wire form of
// one PATCH /v1/instance/{hash} update (wire.go), whose values are rationals
// in the instance document's spelling.
type Update struct {
	Service     string   `json:"service"`
	Cost        *rat.Rat `json:"cost,omitempty"`
	Selectivity *rat.Rat `json:"selectivity,omitempty"`
}

// DriftReport describes one drift re-planning round trip.
type DriftReport struct {
	OldHash  string
	NewHash  string
	OldValue rat.Rat
	NewValue rat.Rat
	// WarmStart reports whether the old plan re-evaluated on the drifted
	// instance seeded the branch-and-bound incumbent.
	WarmStart bool
	// Incumbent is the seeded value when WarmStart is true.
	Incumbent rat.Rat
	// Response is the drifted instance's plan (cached under the new hash).
	Response Response
}

// Stats is a snapshot of the service counters.
type Stats struct {
	Cache plancache.Stats
	// PlanRequests counts Plan calls (batch items included), DriftRequests
	// the drift re-plannings, Rejected the validation failures, Solves the
	// solver runs actually executed.
	PlanRequests  int64
	DriftRequests int64
	Rejected      int64
	Solves        int64
	// Registered counts the currently registered drift-target instances
	// (bounded by registrySize); QueueDepth the admitted solves currently
	// waiting for a solver slot; Workers the number of slots.
	Registered int
	QueueDepth int
	Workers    int
	// Shed counts admissions rejected by the maxPending watermark;
	// Pending the currently admitted-but-unfinished solves (waiting or
	// running); MaxPending the watermark itself.
	Shed       int64
	Pending    int
	MaxPending int
	// Persistent reports whether a plan store is attached; Store its
	// counters (zero value otherwise).
	Persistent bool
	Store      store.Stats
	// Sync counts the replica-to-replica /v1/sync merges (anti-entropy).
	Sync SyncStats
	// Subscribers counts the currently open drift subscriptions;
	// EventsPublished the re-plan events delivered to them;
	// EventsDropped the events lost to full subscriber buffers.
	Subscribers     int
	EventsPublished int64
	EventsDropped   int64
	// MemoHits/MemoMisses split the candidate orchestrations of every
	// executed solve into those its per-solve orchestration memo served and
	// those it computed.
	MemoHits   int64
	MemoMisses int64
	// SolverExpanded/SolverPruned/SolverEvaluated total the branch-and-
	// bound search counters across every executed solve, failed and
	// canceled ones included — the running evidence for the paper's
	// tractability claim. SolverEvaluated counts branch-and-bound leaves
	// only: a hill climb adds nothing to it.
	SolverExpanded  int64
	SolverPruned    int64
	SolverEvaluated int64
	// Version and Revision identify the running build (obs.BuildInfo).
	Version  string
	Revision string
}

// cacheEntry is the cached value of one key. src is what a later cache
// hit of this entry reports as its plan source: "cache" for entries a
// solve produced, "store" for entries warm-loaded from disk. effort is
// the search-effort record of the producing solve (nil for entries
// persisted before the field existed).
//
// bodies[outcome] is the encoded /v1/plan response of that outcome — by
// the determinism invariant a pure function of cache key and outcome, so
// encoded at most once, on its first HTTP use (Response.body, http.go):
// entries never served over HTTP pay nothing, and eviction frees it.
type cacheEntry struct {
	sol    solve.Solution
	inst   *canon.Instance
	src    string
	effort *solve.Effort

	bodies [plancache.Coalesced + 1]struct {
		once sync.Once
		data []byte
		err  error
	}
}

// Server is the planning service. Create with New, release with Close.
type Server struct {
	cfg   Config
	cache *plancache.Cache[*cacheEntry]
	// slots is the solver semaphore: a running solve holds one of its
	// Workers buffer places.
	slots chan struct{}

	mu     sync.RWMutex // guards closed, and orders admissions before Close
	closed bool
	// closing is the shutdown broadcast that ends open subscription
	// streams: closed by EndSubscriptions (idempotent) and by Close.
	// http.Server.Shutdown waits for active handlers, so without it a
	// connected subscriber would stall every graceful shutdown to its
	// deadline — cmd/filterd wires EndSubscriptions into
	// http.Server.RegisterOnShutdown for exactly that reason.
	closing     chan struct{}
	closingOnce sync.Once
	// registry holds the canonical instances seen, keyed by hash — the
	// targets of drift updates — each with its provenance record
	// (explain.go). Bounded LRU (registrySize) so a stream of distinct
	// instances cannot grow the daemon without limit.
	registry *plancache.Cache[*registration]

	// wg counts the admitted solves, waiting or running; Close waits for
	// them.
	wg sync.WaitGroup

	hub hub // drift subscriptions (subscribe.go)

	planRequests  atomic.Int64
	driftRequests atomic.Int64
	rejected      atomic.Int64
	solves        atomic.Int64
	// pending counts admitted-but-unfinished solves, waiting those of
	// them still without a slot; shed the admissions rejected at the
	// maxPending watermark (backpressure).
	pending atomic.Int64
	waiting atomic.Int64
	shed    atomic.Int64

	// metrics is the operational surface served at GET /metrics;
	// mRequests/mLatency instrument the HTTP routes. The per-phase
	// histogram children (mPhaseSolve is the solver wall time of every
	// executed solve) are resolved once here: Vec.With builds a map key per
	// call, so the hot path observes through these cached handles instead.
	metrics     *metrics.Registry
	mRequests   *metrics.CounterVec
	mLatency    *metrics.HistogramVec
	mPhaseCanon *metrics.Histogram
	mPhaseCache *metrics.Histogram
	mPhaseQueue *metrics.Histogram
	mPhaseSolve *metrics.Histogram
	mPhaseOrch  *metrics.Histogram
	mPhaseStore *metrics.Histogram

	// Solver search-effort totals across every executed solve, read by
	// Stats and /metrics: the branch-and-bound counters and the
	// orchestration-memo split of the candidate orchestrations.
	nodesExpanded atomic.Int64
	nodesPruned   atomic.Int64
	candEvaluated atomic.Int64
	memoHits      atomic.Int64
	memoMisses    atomic.Int64

	// Replica-sync counters (sync.go): the /v1/sync merge traffic of the
	// anti-entropy loop.
	syncAcceptedInstances atomic.Int64
	syncAcceptedEntries   atomic.Int64
	syncDuplicates        atomic.Int64
	syncRejected          atomic.Int64
	syncConflicts         atomic.Int64
	syncBytesIn           atomic.Int64
	syncBytesOut          atomic.Int64

	// Observability spine: the span tracer (may be nil — every use is
	// nil-safe), the structured logger (never nil after New), and the
	// build identity.
	tracer   *obs.Tracer
	logger   *slog.Logger
	version  string
	revision string
}

// New starts a server with Config.Workers solver slots.
func New(cfg Config) *Server {
	cfg.Workers = par.Workers(cfg.Workers)
	if cfg.maxPending <= 0 {
		cfg.maxPending = waitingSolves + 2*cfg.Workers
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:      cfg,
		cache:    plancache.New[*cacheEntry](cacheSize),
		slots:    make(chan struct{}, cfg.Workers),
		registry: plancache.New[*registration](registrySize),
		closing:  make(chan struct{}),
		metrics:  cfg.Metrics,
		tracer:   cfg.Tracer,
		logger:   logger,
	}
	s.version, s.revision = obs.BuildInfo()
	s.initMetrics()
	// Warm load: replay the persisted plans into the LRU and the drift
	// registry before the first request, so a restarted replica answers
	// previously solved requests as warm hits bit-identical to
	// pre-restart. Entries the store rejects (corrupt, stale format) are
	// skipped and will simply re-solve on demand. Warm entries report
	// plan source "store" and carry the original solve's effort record.
	if cfg.Store != nil {
		_ = cfg.Store.Load(func(e store.Entry) {
			s.cache.Seed(e.Key, &cacheEntry{sol: e.Solution, inst: e.Instance, src: "store", effort: e.Effort})
			s.register(e.Instance)
		})
	}
	return s
}

// Close refuses new solves and waits for the admitted ones to finish.
// Requests submitted after Close fail with ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.EndSubscriptions()
	s.wg.Wait()
}

// EndSubscriptions terminates every open subscription stream (idempotent;
// Close calls it too). Graceful HTTP shutdown should call it when the
// drain starts, so connected subscribers do not hold Shutdown to its
// deadline.
func (s *Server) EndSubscriptions() {
	s.closingOnce.Do(func() { close(s.closing) })
}

// Closing returns a channel closed when the server shuts down (or
// EndSubscriptions runs) — the termination signal of long-lived
// subscription streams.
func (s *Server) Closing() <-chan struct{} { return s.closing }

// submit runs fn on the calling goroutine once it holds a solver slot.
// Admission is gated by the maxPending watermark: beyond it the request is
// shed immediately with ErrOverloaded — a burst degrades into fast 429s
// instead of ballooning goroutines and latency (shed requests never take
// a slot, and their errors are never cached). A request whose context
// dies while waiting for a slot leaves without running fn; once it holds
// a slot, fn runs to the end (fn's own solve watches the same context, so
// a canceled request returns promptly with the context error instead of
// holding the slot).
func (s *Server) submit(ctx context.Context, fn func()) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	if p := s.pending.Add(1); p > int64(s.cfg.maxPending) {
		s.pending.Add(-1)
		s.shed.Add(1)
		s.mu.RUnlock()
		s.logger.Warn("solve shed at the backpressure watermark",
			"request_id", obs.From(ctx).ID(), "pending", p-1, "max_pending", s.cfg.maxPending)
		return fmt.Errorf("%w: %d solves already pending (limit %d)",
			ErrOverloaded, p-1, s.cfg.maxPending)
	}
	s.wg.Add(1)
	s.mu.RUnlock()
	defer s.wg.Done()
	defer s.pending.Add(-1)
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	s.waiting.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.waiting.Add(-1)
	case <-cancelled:
		s.waiting.Add(-1)
		return fmt.Errorf("service: request abandoned while queued: %w", ctx.Err())
	}
	defer func() { <-s.slots }()
	fn()
	return nil
}

// validate rejects malformed requests before they reach canonicalization
// or a solver slot.
func (s *Server) validate(req Request) error {
	if req.App == nil {
		return fmt.Errorf("service: request has no instance")
	}
	if n := req.App.N(); n == 0 {
		return fmt.Errorf("service: empty instance")
	} else if n > maxServices {
		return fmt.Errorf("service: %d services exceeds the request limit %d", n, maxServices)
	}
	switch req.Model {
	case plan.Overlap, plan.InOrder, plan.OutOrder:
	default:
		return fmt.Errorf("service: unknown model %v", req.Model)
	}
	switch req.Objective {
	case solve.PeriodObjective, solve.LatencyObjective:
	default:
		return fmt.Errorf("service: unknown objective %v", req.Objective)
	}
	switch req.Method {
	case solve.Auto, solve.GreedyChain, solve.HillClimb, solve.BranchBound:
	default:
		return fmt.Errorf("service: unknown method %v", req.Method)
	}
	switch req.Family {
	case solve.FamilyAuto, solve.FamilyChain, solve.FamilyForest, solve.FamilyDAG:
	default:
		return fmt.Errorf("service: unknown family %v", req.Family)
	}
	if req.MaxExactN < 0 || req.Restarts < 0 {
		return fmt.Errorf("service: negative MaxExactN or Restarts")
	}
	return nil
}

// ctxLive reports whether a request context is still good (nil counts as
// unbounded).
func ctxLive(ctx context.Context) bool {
	return ctx == nil || ctx.Err() == nil
}

// cacheKey is the full identity of a cached plan: canonical instance plus
// every solve parameter that can change the returned Solution.
func cacheKey(hash string, req Request) string {
	var arr [160]byte // a SHA-256 hash and the longest names fit: one allocation, the string
	buf := append(arr[:0], hash...)
	for _, part := range [...]string{req.Model.String(), req.Objective.String(), req.Method.String(), req.Family.String()} {
		buf = append(append(buf, '|'), part...)
	}
	for _, n := range [...]int64{int64(req.MaxExactN), req.Seed, int64(req.Restarts)} {
		buf = strconv.AppendInt(append(buf, '|'), n, 10)
	}
	return string(buf)
}

// register remembers a canonical instance as a drift target (refreshing
// its registry recency when already present) and returns its registration.
func (s *Server) register(inst *canon.Instance) *registration {
	r, _, _ := s.registry.Do(inst.Hash(), func() (*registration, error) { return &registration{inst: inst}, nil })
	return r
}

// Register remembers a canonical instance as a drift target without
// solving anything. The cluster router registers every instance it routes
// — including those forwarded to a healthy shard owner — so a PATCH that
// fails over to the embedded local service after the owner dies finds its
// target instead of 404ing until the owner returns.
func (s *Server) Register(inst *canon.Instance) {
	if inst != nil {
		s.register(inst)
	}
}

// Instance returns the registered canonical instance for hash, if any.
func (s *Server) Instance(hash string) (*canon.Instance, bool) {
	r, ok := s.registry.Get(hash)
	if !ok {
		return nil, false
	}
	return r.inst, true
}

// Plan canonicalizes the request's instance, serves the plan from the
// cache when present, and otherwise solves it in a solver slot (concurrent
// identical requests coalesce onto one solve). The instance is registered
// as a drift target.
func (s *Server) Plan(req Request) (Response, error) {
	return s.PlanContext(context.Background(), req)
}

// PlanContext is Plan bounded by a request context: an expired or canceled
// ctx aborts the solve (the searches poll it periodically), the error is
// never cached, and a later request for the same key re-solves cleanly.
// Cache hits are served regardless of ctx — they cost no solver time.
func (s *Server) PlanContext(ctx context.Context, req Request) (Response, error) {
	s.planRequests.Add(1)
	if err := s.validate(req); err != nil {
		s.rejected.Add(1)
		return Response{}, err
	}
	canonStart := time.Now()
	inst, err := canon.Canonicalize(req.App)
	canonDur := time.Since(canonStart)
	obs.From(ctx).Observe(obs.PhaseCanon, canonDur)
	s.mPhaseCanon.Observe(canonDur.Seconds())
	if err != nil {
		s.rejected.Add(1)
		return Response{}, err
	}
	return s.planCanonical(ctx, s.register(inst), req, nil)
}

// planCanonical serves a registered canonical instance and records the
// serve in its registration. A non-nil incumbent warm-starts the
// branch-and-bound search; it never changes the solution
// (solve.Options.Incumbent contract), so it is deliberately not part of
// the cache key.
func (s *Server) planCanonical(ctx context.Context, reg *registration, req Request, incumbent *rat.Rat) (Response, error) {
	inst := reg.inst
	span := obs.From(ctx)
	key := cacheKey(inst.Hash(), req)
	span.SetHash(inst.Hash(), key)
retry:
	cacheStart := time.Now()
	val, outcome, err := s.cache.Do(key, func() (*cacheEntry, error) {
		var sol solve.Solution
		var solveErr error
		var effort *solve.Effort
		submitted := time.Now()
		submitErr := s.submit(ctx, func() {
			s.solves.Add(1)
			// Introspection: the solve fills its own effort record, failed
			// and canceled solves included. It is observational — the
			// service pins Workers: 1 and every solve has its own
			// orchestration memo, so the counts are a function of the
			// request alone (the /v1/explain contract).
			ef := &solve.Effort{QueueNanos: int64(time.Since(submitted))}
			opts := req.solveOptions(ctx)
			opts.Incumbent = incumbent
			opts.Effort = ef
			if req.Objective == solve.PeriodObjective {
				sol, solveErr = solve.MinPeriod(inst.App(), req.Model, opts)
			} else {
				sol, solveErr = solve.MinLatency(inst.App(), req.Model, opts)
			}
			s.observeEffort(span, ef)
			if solveErr == nil {
				effort = ef
			}
		})
		if submitErr != nil {
			return nil, submitErr
		}
		if solveErr != nil {
			return nil, solveErr
		}
		// Write-through persistence: the entry is on disk before the
		// response leaves, so a restart after this point answers the key
		// warm. A failed persist only shows in the store counters (and
		// the log).
		if s.cfg.Store != nil {
			storeStart := time.Now()
			if err := s.cfg.Store.Put(store.Entry{Key: key, Instance: inst, Solution: sol, Effort: effort}); err != nil {
				s.logger.Warn("store write failed",
					"request_id", span.ID(), "key", key, "err", err)
			}
			storeDur := time.Since(storeStart)
			s.mPhaseStore.Observe(storeDur.Seconds())
			span.Observe(obs.PhaseStore, storeDur)
		}
		return &cacheEntry{sol: sol, inst: inst, src: "cache", effort: effort}, nil
	})
	cacheDur := time.Since(cacheStart)
	s.mPhaseCache.Observe(cacheDur.Seconds())
	span.Observe(obs.PhaseCache, cacheDur)
	if err != nil {
		// A coalesced waiter inherits the LEADING request's error — and a
		// context error there says the leader's client died, not ours.
		// The failed entry is already gone from the cache, so a live
		// request simply retries: it hits, coalesces onto another
		// in-flight solve, or becomes the leader under its own context.
		// (A dead own context never loops: ctxLive is false.)
		if ctxLive(ctx) && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			goto retry
		}
		return Response{}, err
	}
	// Provenance: where this answer came from. A fresh or coalesced solve
	// is "solve"; a hit reports what produced the entry ("cache" for a
	// prior solve this process, "store" for a warm-loaded plan); a router
	// local-failover overrides either — the answer is identical, the
	// serving layer is the story.
	source := "solve"
	if outcome == plancache.Hit {
		source = val.src
	}
	if obs.IsFailover(ctx) {
		source = "failover"
	}
	span.SetOutcome(outcome.String(), source)
	if e := val.effort; e != nil {
		span.SetSolver(e.Search.Expanded, e.Search.Pruned, e.Evals, e.MemoHits)
	}
	reg.record(key, span.ID(), req, outcome.String(), source, val)
	return Response{
		Hash:     inst.Hash(),
		Key:      key,
		Outcome:  outcome,
		Instance: val.inst,
		Solution: val.sol,
		entry:    val,
	}, nil
}

// observeEffort publishes one executed solve's effort record, failed and
// canceled solves included: its phase times to the histograms and the
// request span, its counters to the solver totals.
func (s *Server) observeEffort(span *obs.Span, ef *solve.Effort) {
	queued, solveDur, orchDur := time.Duration(ef.QueueNanos), time.Duration(ef.SolveNanos), time.Duration(ef.OrchNanos)
	s.mPhaseQueue.Observe(queued.Seconds())
	s.mPhaseSolve.Observe(solveDur.Seconds())
	s.mPhaseOrch.Observe(orchDur.Seconds())
	span.Observe(obs.PhaseQueue, queued)
	span.Observe(obs.PhaseSolve, solveDur)
	span.Observe(obs.PhaseOrchestrate, orchDur)
	s.nodesExpanded.Add(ef.Search.Expanded)
	s.nodesPruned.Add(ef.Search.Pruned)
	s.candEvaluated.Add(ef.Search.Evaluated)
	s.memoHits.Add(ef.MemoHits)
	s.memoMisses.Add(ef.Evals - ef.MemoHits)
}

// BatchResult is one item of a PlanBatchContext answer.
type BatchResult struct {
	Response Response
	Err      error
}

// PlanBatchContext submits every request concurrently (the solver slots
// bound the actual parallelism) and returns the results in request order.
// Identical requests within one batch coalesce to a single solve. The
// requests share ctx: a dead client abandons every waiting item and aborts
// the in-flight solves.
func (s *Server) PlanBatchContext(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			out[i].Response, out[i].Err = s.PlanContext(ctx, req)
		}(i, req)
	}
	wg.Wait()
	return out
}

// ApplyUpdates builds the drifted application: app with the updated
// costs/selectivities, precedence unchanged. It rejects an empty update
// list, an unknown service name and an update that changes nothing.
func ApplyUpdates(app *workflow.App, updates []Update) (*workflow.App, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("service: drift request has no updates")
	}
	services := app.Services()
	for _, u := range updates {
		i := app.IndexOf(u.Service)
		if i < 0 {
			return nil, fmt.Errorf("service: drift update names unknown service %q", u.Service)
		}
		if u.Cost == nil && u.Selectivity == nil {
			return nil, fmt.Errorf("service: drift update for %q changes nothing", u.Service)
		}
		if u.Cost != nil {
			services[i].Cost = *u.Cost
		}
		if u.Selectivity != nil {
			services[i].Selectivity = *u.Selectivity
		}
	}
	return workflow.New(services, app.Precedence().Edges())
}

// remapGraph rebuilds the execution graph of oldSol on the drifted
// canonical app: edges are carried over by service NAME, because
// canonicalization may order the drifted services differently.
func remapGraph(oldApp, newApp *workflow.App, g *plan.ExecGraph) (*plan.ExecGraph, error) {
	var edges [][2]int
	for _, e := range g.Graph().Edges() {
		u := newApp.IndexOf(oldApp.Name(e[0]))
		v := newApp.IndexOf(oldApp.Name(e[1]))
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("service: drifted instance lost service %q or %q",
				oldApp.Name(e[0]), oldApp.Name(e[1]))
		}
		edges = append(edges, [2]int{u, v})
	}
	return plan.Build(newApp, edges)
}

// familyMember reports whether eg belongs to the structural family the
// request's branch-and-bound search will enumerate — the precondition for
// using its re-evaluated objective as a warm-start incumbent. The DAG
// search enumerates only transitively reduced graphs, so a plan with an
// edge another path implies is not a member.
func familyMember(eg *plan.ExecGraph, req Request, app *workflow.App) bool {
	switch solve.ResolveFamily(app, req.Objective, req.Family) {
	case solve.FamilyChain:
		return eg.IsChain()
	case solve.FamilyForest:
		return eg.IsForest()
	default:
		return eg.Graph().IsReduced()
	}
}

// Drift applies cost/selectivity updates to a registered instance and
// re-plans. When the old plan is cached and the request uses branch and
// bound, the old execution graph is re-evaluated on the drifted numbers
// and its objective seeds the incumbent (solve.Options.Incumbent) — a
// certified-achievable warm start, so the re-plan is bit-identical to a
// cold solve of the drifted instance while pruning from the first
// expansion. The report carries both objectives; the drifted instance is
// registered under its new hash.
func (s *Server) Drift(hash string, updates []Update, req Request) (DriftReport, error) {
	return s.DriftContext(context.Background(), hash, updates, req)
}

// DriftContext is Drift bounded by a request context (see PlanContext).
// A successful re-plan whose objective differs from the old one is
// published to every subscriber of hash (see Subscribe) — exactly one
// event per PATCH per subscriber.
func (s *Server) DriftContext(ctx context.Context, hash string, updates []Update, req Request) (DriftReport, error) {
	s.driftRequests.Add(1)
	oldReg, ok := s.registry.Get(hash)
	if !ok {
		s.rejected.Add(1)
		return DriftReport{}, fmt.Errorf("service: no registered instance with hash %s", hash)
	}
	oldInst := oldReg.inst
	req.App = oldInst.App()
	if err := s.validate(req); err != nil {
		s.rejected.Add(1)
		return DriftReport{}, err
	}

	newApp, err := ApplyUpdates(oldInst.App(), updates)
	if err != nil {
		s.rejected.Add(1)
		return DriftReport{}, err
	}
	newInst, err := canon.Canonicalize(newApp)
	if err != nil {
		s.rejected.Add(1)
		return DriftReport{}, err
	}

	// The old objective: served from cache when present, solved otherwise
	// (the drift report always compares old vs new).
	oldResp, err := s.planCanonical(ctx, oldReg, req, nil)
	if err != nil {
		return DriftReport{}, err
	}

	report := DriftReport{
		OldHash:  oldInst.Hash(),
		NewHash:  newInst.Hash(),
		OldValue: oldResp.Solution.Value,
	}

	// Warm start: re-evaluate the old plan on the drifted instance. Only
	// branch and bound consumes the seed, and only a family-member graph
	// certifies a family-achievable value.
	var incumbent *rat.Rat
	if req.Method == solve.BranchBound {
		if eg, err := remapGraph(oldInst.App(), newInst.App(), oldResp.Solution.Graph); err == nil {
			if familyMember(eg, req, newInst.App()) {
				// This re-evaluation runs on the request goroutine without
				// a solver slot, and serially like every orchestration.
				if re, err := solve.Reevaluate(eg, req.Model, req.Objective, req.solveOptions(ctx)); err == nil {
					v := re.Value
					incumbent = &v
					report.WarmStart = true
					report.Incumbent = v
				}
			}
		}
	}

	// Registered before its serve, so the serve is recorded (explain.go).
	newReq := req
	newReq.App = newInst.App()
	newResp, err := s.planCanonical(ctx, s.register(newInst), newReq, incumbent)
	if err != nil {
		return DriftReport{}, err
	}
	report.NewValue = newResp.Solution.Value
	report.Response = newResp
	// The streaming half of the re-planning story: a re-plan that moved
	// the objective notifies every subscriber of the PATCHed hash.
	if !report.NewValue.Equal(report.OldValue) {
		s.hub.publish(hash, Event{
			Hash:     hash,
			NewHash:  report.NewHash,
			OldValue: report.OldValue,
			NewValue: report.NewValue,
			NewApp:   newInst.App(),
		})
	}
	return report, nil
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	registered := s.registry.Stats().Len
	st := Stats{
		Cache:           s.cache.Stats(),
		PlanRequests:    s.planRequests.Load(),
		DriftRequests:   s.driftRequests.Load(),
		Rejected:        s.rejected.Load(),
		Solves:          s.solves.Load(),
		Registered:      registered,
		QueueDepth:      int(s.waiting.Load()),
		Workers:         s.cfg.Workers,
		Shed:            s.shed.Load(),
		Pending:         int(s.pending.Load()),
		MaxPending:      s.cfg.maxPending,
		Subscribers:     s.hub.subscribers(),
		EventsPublished: s.hub.published.Load(),
		EventsDropped:   s.hub.dropped.Load(),
		MemoHits:        s.memoHits.Load(),
		MemoMisses:      s.memoMisses.Load(),
		SolverExpanded:  s.nodesExpanded.Load(),
		SolverPruned:    s.nodesPruned.Load(),
		SolverEvaluated: s.candEvaluated.Load(),
		Sync:            s.SyncStats(),
		Version:         s.version,
		Revision:        s.revision,
	}
	if s.cfg.Store != nil {
		st.Persistent = true
		st.Store = s.cfg.Store.Stats()
	}
	return st
}
