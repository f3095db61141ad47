// Package cluster shards the planning service across filterd replicas by
// canonical-hash prefix — the horizontal half of the service-hardening
// story (DESIGN.md §4; internal/store is the vertical, per-replica half).
//
// The canonical SHA-256 hash (package canon) is uniform and stable, so its
// leading bits are a ready-made shard key: with B shard bits the hash
// space splits into 2^B shards assigned round-robin to the N replicas, and
// every request for one canonical instance lands on the same replica —
// whose plan cache and persistent store therefore concentrate that
// instance's traffic, exactly like a single-replica deployment would.
//
// The Router is a thin gateway in front of the replicas: it canonicalizes
// enough of each request to know the hash (bodies for /v1/plan and
// /v1/batch items, the path for /v1/instance/{hash} and
// /v1/subscribe/{hash}), forwards to the owner, and falls back to solving
// on its own embedded service when the owner is down. Peer health is one
// state machine per peer — a resilience.Breaker fed by both the periodic
// health probes and the forward path — so a replica that fails K
// consecutive interactions is isolated until a probe proves it back, and
// idempotent forwards ride out transient noise with a bounded retry
// (PATCH is exempt: a replayed drift would publish duplicate re-plan
// events). Every response carries X-Filterd-Shard, X-Filterd-Shard-Owner
// and X-Filterd-Served-By headers, so clients and the smoke tests can
// observe the routing; GET /metrics exposes the same story as Prometheus
// text.
//
// Determinism across the cluster: every replica solves the canonical form
// with Workers: 1, so routed, failed-over and direct answers for one
// canonical instance are bit-identical (pinned by cluster_test.go) — the
// repository's determinism invariant extended across the wire. The
// breaker and the retry decide only WHO computes an answer, never what
// the answer is.
//
// Observability (DESIGN.md §7): the router is the request-ID boundary of
// a deployment — obs.Middleware resolves the X-Filterd-Request-Id on the
// way in, forwards carry it to the owning replica, and the local-failover
// path hands the SAME span to the embedded service (whose middleware
// passes through), so one request keeps one ID across every layer it
// crosses. Spans record the routing verdict (shard, owner, served-by);
// breaker transitions and failovers log through a structured logger with
// the peer and request ID attached. GET /v1/explain/{hash} routes by hash
// like any other per-instance read, GET /v1/healthz answers from the
// router itself, and GET /debug/requests serves the router's span ring.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/service"
)

const (
	// forwardRetries bounds re-attempts of one idempotent forward after
	// its first try. PATCH forwards never retry.
	forwardRetries = 2
	// batchFanoutPerPeer bounds the concurrently routed items of one
	// batch, per peer. Items beyond it queue behind the fan-out workers
	// instead of each spawning a goroutine.
	batchFanoutPerPeer = 4
)

// Config tunes a Router. Peers and Local are required.
type Config struct {
	// Peers are the replicas' base URLs (e.g. http://10.0.0.1:8080), in
	// shard-owner order: shard s belongs to Peers[s mod len(Peers)].
	Peers []string
	// shardBits is the hash-prefix width B: 2^B shards (0 = 8; the
	// census test sets narrower ones, at most 16). More shards than peers
	// just means finer round-robin interleaving.
	shardBits int
	// Replicas is R, the owners per shard (default 2, clamped to
	// [1, len(Peers)]): shard s belongs to Peers[(s+k) mod N] for
	// k = 0..R-1. Reads try the owners in that order and fail over
	// instantly — determinism makes every owner's answer bit-identical,
	// so failover needs no reconciliation. Writes (PATCH) commit on the
	// first owner that answers and then fan to the remaining owners, so
	// drift state survives any single replica loss.
	Replicas int
	// Local is the embedded failover service: requests whose owner is
	// down are solved here. Determinism makes the failover transparent —
	// the local answer is bit-identical to the owner's.
	Local *service.Server
	// HealthInterval is the peer health-check period (default 2s).
	HealthInterval time.Duration
	// ProbeTimeout caps one health probe (default: HealthInterval,
	// itself capped at 1s) — a hung peer costs one bounded probe, not a
	// stalled health pass.
	ProbeTimeout time.Duration
	// BreakerCooldown is the Open → HalfOpen delay of a peer's breaker
	// (default 5s), which opens after resilience.Threshold consecutive
	// failures, forwards and probes combined.
	BreakerCooldown time.Duration
	// RetryBackoff is the base of the delay ladder between the attempts
	// of one forward (resilience.Backoff: doubling, jittered; default
	// 50ms).
	RetryBackoff time.Duration
	// Metrics receives the router's instrument families (default: a
	// private registry). cmd/filterd passes the service's registry so
	// one /metrics page covers the whole process.
	Metrics *metrics.Registry
	// Client performs the forwards (default: http.Client without a
	// global timeout — per-request contexts bound the forwards, and
	// subscribe streams must live arbitrarily long).
	Client *http.Client
	// Tracer records per-request spans for GET /debug/requests. Nil (or a
	// zero-capacity tracer) disables recording; request IDs are still
	// resolved and propagated.
	Tracer *obs.Tracer
	// Logger receives the router's structured log lines (breaker
	// transitions, failovers). Nil discards them.
	Logger *slog.Logger
}

// peer is one replica. Its breaker is the single health state machine:
// probe successes close it, probe failures and forward failures feed its
// streak, and routing consults it before every forward. seen records
// whether any interaction ever succeeded: a never-seen peer's probe
// failures are ignored (routers and replicas boot together, and opening
// the breaker of a replica that is merely a beat slower to bind would
// divert its shards to local cold solves) — a genuinely dead peer is
// still isolated by the forward-failure path the first times it is used.
type peer struct {
	url     string
	seen    atomic.Bool
	breaker *resilience.Breaker
}

// available reports whether routing should try the peer at all. Open
// means recently proven dead; Closed and HalfOpen both admit traffic
// (the breaker's Allow gate arbitrates the half-open probe slot).
func (p *peer) available() bool { return p.breaker.State() != resilience.Open }

// Stats is the snapshot of the router counters that the benchmark and
// cmd/filterd read in process. /metrics is the router's counters surface:
// every field here is also a family there (a per-peer family sums to its
// total), and every other counter is a family only.
type Stats struct {
	// Shards is 2^shardBits; PeersUp counts replicas whose breaker is
	// not Open; UnderReplicated counts shards with fewer than R owners
	// currently available.
	Shards          int
	PeersUp         int
	UnderReplicated int
	// Forwarded counts requests served by their owner; LocalServed the
	// requests the router owned locally or could not route (bad bodies
	// answered without routing included); Failovers the forwards that
	// fell back to the local service because every owner was down or
	// erroring. Retries counts forward re-attempts.
	Forwarded   int64
	LocalServed int64
	Failovers   int64
	Retries     int64
}

// Router is the gateway handler. Create with New, release with Close.
type Router struct {
	cfg     Config
	peers   []*peer
	local   http.Handler
	client  *http.Client
	probe   *http.Client
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the request-ID middleware
	logger  *slog.Logger
	tracer  *obs.Tracer

	version  string
	revision string

	stop       chan struct{}
	baseCtx    context.Context
	baseCancel context.CancelFunc
	healthWg   sync.WaitGroup

	forwarded        atomic.Int64
	localServed      atomic.Int64
	failovers        atomic.Int64
	retries          atomic.Int64
	replicaFailovers atomic.Int64
	fanoutErrors     atomic.Int64

	metrics         *metrics.Registry
	mForwards       *metrics.CounterVec
	mFailovers      *metrics.CounterVec
	mRetries        *metrics.CounterVec
	mBreakerState   *metrics.GaugeVec
	mBreakerOpens   *metrics.CounterVec
	mForwardSeconds *metrics.Histogram
	mFanoutWrites   *metrics.CounterVec
	mShardReplicas  *metrics.GaugeVec
}

// New validates the configuration and starts the health-check loop.
func New(cfg Config) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers")
	}
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: no local failover service")
	}
	if cfg.shardBits == 0 {
		cfg.shardBits = 8
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(cfg.Peers) {
		cfg.Replicas = len(cfg.Peers)
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.HealthInterval
		if cfg.ProbeTimeout > time.Second {
			cfg.ProbeTimeout = time.Second
		}
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	rt := &Router{
		cfg:    cfg,
		local:  service.Handler(cfg.Local),
		client: cfg.Client,
		// The probe client stays separate (its timeouts must never mix
		// with forwards) but shares the transport, so an injected-fault
		// wire (internal/faults) faults probes and forwards alike — a
		// "killed" peer looks dead to the health loop too.
		probe:   &http.Client{Transport: cfg.Client.Transport},
		stop:    make(chan struct{}),
		metrics: cfg.Metrics,
		logger:  logger,
		tracer:  cfg.Tracer,
	}
	rt.version, rt.revision = obs.BuildInfo()
	rt.baseCtx, rt.baseCancel = context.WithCancel(context.Background())
	for _, u := range cfg.Peers {
		peerURL := u
		rt.peers = append(rt.peers, &peer{
			url: u,
			breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Cooldown: cfg.BreakerCooldown,
				OnTransition: func(from, to resilience.State) {
					// Opens isolate a peer — worth a warning; the rest
					// (probe slots, recoveries) are informational.
					level := slog.LevelInfo
					if to == resilience.Open {
						level = slog.LevelWarn
					}
					rt.logger.Log(context.Background(), level,
						"peer breaker transition",
						"peer", peerURL, "from", from.String(), "to", to.String())
				},
			}),
		})
	}
	rt.initMetrics()
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/plan", rt.handlePlan)
	rt.mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("PATCH /v1/instance/{hash}", rt.handleByHashPath)
	rt.mux.HandleFunc("GET /v1/subscribe/{hash}", rt.handleByHashPath)
	rt.mux.HandleFunc("GET /v1/explain/{hash}", rt.handleByHashPath)
	rt.mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	rt.mux.Handle("GET /metrics", rt.metrics.Handler())
	rt.mux.Handle("GET /debug/requests", rt.tracer.Handler())
	rt.handler = obs.Middleware(rt.tracer, rt.mux)
	rt.healthWg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop, aborting any probe still in flight, and
// closes the idle keep-alive connections to the peers (the probe client
// shares the forward client's transport), whose read and write loops would
// otherwise outlive the router. In-flight requests finish on their own.
func (rt *Router) Close() {
	close(rt.stop)
	rt.baseCancel()
	rt.healthWg.Wait()
	rt.client.CloseIdleConnections()
}

// healthLoop probes every peer's /v1/healthz (liveness, no counter
// snapshot) on the configured period. The probes of one pass run
// concurrently, each bounded by ProbeTimeout, so a pass costs one probe's
// worth of wall time however many peers are dead — with serial unbounded
// probes, two hung peers would stall the pass past the interval and
// starve recovery detection for the healthy ones. Probe outcomes feed the
// breakers: success closes (heals) a peer, failure extends a dead peer's
// isolation without waiting for a request to trip over it.
func (rt *Router) healthLoop() {
	defer rt.healthWg.Done()
	ticker := time.NewTicker(rt.cfg.HealthInterval)
	defer ticker.Stop()
	check := func() {
		var wg sync.WaitGroup
		for _, p := range rt.peers {
			wg.Add(1)
			go func(p *peer) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(rt.baseCtx, rt.cfg.ProbeTimeout)
				defer cancel()
				ok := false
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/healthz", nil)
				if err == nil {
					resp, derr := rt.probe.Do(req)
					if derr == nil {
						ok = resp.StatusCode == http.StatusOK
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
				switch {
				case ok:
					p.seen.Store(true)
					p.breaker.Success()
				case p.seen.Load():
					p.breaker.Failure()
				}
			}(p)
		}
		wg.Wait()
	}
	check()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			check()
		}
	}
}

// shardOf maps a canonical hash to its shard: the leading shardBits bits
// of the hex digest.
func (rt *Router) shardOf(hash string) (int, error) {
	if len(hash) < 8 {
		return 0, fmt.Errorf("cluster: hash %q too short", hash)
	}
	v, err := strconv.ParseUint(hash[:8], 16, 64)
	if err != nil {
		return 0, fmt.Errorf("cluster: hash %q is not hex", hash)
	}
	return int(v >> (32 - rt.cfg.shardBits)), nil
}

// ownersOf resolves a shard's R owners in preference order: the primary
// first, then its successors around the peer ring. Every owner holds the
// shard's state (writes fan out, the anti-entropy loop converges the
// rest), so reads may fail over along this list without changing any
// answer.
func (rt *Router) ownersOf(shard int) []*peer {
	n := len(rt.peers)
	owners := make([]*peer, 0, rt.cfg.Replicas)
	for k := 0; k < rt.cfg.Replicas; k++ {
		owners = append(owners, rt.peers[(shard+k)%n])
	}
	return owners
}

// Stats returns a snapshot of the router counters.
func (rt *Router) Stats() Stats {
	st := Stats{
		Shards:      1 << rt.cfg.shardBits,
		Forwarded:   rt.forwarded.Load(),
		LocalServed: rt.localServed.Load(),
		Failovers:   rt.failovers.Load(),
		Retries:     rt.retries.Load(),
	}
	for _, p := range rt.peers {
		if p.available() {
			st.PeersUp++
		}
	}
	for _, count := range rt.census()[:rt.cfg.Replicas] {
		st.UnderReplicated += count
	}
	return st
}

// census counts the shards by their currently available owners: entry f
// is the number of shards with exactly f. Owner availability is a
// function of shard mod len(peers) alone, so one pass over the residues
// covers every shard.
func (rt *Router) census() []int {
	shards, n := 1<<rt.cfg.shardBits, len(rt.peers)
	byFactor := make([]int, rt.cfg.Replicas+1)
	for res := 0; res < min(n, shards); res++ {
		up := 0
		for _, p := range rt.ownersOf(res) {
			if p.available() {
				up++
			}
		}
		byFactor[up] += (shards - res + n - 1) / n // shards ≡ res mod n
	}
	return byFactor
}

// maxBodyBytes mirrors the service's request-body bound; maxRespBytes
// bounds a buffered forward response (a plan answer is far smaller — the
// bound only guards the router's memory against a misbehaving peer).
const (
	maxBodyBytes = 4 << 20
	maxRespBytes = 32 << 20
)

// ServeHTTP routes /v1/* by canonical-hash prefix (the route table is
// built once in New; the request-ID middleware wraps it, so every
// response — routed, failed over, or shed — echoes X-Filterd-Request-Id).
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

// instanceOfPlanBody canonicalizes the instance of a plan request body,
// decoded by the service's own decoder: the router routes exactly the
// bodies the owning replica will accept, and leaves every other one to
// the local service, which produces the canonical error.
func instanceOfPlanBody(body []byte) (*canon.Instance, error) {
	req, err := service.DecodePlanRequest(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return canon.Canonicalize(req.App)
}

func (rt *Router) handlePlan(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	inst, err := instanceOfPlanBody(body)
	if err != nil {
		// The local service produces the canonical error answer (and the
		// canonical status) for malformed requests.
		rt.serveLocal(w, r, body, "unroutable")
		return
	}
	// Register the instance as a local drift target even when the plan
	// forwards to a healthy owner: if that owner later dies, a PATCH
	// against this hash fails over here and must find its target —
	// without this, the failover window 404s every drift until the owner
	// returns.
	rt.cfg.Local.Register(inst)
	rt.route(w, r, inst.Hash(), r.URL.Path, body)
}

// routedResponse captures a forwarded or locally served answer for
// reassembly (the batch path).
type routedResponse struct {
	status int
	body   []byte
}

// routeItem routes one plan body and captures the answer instead of
// writing it.
func (rt *Router) routeItem(r *http.Request, body []byte) routedResponse {
	rec := httptest.NewRecorder()
	req := r.Clone(r.Context())
	req.URL.Path = "/v1/plan"
	inst, err := instanceOfPlanBody(body)
	if err != nil {
		rt.serveLocal(rec, req, body, "unroutable")
	} else {
		rt.cfg.Local.Register(inst) // close the failover 404 window (see handlePlan)
		rt.route(rec, req, inst.Hash(), "/v1/plan", body)
	}
	return routedResponse{status: rec.Code, body: rec.Body.Bytes()}
}

// batchJSON is the router's split view of a POST /v1/batch body: each
// item stays raw bytes and is routed as one plan request body (the
// service's own batch document decodes items in place). The answer is
// reassembled as a service.BatchResponse.
type batchJSON struct {
	Requests []json.RawMessage `json:"requests"`
}

// handleBatch fans the items out to their owners and reassembles the
// answers in item order — a batch spanning shards parallelizes across
// replicas, which a single replica cannot do. The fan-out is bounded by
// batchFanoutPerPeer workers per peer draining a shared index: a
// thousand-item batch costs a handful of goroutines and at most that many
// concurrent forwards, not a thousand of each.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	var doc batchJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: parsing request body: %w", err))
		return
	}
	if len(doc.Requests) == 0 {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: batch has no requests"))
		return
	}
	answers := make([]routedResponse, len(doc.Requests))
	workers := batchFanoutPerPeer * len(rt.peers)
	if workers > len(doc.Requests) {
		workers = len(doc.Requests)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(doc.Requests) {
					return
				}
				answers[i] = rt.routeItem(r, doc.Requests[i])
			}
		}()
	}
	wg.Wait()

	out := service.BatchResponse{Results: make([]service.BatchItem, len(answers))}
	for i, a := range answers {
		if a.status == http.StatusOK {
			out.Results[i] = service.BatchItem{Plan: a.body}
			continue
		}
		var e service.ErrorBody
		if err := json.Unmarshal(a.body, &e); err != nil || e.Error == "" {
			e.Error = fmt.Sprintf("cluster: item failed with status %d", a.status)
		}
		out.Results[i] = service.BatchItem{Error: e.Error}
	}
	service.WriteJSON(w, http.StatusOK, out)
}

// handleByHashPath routes requests whose canonical hash is the final path
// element (PATCH /v1/instance/{hash}, GET /v1/subscribe/{hash}).
func (rt *Router) handleByHashPath(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, err)
			return
		}
	}
	rt.route(w, r, r.PathValue("hash"), r.URL.Path, body)
}

// handleHealthz answers liveness from the router itself — no peer I/O, so
// a load balancer probing it learns whether THIS process is up, not
// whether the cluster behind it is healthy (that story is /metrics: the
// peers-up, breaker and under-replication families).
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, service.Healthz{Status: "ok", Role: "router", Version: rt.version, Revision: rt.revision})
}

// route forwards one request to the owners of hash in preference order,
// falling back to the local service when every owner is down (a hash the
// router cannot parse is served locally too — the replica produces the
// canonical error). Determinism makes each owner's answer bit-identical,
// so failover down the owner list is invisible beyond the Served-By
// header. A write (PATCH) additionally fans out to the remaining owners
// after the client's answer commits, so drift state survives the loss of
// any single owner; a failed copy is tolerated (counted) — the
// anti-entropy loop converges that owner later. Routing headers record
// the decision on every response.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, hash, path string, body []byte) {
	shard, err := rt.shardOf(hash)
	if err != nil {
		rt.serveLocal(w, r, body, "unroutable")
		return
	}
	owners := rt.ownersOf(shard)
	primary := owners[0]
	obs.From(r.Context()).SetShard(shard, primary.url)
	h := w.Header()
	h.Set("X-Filterd-Shard", strconv.Itoa(shard))
	h.Set("X-Filterd-Shard-Owner", primary.url)
	if len(owners) > 1 {
		urls := make([]string, len(owners))
		for i, p := range owners {
			urls[i] = p.url
		}
		h.Set("X-Filterd-Shard-Owners", strings.Join(urls, ","))
	}
	write := r.Method == http.MethodPatch
	var served *peer
	for i, p := range owners {
		if rt.forward(w, r, p, path, body) {
			served = p
			break
		}
		if i < len(owners)-1 {
			rt.replicaFailovers.Add(1)
			rt.logger.Info("failing over to the next shard owner",
				"request_id", obs.From(r.Context()).ID(),
				"path", path, "shard", shard, "owner", p.url, "next", owners[i+1].url)
		}
	}
	if served == nil {
		// No owner committed an answer (down, erroring, or — for a
		// write — none of them knows the instance) — solve locally. The
		// determinism invariant makes the answer bit-identical to the
		// owners', so clients only notice via the Served-By header.
		rt.failovers.Add(1)
		rt.mFailovers.With(primary.url).Inc()
		rt.logger.Warn("failing over to the local service",
			"request_id", obs.From(r.Context()).ID(),
			"path", path, "shard", shard, "owner", primary.url)
		rt.serveLocal(w, r, body, "local-failover")
	}
	if write {
		// Fan the write to the owners that did not serve it. The client's
		// response is already committed (or served locally); the copies
		// only keep the co-owners' drift registries and caches warm, so a
		// 404 from an owner that has not yet learned the instance — or a
		// dead owner — is tolerated: gossip converges it.
		for _, p := range owners {
			if p != served {
				rt.forwardCopy(r, p, path, body)
			}
		}
	}
}

// forwardCopy delivers a secondary copy of a write to owner p: same
// method, path, body and request ID, but no client response writer —
// only the breaker and the fan-out counters observe the outcome.
func (rt *Router) forwardCopy(r *http.Request, p *peer, path string, body []byte) {
	rt.mFanoutWrites.With(p.url).Inc()
	if !p.breaker.Allow() {
		rt.fanoutErrors.Add(1)
		return
	}
	// The copy rides the router's base context, not the client's: a
	// client that disconnects right after its committed answer must not
	// abort the replication that keeps the co-owners consistent.
	ctx, cancel := context.WithTimeout(rt.baseCtx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, p.url+path, bytes.NewReader(body))
	if err != nil {
		rt.fanoutErrors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if id := r.Header.Get(obs.HeaderRequestID); id != "" {
		req.Header.Set(obs.HeaderRequestID, id)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		p.breaker.Failure()
		rt.fanoutErrors.Add(1)
		rt.logger.Info("write fan-out copy failed",
			"request_id", r.Header.Get(obs.HeaderRequestID), "peer", p.url, "err", err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxRespBytes))
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		p.breaker.Failure()
		rt.fanoutErrors.Add(1)
		return
	}
	p.seen.Store(true)
	p.breaker.Success()
}

// errBreakerOpen aborts a forward (and any retry loop around it) when the
// peer's breaker rejects the attempt.
var errBreakerOpen = fmt.Errorf("cluster: peer breaker open")

// forward proxies the request to p, reporting whether a response was
// committed to w; false means nothing was written and the caller can fail
// over. Each attempt passes the peer's breaker gate, and idempotent
// methods re-try transient failures up to forwardRetries times (PATCH
// never retries against the SAME peer — a replayed drift would publish
// duplicate re-plan events there; determinism makes every other forward
// safe to repeat, and the caller's owner list makes a DIFFERENT owner
// safe for PATCH, since each owner publishes to its own subscribers).
//
// A peer's 5xx never commits: it counts as a peer failure exactly like a
// transport error, so the caller fails over to the next owner (or the
// local service) and the client never sees a 5xx a healthy replica could
// have answered. Backpressure (429) and client errors commit as-is — they
// are answers, not failures. A 404 on a write never commits from a peer:
// an owner that merely has not learned the instance yet must not mask a
// co-owner (or the router's own local registry) that knows it.
//
// A non-SSE response is buffered in full BEFORE any status or header is
// committed: a peer dying mid-body therefore surfaces as a retriable
// failure and ultimately a failover, never as a truncated 200 the client
// must detect on its own. Subscribe streams cannot buffer (they are
// unbounded by design), so they commit on the response header and flush
// through; a mid-stream death there ends the stream, which is the SSE
// contract clients already handle by resubscribing.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, p *peer, path string, body []byte) bool {
	sse := strings.HasPrefix(path, "/v1/subscribe/")
	attempts := 1
	if r.Method != http.MethodPatch {
		attempts += forwardRetries
	}
	committed := false
	attempt := 0
	op := func() error {
		attempt++
		if attempt > 1 {
			rt.retries.Add(1)
			rt.mRetries.With(p.url).Inc()
		}
		if !p.breaker.Allow() {
			return resilience.Permanent(errBreakerOpen)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, p.url+path, bytes.NewReader(body))
		if err != nil {
			return resilience.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		// Propagate the request ID so the owning replica's span and log
		// lines correlate with the router's (the middleware guarantees
		// r.Header carries the canonical ID).
		if id := r.Header.Get(obs.HeaderRequestID); id != "" {
			req.Header.Set(obs.HeaderRequestID, id)
		}
		// Propagate the SSE resume cursor: a subscriber reconnecting
		// through the router must land on the owning replica with its
		// Last-Event-ID intact, or the replica cannot replay the replan
		// events fired during the gap.
		if sse {
			if lastID := r.Header.Get("Last-Event-ID"); lastID != "" {
				req.Header.Set("Last-Event-ID", lastID)
			}
		}
		start := time.Now()
		resp, err := rt.client.Do(req)
		if err != nil {
			// Blame the peer only when the PEER failed: a forward aborted
			// because the client's own context died says nothing about
			// the peer's health.
			if r.Context().Err() != nil {
				return resilience.Permanent(err)
			}
			p.breaker.Failure()
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= http.StatusInternalServerError {
			// The peer answered, but with a server-side failure. Drain and
			// treat it as a peer failure: another owner (or the local
			// service) can produce the real answer, and the zero-5xx
			// property of the chaos suites depends on it never reaching
			// the client while a healthy replica remains.
			io.Copy(io.Discard, io.LimitReader(resp.Body, maxRespBytes))
			p.breaker.Failure()
			return fmt.Errorf("cluster: %s answered %d", p.url, resp.StatusCode)
		}
		if r.Method == http.MethodPatch && resp.StatusCode == http.StatusNotFound {
			// The owner is healthy but has not learned this instance yet
			// (a fresh restart before its first gossip round). Another
			// owner may know it — and failing that, the local service
			// does whenever the plan was forwarded through this router
			// (route registers it), so a peer's 404 never commits: the
			// fall-through ends at serveLocal, which either applies the
			// patch or produces the canonical 404.
			io.Copy(io.Discard, io.LimitReader(resp.Body, maxRespBytes))
			p.seen.Store(true)
			p.breaker.Success()
			return resilience.Permanent(fmt.Errorf("cluster: %s does not know the instance", p.url))
		}
		h := w.Header()
		if sse {
			// Commit and stream: from here the forward cannot retry or
			// fail over, only end.
			p.seen.Store(true)
			p.breaker.Success()
			obs.From(r.Context()).SetServedBy(p.url)
			rt.forwarded.Add(1)
			rt.mForwards.With(p.url).Inc()
			rt.mForwardSeconds.Observe(time.Since(start).Seconds())
			if ct := resp.Header.Get("Content-Type"); ct != "" {
				h.Set("Content-Type", ct)
			}
			h.Set("X-Filterd-Served-By", p.url)
			w.WriteHeader(resp.StatusCode)
			committed = true
			flushingCopy(w, resp.Body)
			return nil
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes+1))
		if err == nil && len(respBody) > maxRespBytes {
			err = fmt.Errorf("cluster: response exceeds %d bytes", maxRespBytes)
		}
		if err != nil {
			p.breaker.Failure()
			return fmt.Errorf("cluster: reading %s response: %w", p.url, err)
		}
		p.seen.Store(true)
		p.breaker.Success()
		obs.From(r.Context()).SetServedBy(p.url)
		rt.forwarded.Add(1)
		rt.mForwards.With(p.url).Inc()
		rt.mForwardSeconds.Observe(time.Since(start).Seconds())
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			h.Set("Content-Type", ct)
		}
		h.Set("X-Filterd-Served-By", p.url)
		h.Set("Content-Length", strconv.Itoa(len(respBody)))
		w.WriteHeader(resp.StatusCode)
		w.Write(respBody)
		committed = true
		return nil
	}
	resilience.Retry(r.Context(), attempts, resilience.Backoff{Base: rt.cfg.RetryBackoff}, op)
	return committed
}

// serveLocal answers from the embedded service. The clone keeps the
// router's context, so the embedded service's middleware passes through
// and the service layer annotates the SAME span (one request, one span).
// A failover is additionally marked on the context, so /v1/explain
// reports source "failover" even when tracing is disabled.
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request, body []byte, why string) {
	rt.localServed.Add(1)
	w.Header().Set("X-Filterd-Served-By", why)
	ctx := r.Context()
	if why == "local-failover" {
		ctx = obs.MarkFailover(ctx)
	}
	obs.From(ctx).SetServedBy(why)
	req := r.Clone(ctx)
	req.Body = io.NopCloser(bytes.NewReader(body))
	req.ContentLength = int64(len(body))
	rt.local.ServeHTTP(w, req)
}

// flushingCopy streams src to w, flushing after every read so proxied
// server-sent events arrive as they happen, not when the stream closes.
func flushingCopy(w http.ResponseWriter, src io.Reader) {
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
