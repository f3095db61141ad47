// Command filterd is the long-running planning service: a daemon that
// plans filtering-workflow instances over HTTP, amortizing the NP-hard
// plan search across repeated and slowly-drifting instances.
//
// Every instance is canonicalized (service permutation, rational
// normalization, precedence closure — internal/canon) so equivalent
// request bodies land on the same content hash; solved plans live in a
// bounded LRU with singleflight deduplication (internal/plancache); drift
// updates re-plan warm-started from the cached solution and push
// server-sent events to subscribers (internal/service); and every request
// runs under its own context, so a disconnected client aborts its solve.
//
// With -data-dir the plan cache is persistent (internal/store): every
// solve is written through to disk and warm-loaded on restart, so a
// restarted daemon answers previously solved requests bit-identical to
// before, without re-solving. With -peers the daemon is a cluster router
// (internal/cluster): requests are forwarded to the replicas owning the
// canonical hash's shard (-shard-bits prefix bits, -replicas owners per
// shard), with health checks, read failover across the owners, write
// (PATCH) fan-out to all of them, and local-solve failover as the last
// resort. With -sync-peers a replica gossips its drift registry and plan
// entries with its co-owners (anti-entropy over POST /v1/sync), so
// PATCHed state converges on every owner and a restarted replica streams
// back what it missed. -fault-seed arms the deterministic fault injector
// (internal/faults) for chaos testing.
//
// Observability (DESIGN.md §7): every request carries an
// X-Filterd-Request-Id (inbound honored, otherwise generated) echoed on
// every response and threaded through log lines, the span ring at
// GET /debug/requests, and the plan-provenance endpoint
// GET /v1/explain/{hash}. Logs are structured (log/slog); -log-format
// json emits one JSON object per line for collectors. -debug-addr
// starts a second, private HTTP server with net/http/pprof, so profiling
// never has to share the public listener.
//
// Usage:
//
//	filterd [-addr :8080] [-workers N] [-cache N] [-max-pending N] [-max-services N]
//	        [-data-dir DIR] [-peers URL,URL,...] [-shard-bits B] [-replicas R]
//	        [-sync-peers URL,URL,...] [-gossip-interval D]
//	        [-fault-seed S] [-fault-drop N] [-fault-error N] [-fault-truncate N] [-fault-delay N]
//	        [-log-level info] [-log-format text] [-trace-requests N]
//	        [-debug-addr ADDR] [-version]
//
// API (JSON; instances use the filterplan -in file format, schedules the
// oplist codec):
//
//	POST  /v1/plan             {"instance": {...}, "model": "inorder", "objective": "period", ...}
//	POST  /v1/batch            {"requests": [{...}, ...]}
//	PATCH /v1/instance/{hash}  {"updates": [{"service": "C3", "cost": "7/2"}], "model": ...}
//	GET   /v1/subscribe/{hash} server-sent events: one "replan" event per objective change
//	GET   /v1/explain/{hash}   provenance of the last serve: method, family, source
//	                           (cache|store|solve|failover), search-effort counters, timings
//	GET   /v1/healthz          liveness: status, version, VCS revision (the router's
//	                           health loop probes it on every peer)
//	GET   /metrics             every counter, Prometheus text format: request latency,
//	                           per-phase and solver wall time, search-effort totals
//	                           (orchestration-memo hits of each solve included), plan-cache
//	                           hit rates and capacity, registered instances, solves waiting
//	                           for a slot and shed counts, store and sync traffic — plus,
//	                           in router mode, per-peer forward, failover and
//	                           circuit-breaker state
//	GET   /debug/requests      the most recent request spans (bounded ring; empty when
//	                           -trace-requests is 0)
//
// Example (single replica with persistence):
//
//	filterd -addr 127.0.0.1:8080 -data-dir /var/lib/filterd &
//	curl -s -X POST 127.0.0.1:8080/v1/plan \
//	     -d "{\"instance\": $(cat testdata/webquery8.json), \"model\": \"inorder\"}"
//
// Example (2-replica cluster): see scripts/smoke_cluster.sh, which boots
// two replicas plus a router and exercises routing, failover, and the
// request-ID round-trip.
//
// See examples/service for a complete end-to-end program, including the
// log line → /debug/requests → /v1/explain correlation walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "solver slots: the most solves running at once (0 = all CPUs; inner solves are serial — one pool, never nested)")
		cacheSize   = flag.Int("cache", 256, "plan cache capacity (completed entries)")
		maxPending  = flag.Int("max-pending", 0, "load-shedding watermark: admitted solves (waiting for a slot or running) beyond it get 429 (0 = 64 + 2*workers)")
		maxServices = flag.Int("max-services", 64, "largest accepted instance")
		dataDir     = flag.String("data-dir", "", "persistent plan store directory (empty: in-memory only)")
		peers       = flag.String("peers", "", "comma-separated replica base URLs; when set, run as the cluster router")
		shardBits   = flag.Int("shard-bits", 8, "canonical-hash prefix bits for cluster sharding (2^B shards)")
		replicas    = flag.Int("replicas", 2, "owners per shard R (router mode): reads fail over across them, writes fan to all")
		syncPeers   = flag.String("sync-peers", "", "comma-separated co-replica base URLs to anti-entropy sync with (replica mode)")
		gossipEvery = flag.Duration("gossip-interval", 2*time.Second, "anti-entropy period for -sync-peers")
		faultSeed   = flag.Int64("fault-seed", 0, "deterministic fault-injection seed (chaos testing; 0 disables)")
		faultDrop   = flag.Int("fault-drop", 0, "drop 1-in-N forwarded requests (with -fault-seed)")
		faultErr    = flag.Int("fault-error", 0, "turn 1-in-N forwarded requests into 502s (with -fault-seed)")
		faultTrunc  = flag.Int("fault-truncate", 0, "truncate 1-in-N forwarded response bodies (with -fault-seed)")
		faultDelay  = flag.Int("fault-delay", 0, "delay 1-in-N forwarded requests (with -fault-seed)")
		logLevel    = flag.String("log-level", "info", "log threshold: debug, info, warn, or error")
		logFormat   = flag.String("log-format", "text", "log line format: text or json")
		traceReqs   = flag.Int("trace-requests", 256, "request spans kept for GET /debug/requests (0 disables tracing)")
		debugAddr   = flag.String("debug-addr", "", "private listen address for net/http/pprof (empty: disabled)")
		showVersion = flag.Bool("version", false, "print version and VCS revision, then exit")
	)
	flag.Parse()

	version, revision := obs.BuildInfo()
	if *showVersion {
		fmt.Printf("filterd %s (%s)\n", version, revision)
		return
	}

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	// The default logger feeds the few slog.Warn call sites deep in the
	// service's write paths (they have no Server receiver to reach s.logger).
	slog.SetDefault(logger)

	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(*dataDir)
		if err != nil {
			fatal(err)
		}
	}

	// One span ring and one registry for the whole process: in router mode
	// the router's middleware owns the spans (the embedded service
	// annotates them), and the service's filterd_* families share the
	// GET /metrics page with the cluster's filterd_router_* families.
	tracer := obs.NewTracer(*traceReqs)
	reg := metrics.New()
	srv := service.New(service.Config{
		Workers:     *workers,
		CacheSize:   *cacheSize,
		MaxPending:  *maxPending,
		MaxServices: *maxServices,
		Store:       st,
		Metrics:     reg,
		Tracer:      tracer,
		Logger:      logger,
	})
	if st != nil {
		ls := st.Stats()
		logger.Info("warm-loaded persisted plans", "dir", *dataDir, "loaded", ls.Loaded, "skipped", ls.Skipped)
	}

	// Deterministic fault injection (chaos testing): with -fault-seed the
	// router's forwarding client — and the store's write path — run
	// through the seeded injector, so scripts/smoke_chaos.sh exercises
	// replica loss and wire noise on a reproducible schedule.
	var injector *faults.Injector
	if *faultSeed != 0 {
		injector = faults.New(faults.Config{
			Seed:     *faultSeed,
			Drop:     *faultDrop,
			Err:      *faultErr,
			Truncate: *faultTrunc,
			Delay:    *faultDelay,
		})
		if st != nil {
			st.SetHooks(injector.StoreHooks())
		}
		logger.Warn("fault injection armed", "schedule", injector.String())
	}

	handler := http.Handler(service.Handler(srv))
	var router *cluster.Router
	if *peers != "" {
		peerList := strings.Split(*peers, ",")
		for i := range peerList {
			peerList[i] = strings.TrimSpace(peerList[i])
		}
		var client *http.Client
		if injector != nil {
			client = &http.Client{Transport: injector.RoundTripper(nil)}
		}
		router, err = cluster.New(cluster.Config{
			Peers:     peerList,
			ShardBits: *shardBits,
			Replicas:  *replicas,
			Local:     srv,
			Metrics:   reg,
			Tracer:    tracer,
			Logger:    logger,
			Client:    client,
		})
		if err != nil {
			fatal(err)
		}
		handler = router
		logger.Info("routing shards across peers (local failover attached)",
			"shards", 1<<*shardBits, "replicas", *replicas, "peers", len(peerList))
	}

	// Replica-side anti-entropy: with -sync-peers this replica gossips
	// its drift registry and plan-store entries with its co-owners, so
	// PATCHed state converges on every owner and a restarted replica
	// streams back what it missed instead of cold-solving it.
	var gossip *cluster.Gossip
	if *syncPeers != "" {
		peerList := strings.Split(*syncPeers, ",")
		for i := range peerList {
			peerList[i] = strings.TrimSpace(peerList[i])
		}
		var client *http.Client
		if injector != nil {
			client = &http.Client{Transport: injector.RoundTripper(nil)}
		}
		gossip, err = cluster.NewGossip(cluster.GossipConfig{
			Peers:    peerList,
			Local:    srv,
			Interval: *gossipEvery,
			Client:   client,
			Metrics:  reg,
			Logger:   logger,
		})
		if err != nil {
			fatal(err)
		}
		gossip.Start()
		logger.Info("anti-entropy sync started", "peers", len(peerList), "interval", gossipEvery.String())
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = newDebugServer(*debugAddr)
		go func() {
			if derr := debugSrv.ListenAndServe(); derr != nil && !errors.Is(derr, http.ErrServerClosed) {
				logger.Error("debug server failed", "addr", *debugAddr, "err", derr)
			}
		}()
		logger.Info("debug server listening", "addr", *debugAddr)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Subscription streams end when the graceful drain starts; otherwise
	// one connected subscriber would hold Shutdown to its full deadline.
	httpSrv.RegisterOnShutdown(srv.EndSubscriptions)

	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	logger.Info("listening", "addr", *addr, "workers", srv.Stats().Workers, "cache", *cacheSize,
		"version", version, "revision", revision)
	select {
	case err := <-done:
		// ListenAndServe only returns on failure (e.g. port in use).
		shutdown(logger, srv, router, gossip, st, debugSrv)
		fatal(err)
	case s := <-sig:
		logger.Info("shutting down on signal", "signal", s.String())
	}

	// Graceful shutdown: stop accepting, drain in-flight requests under a
	// deadline, then wait for the admitted solves and flush the store.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown drain incomplete", "err", err)
	}
	shutdown(logger, srv, router, gossip, st, debugSrv)
	stats := srv.Stats()
	logger.Info("served", "plan_requests", stats.PlanRequests, "cache_hits", stats.Cache.Hits,
		"coalesced", stats.Cache.Coalesced, "solves", stats.Solves)
}

// newLogger builds the process logger from the -log-level and -log-format
// flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// newDebugServer builds the private profiling listener: pprof, the
// expensive, potentially sensitive surface, stays off the public address
// (the span ring is on the public handler at /debug/requests).
func newDebugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
}

// shutdown releases the daemon's moving parts in dependency order: debug
// listener, router health loop, gossip loop, admitted solves, then the store
// flush (every entry is already on disk write-through; the flush forces
// directory metadata out too).
func shutdown(logger *slog.Logger, srv *service.Server, router *cluster.Router, gossip *cluster.Gossip, st *store.Store, debugSrv *http.Server) {
	if debugSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		debugSrv.Shutdown(ctx)
		cancel()
	}
	if router != nil {
		router.Close()
	}
	if gossip != nil {
		gossip.Close()
	}
	srv.Close()
	if st != nil {
		if err := st.Flush(); err != nil {
			logger.Warn("store flush failed", "err", err)
		} else {
			ss := st.Stats()
			logger.Info("store flushed", "writes", ss.Writes, "write_errors", ss.WriteErrors)
		}
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "filterd:", err)
	os.Exit(1)
}
