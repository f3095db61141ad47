package service

// Operational metrics of the planning service (DESIGN.md §4): the
// Prometheus-text surface served at GET /metrics by Handler, and the only
// counters surface of the HTTP API — every number Stats reports has a
// family here (TestMetricsCoverStats pins the mapping). Hot-path
// instruments (request latency, solver wall time) are real histograms
// updated inline; everything already tracked by an existing counter —
// plan cache, registry, solver effort and orchestration-memo totals,
// store, subscription stats — is published as a callback read at scrape
// time, so there is exactly one source of truth per number.

// initMetrics registers the server's families into its registry. Called
// once from New; a second server must use its own registry (names
// register once).
func (s *Server) initMetrics() {
	m := s.metrics
	s.mRequests = m.CounterVec("filterd_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	s.mLatency = m.HistogramVec("filterd_http_request_seconds",
		"HTTP request latency in seconds, by route.", nil, "route")
	s.mSolveSeconds = m.Histogram("filterd_solve_seconds",
		"Solver wall time in seconds per executed solve (cache hits excluded).", nil)

	// Per-phase latency histograms of the request spine (obs.Phase). The
	// children are resolved once: Vec.With builds a lookup key per call,
	// and canon/cache observe on every request including cache hits, so
	// the hot path must stay allocation-free.
	phases := m.HistogramVec("filterd_phase_seconds",
		"Request phase latency in seconds (canon, cache, queue, solve, orchestrate, store).",
		nil, "phase")
	s.mPhaseCanon = phases.With("canon")
	s.mPhaseCache = phases.With("cache")
	s.mPhaseQueue = phases.With("queue")
	s.mPhaseSolve = phases.With("solve")
	s.mPhaseOrch = phases.With("orchestrate")
	s.mPhaseStore = phases.With("store")

	// Solver search-effort totals, summed across every executed solve
	// (failed and canceled ones included; observeEffort adds them): the
	// branch-and-bound evidence counters, and how many candidate
	// orchestrations each solve's own memo served rather than computed.
	m.CounterFunc("filterd_solver_nodes_expanded_total",
		"Branch-and-bound partial assignments whose bound was computed, summed over all solves.",
		func() float64 { return float64(s.nodesExpanded.Load()) })
	m.CounterFunc("filterd_solver_nodes_pruned_total",
		"Branch-and-bound subtrees discarded by the incumbent bound, summed over all solves.",
		func() float64 { return float64(s.nodesPruned.Load()) })
	m.CounterFunc("filterd_solver_candidates_evaluated_total",
		"Branch-and-bound leaves (complete candidate graphs) whose objective was computed, summed over all solves; hill-climb candidates are not counted.",
		func() float64 { return float64(s.candEvaluated.Load()) })
	m.CounterFunc("filterd_memo_hits_total",
		"Candidate orchestrations served by their solve's memo, summed over all solves.",
		func() float64 { return float64(s.memoHits.Load()) })
	m.CounterFunc("filterd_memo_misses_total",
		"Candidate orchestrations computed because their solve's memo had no entry, summed over all solves.",
		func() float64 { return float64(s.memoMisses.Load()) })

	// Build identity as the Prometheus build-info convention: a constant-1
	// gauge whose labels carry the version and VCS revision.
	m.GaugeVec("filterd_build_info",
		"Build identity: constant 1, labeled with the module version and VCS revision.",
		"version", "revision").With(s.version, s.revision).Set(1)

	m.GaugeFunc("filterd_queue_depth",
		"Admitted solves currently waiting for a solver slot.",
		func() float64 { return float64(s.waiting.Load()) })
	m.GaugeFunc("filterd_pending_solves",
		"Admitted-but-unfinished solves (waiting for a slot or running).",
		func() float64 { return float64(s.pending.Load()) })
	m.GaugeFunc("filterd_max_pending",
		"Load-shedding watermark: admissions beyond it are rejected with 429.",
		func() float64 { return float64(s.cfg.MaxPending) })
	m.GaugeFunc("filterd_workers",
		"Solver slots: the most solves running at once.",
		func() float64 { return float64(s.cfg.Workers) })
	m.CounterFunc("filterd_shed_total",
		"Admissions rejected by the MaxPending watermark (HTTP 429).",
		func() float64 { return float64(s.shed.Load()) })

	m.CounterFunc("filterd_plan_requests_total",
		"Plan requests (batch items included).",
		func() float64 { return float64(s.planRequests.Load()) })
	m.CounterFunc("filterd_drift_requests_total",
		"Drift re-planning requests.",
		func() float64 { return float64(s.driftRequests.Load()) })
	m.CounterFunc("filterd_rejected_total",
		"Requests rejected at validation.",
		func() float64 { return float64(s.rejected.Load()) })
	m.CounterFunc("filterd_solves_total",
		"Solver runs actually executed.",
		func() float64 { return float64(s.solves.Load()) })

	m.CounterFunc("filterd_plancache_hits_total",
		"Plan-cache hits.", func() float64 { return float64(s.cache.Stats().Hits) })
	m.CounterFunc("filterd_plancache_misses_total",
		"Plan-cache misses (solves led).", func() float64 { return float64(s.cache.Stats().Misses) })
	m.CounterFunc("filterd_plancache_coalesced_total",
		"Requests coalesced onto a concurrent identical solve.",
		func() float64 { return float64(s.cache.Stats().Coalesced) })
	m.CounterFunc("filterd_plancache_evictions_total",
		"Plan-cache LRU evictions.", func() float64 { return float64(s.cache.Stats().Evictions) })
	m.CounterFunc("filterd_plancache_seeded_total",
		"Entries warm-loaded from the persistent store at startup.",
		func() float64 { return float64(s.cache.Stats().Seeded) })
	m.GaugeFunc("filterd_plancache_entries",
		"Completed plan-cache entries.", func() float64 { return float64(s.cache.Stats().Len) })
	m.GaugeFunc("filterd_plancache_capacity",
		"Plan-cache capacity bound (completed entries).", func() float64 { return float64(s.cache.Stats().Cap) })
	m.GaugeFunc("filterd_registered_instances",
		"Registered drift-target instances (bounded by the registry size).",
		func() float64 { return float64(s.registry.Stats().Len) })
	m.GaugeFunc("filterd_plancache_inflight",
		"Solves currently running under the cache's singleflight.",
		func() float64 { return float64(s.cache.Stats().InFlight) })

	m.GaugeFunc("filterd_subscribers",
		"Open drift-subscription streams.", func() float64 { return float64(s.hub.subscribers()) })
	m.CounterFunc("filterd_subscribe_events_total",
		"Re-plan events delivered to subscribers.",
		func() float64 { return float64(s.hub.published.Load()) })
	m.CounterFunc("filterd_subscribe_dropped_total",
		"Re-plan events lost to full subscriber buffers.",
		func() float64 { return float64(s.hub.dropped.Load()) })

	if s.cfg.Store != nil {
		m.CounterFunc("filterd_store_writes_total",
			"Plans persisted write-through.", func() float64 { return float64(s.cfg.Store.Stats().Writes) })
		m.CounterFunc("filterd_store_write_errors_total",
			"Failed persistence attempts (requests unaffected).",
			func() float64 { return float64(s.cfg.Store.Stats().WriteErrors) })
		m.CounterFunc("filterd_store_loaded_total",
			"Entries warm-loaded from the store at startup.",
			func() float64 { return float64(s.cfg.Store.Stats().Loaded) })
		m.CounterFunc("filterd_store_skipped_total",
			"Entry files the warm-load rejected (wrong version, hash mismatch, decode error).",
			func() float64 { return float64(s.cfg.Store.Stats().Skipped) })
		m.CounterFunc("filterd_store_quarantined_total",
			"Corrupt entry files renamed .bad at warm-load instead of aborting startup.",
			func() float64 { return float64(s.cfg.Store.Stats().Quarantined) })
	}

	// Replica synchronization (/v1/sync): the anti-entropy merge traffic.
	syncAccepted := m.CounterVec("filterd_sync_accepted_total",
		"Items merged from peers via /v1/sync, by kind.", "kind")
	mSyncInst := syncAccepted.With("instances")
	mSyncEnt := syncAccepted.With("entries")
	m.OnScrape(func() {
		mSyncInst.Set(s.syncAcceptedInstances.Load())
		mSyncEnt.Set(s.syncAcceptedEntries.Load())
	})
	m.CounterFunc("filterd_sync_duplicates_total",
		"Sync imports already present locally.",
		func() float64 { return float64(s.syncDuplicates.Load()) })
	m.CounterFunc("filterd_sync_rejected_total",
		"Sync imports that failed verification (decode or hash mismatch).",
		func() float64 { return float64(s.syncRejected.Load()) })
	m.CounterFunc("filterd_sync_conflicts_total",
		"Sync imports whose key exists locally with a different solution — determinism violations.",
		func() float64 { return float64(s.syncConflicts.Load()) })
	syncBytes := m.CounterVec("filterd_sync_bytes_total",
		"Store-codec entry bytes streamed via /v1/sync, by direction.", "direction")
	mSyncIn := syncBytes.With("in")
	mSyncOut := syncBytes.With("out")
	m.OnScrape(func() {
		mSyncIn.Set(s.syncBytesIn.Load())
		mSyncOut.Set(s.syncBytesOut.Load())
	})
}
