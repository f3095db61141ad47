package cluster

// The router's Prometheus families (DESIGN.md §5), served at GET /metrics
// — the router's counters surface. Stats keeps only the numbers the
// benchmark and cmd/filterd read in process, each also a family here (a
// per-peer counter sums to its Stats total). Per-peer counters are
// labeled by the peer's base URL; breaker positions are mirrored into
// gauges at scrape time so the breaker itself stays the single source of
// truth.

import "strconv"

// initMetrics registers the router families into rt.metrics. Called once
// from New, before the health loop starts.
func (rt *Router) initMetrics() {
	m := rt.metrics
	rt.mForwards = m.CounterVec("filterd_router_forwards_total",
		"Requests served by their owning replica, by peer.", "peer")
	rt.mFailovers = m.CounterVec("filterd_router_failovers_total",
		"Forwards that fell back to the local deterministic solve, by peer.", "peer")
	rt.mRetries = m.CounterVec("filterd_router_retries_total",
		"Forward re-attempts after a transient failure, by peer.", "peer")
	rt.mBreakerState = m.GaugeVec("filterd_router_breaker_state",
		"Peer breaker position: 0 closed, 1 open, 2 half-open.", "peer")
	rt.mBreakerOpens = m.CounterVec("filterd_router_breaker_opens_total",
		"Transitions of the peer's breaker into Open.", "peer")
	rt.mForwardSeconds = m.Histogram("filterd_router_forward_seconds",
		"Latency of committed forwards in seconds.", nil)

	rt.mFanoutWrites = m.CounterVec("filterd_router_fanout_writes_total",
		"Secondary write copies fanned to co-owners, by peer.", "peer")
	rt.mShardReplicas = m.GaugeVec("filterd_router_shards_by_replication",
		"Shards whose currently available owner count equals the factor label.", "factor")

	m.CounterFunc("filterd_router_local_served_total",
		"Requests answered by the embedded service (owned locally, unroutable, or failovers).",
		func() float64 { return float64(rt.localServed.Load()) })
	m.CounterFunc("filterd_router_replica_failovers_total",
		"Requests served by a non-preferred owner after an earlier owner failed.",
		func() float64 { return float64(rt.replicaFailovers.Load()) })
	m.CounterFunc("filterd_router_fanout_errors_total",
		"Failed secondary write copies (tolerated; gossip converges the owner).",
		func() float64 { return float64(rt.fanoutErrors.Load()) })
	m.GaugeFunc("filterd_router_peers",
		"Configured replicas.", func() float64 { return float64(len(rt.peers)) })
	m.GaugeFunc("filterd_router_peers_up",
		"Replicas whose breaker is not open.",
		func() float64 { return float64(rt.Stats().PeersUp) })
	m.GaugeFunc("filterd_router_shards",
		"Shard count 2^B, for B hash-prefix bits.", func() float64 { return float64(int(1) << rt.cfg.shardBits) })
	m.GaugeFunc("filterd_router_replicas",
		"Configured owners per shard (R).", func() float64 { return float64(rt.cfg.Replicas) })
	m.GaugeFunc("filterd_router_underreplicated_shards",
		"Shards with fewer than R owners currently available.",
		func() float64 { return float64(rt.Stats().UnderReplicated) })

	m.OnScrape(func() {
		for _, p := range rt.peers {
			rt.mBreakerState.With(p.url).Set(float64(p.breaker.State()))
			rt.mBreakerOpens.With(p.url).Set(p.breaker.Opens())
		}
		for f, count := range rt.census() {
			rt.mShardReplicas.With(strconv.Itoa(f)).Set(float64(count))
		}
	})
}
