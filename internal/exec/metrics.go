package exec

// The executor's observability surface: filterexec_* instruments on the
// shared metrics registry, scraped through the same /metrics endpoint as
// the control plane's filterd_* families when cmd/filterexec runs with
// -debug-addr, and asserted on directly in tests otherwise.

import (
	"repro/internal/metrics"
)

// execMetrics bundles the executor's instruments.
type execMetrics struct {
	tuples        *metrics.Counter
	emitted       *metrics.Counter
	rounds        *metrics.Counter
	patches       *metrics.Counter
	replans       *metrics.Counter
	driftDeferred *metrics.Counter
	swaps         *metrics.Counter
	throughput    *metrics.Gauge
	occupancy     *metrics.GaugeVec
}

// newExecMetrics registers the filterexec_* instruments on r. The
// registry panics on duplicate names, so at most one Executor per
// process may carry a registry (cmd/filterexec's arrangement).
func newExecMetrics(r *metrics.Registry) *execMetrics {
	return &execMetrics{
		tuples: r.Counter("filterexec_tuples_total",
			"Tuples pushed through the execution graph."),
		emitted: r.Counter("filterexec_tuples_emitted_total",
			"Tuples alive at every exit service (stream survivors)."),
		rounds: r.Counter("filterexec_rounds_total",
			"Execution rounds completed."),
		patches: r.Counter("filterexec_drift_patches_total",
			"Drift PATCHes issued by the controller."),
		replans: r.Counter("filterexec_replan_events_total",
			"Externally triggered re-plans adopted from the subscription stream."),
		driftDeferred: r.Counter("filterexec_drift_deferred_total",
			"Drift PATCHes deferred to the next round because filterd shed load."),
		swaps: r.Counter("filterexec_schedule_swaps_total",
			"Schedule hot swaps (controller PATCHes plus adopted re-plans)."),
		throughput: r.Gauge("filterexec_throughput_tuples_per_second",
			"Wall-clock tuple throughput of the last completed run."),
		occupancy: r.GaugeVec("filterexec_service_occupancy",
			"Fraction of the stream reaching each service (evaluated / completed tuples).",
			"service"),
	}
}

// observeOccupancy publishes each service's stream occupancy: the
// fraction of completed tuples that reached (were evaluated by) it. The
// gauges were resolved when the program was compiled.
func observeOccupancy(stages []stage, completed uint64) {
	if completed == 0 {
		return
	}
	for k := range stages {
		st := &stages[k]
		st.occupancy.Set(float64(st.est.in) / float64(completed))
	}
}
