package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/service"
)

// clusterReplicas is the number of replicas behind the router. With the
// shipped R=2 every shard has both as owners; reads go to the preferred one.
const clusterReplicas = 2

// directEvery: in the traced pass one request in this many is also sent
// straight to the owning replica, so the router hop is a difference of two
// medians taken in the same phase.
const directEvery = 4

// clusterEnv is cluster-routed: a router with its embedded local server in
// front of two replicas, all three behind loopback listeners in this
// process, configured as cmd/filterd configures them (R=2, shard-bits 8).
type clusterEnv struct {
	cfg      runConfig
	replicas []*service.Server
	rls      []*listener
	local    *service.Server
	rt       *cluster.Router
	gw       *listener
	set      []hitInstance
	problems []string // set-up comparisons that failed
}

func setupClusterRouted(cfg runConfig) (env, error) {
	e := &clusterEnv{cfg: cfg}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	var peers []string
	for i := 0; i < clusterReplicas; i++ {
		srv, _, _ := newReplica(nil)
		e.replicas = append(e.replicas, srv)
		ln, err := listen(service.Handler(srv))
		if err != nil {
			return nil, err
		}
		e.rls = append(e.rls, ln)
		peers = append(peers, ln.url)
	}
	local, reg, tracer := newReplica(nil)
	e.local = local
	var err error
	e.rt, err = cluster.New(cluster.Config{Peers: peers, Local: local, Metrics: reg, Tracer: tracer, Logger: quietLogger()})
	if err != nil {
		return nil, err
	}
	if e.gw, err = listen(e.rt); err != nil {
		return nil, err
	}
	if e.set, err = buildWorkingSet(cfg, e.gw.url); err != nil {
		return nil, err
	}
	// Every routed body must be byte-identical to the answer of the replica
	// that owns the shard, asked directly.
	hc := newHTTPClient()
	defer hc.close()
	for i, inst := range e.set {
		status, _, body, err := hc.do(http.MethodPost, inst.owner+"/v1/plan", inst.forms[0].body)
		if err != nil || status != http.StatusOK || !bytes.Equal(body, inst.want) {
			e.problems = append(e.problems, fmt.Sprintf("cluster-routed instance %d: routed body differs from owner %s (status %d, err %v)",
				i, inst.owner, status, err))
		}
	}
	ok = true
	return e, nil
}

func (e *clusterEnv) close() {
	if e.gw != nil {
		e.gw.close()
	}
	if e.rt != nil {
		e.rt.Close()
	}
	if e.local != nil {
		e.local.Close()
	}
	for _, ln := range e.rls {
		ln.close()
	}
	for _, srv := range e.replicas {
		srv.Close()
	}
}

func (e *clusterEnv) measure(d time.Duration, traced bool) *sample {
	var after func(tr *trace, op, root int, inst *hitInstance, form rendering)
	if traced {
		direct := make([]*httpClient, e.cfg.clients)
		for i := range direct {
			direct[i] = newHTTPClient()
			defer direct[i].close()
		}
		after = func(tr *trace, op, root int, inst *hitInstance, form rendering) {
			tr.timed("canon", root, op, func() { canon.Canonicalize(form.app) })
			if op%directEvery == 0 {
				tr.timed("http.post.direct", root, op, func() {
					direct[op/opsPerClient].do(http.MethodPost, inst.owner+"/v1/plan", form.body)
				})
			}
		}
	}
	echo, err := hitEcho(e.set)
	if err != nil {
		return failedSample("cluster-routed: %v", err)
	}
	defer echo.close()
	before := e.rt.Stats()
	served := e.planRequests()
	deadline := time.Now().Add(d)
	s := runClients(e.cfg.clients, traced, func(client int, s *sample, tr *trace) {
		hitLoop(e.cfg, client, e.set, e.gw.url, echo, deadline, s, tr, after)
	})
	for _, p := range e.problems {
		s.mismatch("%s", p)
	}
	stats := e.rt.Stats()
	s.extra["cluster.forwarded"] = float64(stats.Forwarded - before.Forwarded)
	s.extra["cluster.local_served"] = float64(stats.LocalServed - before.LocalServed)
	s.extra["cluster.failovers"] = float64(stats.Failovers - before.Failovers)
	s.extra["cluster.retries"] = float64(stats.Retries - before.Retries)
	var most, total float64
	for i, now := range e.planRequests() {
		n := float64(now - served[i])
		most, total = max(most, n), total+n
	}
	s.extra["cluster.shard_skew"] = ratio(most, total/clusterReplicas)
	serverCounters(s, e.replicas...)
	return s
}

// planRequests reads each replica's served-plan counter.
func (e *clusterEnv) planRequests() []int64 {
	out := make([]int64, len(e.replicas))
	for i, srv := range e.replicas {
		out[i] = srv.Stats().PlanRequests
	}
	return out
}

func (e *clusterEnv) layers(untraced, traced *sample, m map[string]float64) {
	hitLayers(traced, e.set, m)
	copyCounters(untraced, m)
	layers := traced.layerTimes()
	if layers["http.post.direct"] != nil {
		m["cluster.hop_us"] = (medianNs(layers, "http.post") - medianNs(layers, "http.post.direct")) / 1e3
	}

	// One anti-entropy round: a fresh empty replica pulls from a full one.
	fresh, _, _ := newReplica(nil)
	defer fresh.Close()
	g, err := cluster.NewGossip(cluster.GossipConfig{Peers: []string{e.rls[0].url}, Local: fresh, Logger: quietLogger()})
	if err != nil {
		return
	}
	defer g.Close()
	t0 := time.Now()
	g.RunOnce(context.Background())
	m["cluster.sync_round_ms"] = float64(time.Since(t0)) / 1e6
	m["cluster.sync_items"] = float64(g.Stats().Imported)
}
