package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/canon"
	"repro/internal/plancache"
	"repro/internal/service"
)

// hitEnv is serve-hit: one replica behind a real loopback listener, the
// working set solved at set-up.
type hitEnv struct {
	cfg runConfig
	srv *service.Server
	ln  *listener
	set []hitInstance
}

func setupServeHit(cfg runConfig) (env, error) {
	e := &hitEnv{cfg: cfg}
	e.srv, _, _ = newReplica(nil)
	var err error
	if e.ln, err = listen(service.Handler(e.srv)); err != nil {
		e.srv.Close()
		return nil, err
	}
	if e.set, err = buildWorkingSet(cfg, e.ln.url); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *hitEnv) close() {
	e.ln.close()
	e.srv.Close()
}

func (e *hitEnv) measure(d time.Duration, traced bool) *sample {
	var after func(tr *trace, op, root int, inst *hitInstance, form rendering)
	if traced {
		keys := plancache.New[int](256)
		handler := service.Handler(e.srv)
		after = func(tr *trace, op, root int, _ *hitInstance, form rendering) {
			directHitCalls(tr, op, root, e.srv, handler, keys, form)
		}
	}
	echo, err := hitEcho(e.set)
	if err != nil {
		return failedSample("serve-hit: %v", err)
	}
	defer echo.close()
	deadline := time.Now().Add(d)
	s := runClients(e.cfg.clients, traced, func(client int, s *sample, tr *trace) {
		hitLoop(e.cfg, client, e.set, e.ln.url, echo, deadline, s, tr, after)
	})
	serverCounters(s, e.srv)
	return s
}

// directHitCalls are the benchmark's own calls into each layer a cache hit
// passes through, on the input of the request just answered: the in-process
// Plan hit, canonicalization, a plan-cache hit (on keys, a cache the
// benchmark owns, holding the workload's keys), the schedule encoder, and
// the whole HTTP handler without a socket.
func directHitCalls(tr *trace, op, root int, srv *service.Server, handler http.Handler, keys *plancache.Cache[int], form rendering) {
	var resp service.Response
	tr.timed("service.plan_hit", root, op, func() { resp, _ = srv.Plan(servingRequest(form.app)) })
	tr.timed("canon", root, op, func() { canon.Canonicalize(form.app) })
	keys.Do(resp.Key, func() (int, error) { return 0, nil }) // first sight of a key seeds it
	tr.timed("plancache", root, op, func() { keys.Do(resp.Key, func() (int, error) { return 0, nil }) })
	if resp.Solution.Sched.List != nil {
		tr.timed("oplist", root, op, func() { json.Marshal(resp.Solution.Sched.List) })
	}
	tr.timed("service.handler", root, op, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(form.body))
		handler.ServeHTTP(httptest.NewRecorder(), req)
	})
}

func (e *hitEnv) layers(untraced, traced *sample, m map[string]float64) {
	hitLayers(traced, e.set, m)
	m["service.http_overhead_us"] = percentile(untraced.sorted(""), 50)*1e3 - m["service.plan_hit_us"]
	copyCounters(untraced, m)
}

// hitLayers reports what both hit workloads measure: the direct-call
// medians of the traced pass and the size of an answer.
func hitLayers(traced *sample, set []hitInstance, m map[string]float64) {
	layers := traced.layerTimes()
	m["canon.canonicalize_us"] = medianNs(layers, "canon") / 1e3
	m["plancache.hit_ns"] = medianNs(layers, "plancache")
	m["oplist.encode_us"] = medianNs(layers, "oplist") / 1e3
	m["service.plan_hit_us"] = medianNs(layers, "service.plan_hit") / 1e3
	m["service.handler_us"] = medianNs(layers, "service.handler") / 1e3
	var bytesTotal float64
	for _, inst := range set {
		bytesTotal += float64(len(inst.want))
	}
	m["oplist.response_bytes"] = bytesTotal / float64(len(set))
}
