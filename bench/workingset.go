package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/gen"
	"repro/internal/workflow"
)

// The hit workloads (serve-hit, cluster-routed) send one request stream: a
// working set of solved instances, every request a different wire form of
// one of them, so the server decodes, canonicalizes, hits and encodes but
// never solves.
const (
	workingSetSize = 64 // instances; fits the 256-entry plan cache
	workingSetN    = 8  // services per instance
	renderingsEach = 32 // distinct wire forms per instance
)

// hitInstance is one working-set member: its wire forms and the response
// body every hit on it must reproduce byte for byte.
type hitInstance struct {
	app   *workflow.App
	forms []rendering
	want  []byte
	owner string // cluster-routed: URL of the replica that owns the shard
}

// buildWorkingSet generates the working set from the seed, solves every
// instance through url (first request: miss) and records the body of the
// first hit as the expected answer.
func buildWorkingSet(cfg runConfig, url string) ([]hitInstance, error) {
	set := make([]hitInstance, workingSetSize)
	hc := newHTTPClient()
	defer hc.close()
	for i := range set {
		app := filteringApp(subSeed(cfg.seed, "working-set", i), workingSetN)
		req := servingRequest(app)
		forms, err := renderings(gen.NewRand(subSeed(cfg.seed, "renderings", i)), app, renderingsEach, req.Model, req.Objective)
		if err != nil {
			return nil, err
		}
		set[i] = hitInstance{app: app, forms: forms}
		for round := 0; round < 2; round++ { // miss, then the reference hit
			status, hdr, body, err := hc.do(http.MethodPost, url+"/v1/plan", forms[0].body)
			if err != nil {
				return nil, fmt.Errorf("working set %d: %w", i, err)
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("working set %d: status %d: %s", i, status, body)
			}
			set[i].want = append(set[i].want[:0], body...)
			set[i].owner = hdr.Get("X-Filterd-Shard-Owner")
		}
	}
	return set, nil
}

// hitEcho starts the hit workloads' reference: a working-set request in, its
// answer out.
func hitEcho(set []hitInstance) (*refEcho, error) {
	return startEcho(set[0].forms[0].body, set[0].want)
}

// hitLoop is one closed-loop client of the hit stream: until the deadline
// it posts a random wire form of a random working-set instance to url and
// requires the recorded hit body back; its reference clock is a round trip
// to echo. after, when non-nil, runs once per
// successful request outside its latency (the traced pass's direct calls).
func hitLoop(cfg runConfig, client int, set []hitInstance, url string, echo *refEcho, deadline time.Time, s *sample, tr *trace,
	after func(tr *trace, op, root int, inst *hitInstance, form rendering)) {
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, "hit-client", client)))
	hc, pc := newHTTPClient(), newHTTPClient()
	defer hc.close()
	defer pc.close()
	s.clock.probe = echo.probe(pc)
	for time.Now().Before(deadline) {
		inst := &set[rng.Intn(len(set))]
		form := inst.forms[rng.Intn(len(inst.forms))]
		op, root := client*opsPerClient+s.attempted, -1
		if tr != nil {
			root = tr.begin("op", -1, op)
		}
		t0 := time.Now()
		status, _, body, err := hc.do(http.MethodPost, url+"/v1/plan", form.body)
		wall := time.Since(t0)
		if tr != nil {
			begin := int64(t0.Sub(tr.epoch))
			tr.add("http.post", root, op, begin, begin+int64(wall))
		}
		switch {
		case err != nil:
			s.fail("hit op %d: %v", op, err)
		case status != http.StatusOK:
			s.fail("hit op %d: status %d", op, status)
		case !bytes.Equal(body, inst.want):
			s.fail("hit op %d: body differs from the set-up hit body", op)
		default:
			s.ok("", t0, wall)
			if after != nil {
				after(tr, op, root, inst, form)
			}
		}
		if tr != nil {
			tr.end(root)
		}
	}
}
