package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/canon"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/store"
	"repro/internal/workflow"
)

// serve-churn traffic mix and sizes.
const (
	churnMissShare  = 0.70 // fresh instance: solve + persist + cache insert
	churnPatchShare = 0.20 // drift PATCH against a recently planned hash
	// the rest: a hit on a recently planned hash
	churnN = 8
	// churnRing bounds how far back a client reaches for a PATCH or hit
	// target. Two clients insert about 0.9 cache entries per operation, so
	// the newest 48 plans of each are always still among the 256 cached
	// ones: a hit is a hit and a PATCH finds its old plan, while the cache
	// (256) and the drift registry (1024) still overflow within seconds.
	churnRing = 48
	// churnWarm plans this many instances per client at set-up, so PATCH
	// and hit targets exist from the first measured operation.
	churnWarm = 16
	// churnCheckEvery: one PATCH answer in this many is compared with a
	// cold solve of the drifted instance.
	churnCheckEvery = 50
)

// churnEntry is one planned instance a client may later PATCH or re-request.
type churnEntry struct {
	hash string
	app  *workflow.App
	body []byte // the request body that planned it
	want []byte // what a later hit must answer: the miss response but for its two outcome fields
}

// churnClient is the state of one closed-loop client across phases.
type churnClient struct {
	rng  *rand.Rand
	next int // index of the next fresh instance
	ring []churnEntry
}

type churnEnv struct {
	cfg     runConfig
	dir     string
	srv     *service.Server
	ln      *listener
	clients []*churnClient
	direct  *store.Store // traced pass only: the benchmark's own store
}

func setupServeChurn(cfg runConfig) (env, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "serve-churn-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &churnEnv{cfg: cfg, dir: dir, clients: make([]*churnClient, cfg.clients)}
	e.srv, _, _ = newReplica(st)
	if e.ln, err = listen(service.Handler(e.srv)); err != nil {
		e.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	warm := runClients(cfg.clients, false, func(client int, s *sample, _ *trace) {
		c := &churnClient{rng: rand.New(rand.NewSource(subSeed(cfg.seed, "churn-client", client)))}
		hc := newHTTPClient()
		defer hc.close()
		for i := 0; i < churnWarm; i++ {
			e.miss(client, c, hc, s, nil, -1, -1)
		}
		e.clients[client] = c
	})
	if warm.failed > 0 {
		e.close()
		return nil, fmt.Errorf("serve-churn set-up: %v", warm.notes)
	}
	return e, nil
}

func (e *churnEnv) close() {
	e.ln.close()
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// planAnswer is the slice of a plan response the client reads.
type planAnswer struct {
	Hash     string          `json:"hash"`
	Outcome  string          `json:"outcome"`
	Value    rat.Rat         `json:"value"`
	Schedule json.RawMessage `json:"schedule"`
}

// driftAnswer is the slice of a PATCH response the client reads.
type driftAnswer struct {
	OldHash string     `json:"old_hash"`
	NewHash string     `json:"new_hash"`
	Plan    planAnswer `json:"plan"`
}

// patchCheck is a PATCH answer queued for comparison with a cold solve.
type patchCheck struct {
	drifted *workflow.App
	answer  driftAnswer
}

// miss plans a fresh instance and remembers it in the client's ring.
func (e *churnEnv) miss(client int, c *churnClient, hc *httpClient, s *sample, tr *trace, root, op int) {
	app := filteringApp(subSeed(e.cfg.seed, fmt.Sprintf("churn-%d", client), c.next), churnN)
	c.next++
	req := servingRequest(app)
	body := planBody(nil, app, identityOrder(app.N()), req.Model, req.Objective, false)
	t0 := time.Now()
	status, _, resp, err := hc.do(http.MethodPost, e.ln.url+"/v1/plan", body)
	wall := time.Since(t0)
	var ans planAnswer
	switch {
	case err != nil:
		s.fail("churn miss: %v", err)
		return
	case status != http.StatusOK:
		s.fail("churn miss: status %d: %s", status, resp)
		return
	case json.Unmarshal(resp, &ans) != nil || ans.Outcome != "miss":
		s.fail("churn miss: outcome %q, want miss", ans.Outcome)
		return
	}
	s.ok("miss", t0, wall)
	c.ring = append(c.ring, churnEntry{hash: ans.Hash, app: app, body: body, want: hitBody(resp)})
	if len(c.ring) > churnRing {
		c.ring = c.ring[1:]
	}
	if tr != nil {
		begin := int64(t0.Sub(tr.epoch))
		post := tr.add("http.post", root, op, begin, begin+int64(wall))
		var effort *solve.Effort
		if ex, ok := e.srv.Explain(ans.Hash); ok {
			effort = ex.Effort
			addEffortSpans(tr, post, op, begin, effort)
		}
		e.directPut(tr, root, op, req, effort)
	}
}

// addEffortSpans records the phases a solve reported about itself as
// children of the span of the call that ran it.
func addEffortSpans(tr *trace, parent, op int, begin int64, ef *solve.Effort) {
	if ef == nil {
		return
	}
	tr.add("service.queue", parent, op, begin, begin+ef.QueueNanos)
	solveStart := begin + ef.QueueNanos
	solveSpan := tr.add("solve", parent, op, solveStart, solveStart+ef.SolveNanos)
	tr.add("orchestrate", solveSpan, op, solveStart, solveStart+ef.OrchNanos)
}

// directPut writes the entry the server just persisted into a second store
// the benchmark owns: the same bytes through the same fsync path, timed
// alone.
func (e *churnEnv) directPut(tr *trace, root, op int, req service.Request, effort *solve.Effort) {
	resp, err := e.srv.Plan(req) // a hit: the solved entry
	if err != nil {
		return
	}
	entry := store.Entry{Key: resp.Key, Instance: resp.Instance, Solution: resp.Solution, Effort: effort}
	tr.timed("store", root, op, func() { e.direct.Put(entry) })
}

// hitBody is the response a hit must produce given the miss response of
// the same key: identical but for the two fields that report the outcome.
// It returns a copy (miss aliases the client's response buffer).
func hitBody(miss []byte) []byte {
	out := bytes.Replace(miss, []byte(`"cached": false`), []byte(`"cached": true`), 1)
	return bytes.Replace(out, []byte(`"outcome": "miss"`), []byte(`"outcome": "hit"`), 1)
}

func (e *churnEnv) hit(c *churnClient, hc *httpClient, s *sample, tr *trace, root, op int) {
	entry := c.ring[c.rng.Intn(len(c.ring))]
	t0 := time.Now()
	status, _, resp, err := hc.do(http.MethodPost, e.ln.url+"/v1/plan", entry.body)
	wall := time.Since(t0)
	switch {
	case err != nil:
		s.fail("churn hit: %v", err)
	case status != http.StatusOK:
		s.fail("churn hit: status %d", status)
	case !bytes.Equal(resp, entry.want):
		s.fail("churn hit %s: body differs from the miss body", entry.hash)
	default:
		s.ok("hit", t0, wall)
		if tr != nil {
			begin := int64(t0.Sub(tr.epoch))
			tr.add("http.post", root, op, begin, begin+int64(wall))
		}
	}
}

// patch drifts one service's cost of a recently planned instance.
func (e *churnEnv) patch(c *churnClient, hc *httpClient, s *sample, tr *trace, root, op int, checks *[]patchCheck) {
	entry := c.ring[c.rng.Intn(len(c.ring))]
	j := c.rng.Intn(entry.app.N())
	cost := entry.app.Cost(j).Add(rat.New(int64(1+c.rng.Intn(8)), 4))
	body := fmt.Appendf(nil, `{"updates":[{"service":%q,"cost":%q}],"model":"overlap","objective":"period"}`,
		entry.app.Name(j), cost.String())
	t0 := time.Now()
	status, _, resp, err := hc.do(http.MethodPatch, e.ln.url+"/v1/instance/"+entry.hash, body)
	wall := time.Since(t0)
	var ans driftAnswer
	switch {
	case err != nil:
		s.fail("churn patch: %v", err)
		return
	case status != http.StatusOK:
		s.fail("churn patch %s: status %d: %s", entry.hash, status, resp)
		return
	case json.Unmarshal(resp, &ans) != nil || ans.OldHash != entry.hash:
		s.fail("churn patch %s: answer names old hash %q", entry.hash, ans.OldHash)
		return
	}
	s.ok("patch", t0, wall)
	if s.count["patch"]%churnCheckEvery == 1 {
		services := entry.app.Services()
		services[j].Cost = cost
		*checks = append(*checks, patchCheck{drifted: workflow.MustNew(services, nil), answer: ans})
	}
	if tr != nil {
		begin := int64(t0.Sub(tr.epoch))
		tr.add("http.patch", root, op, begin, begin+int64(wall))
		// The same drift in process, on another service so it is not
		// answered from the cache the PATCH just filled.
		k := (j + 1) % entry.app.N()
		other := entry.app.Cost(k).Add(rat.New(int64(1+c.rng.Intn(8)), 4))
		tr.timed("service.drift", root, op, func() {
			e.srv.Drift(entry.hash, []service.Update{{Service: entry.app.Name(k), Cost: &other}}, servingRequest(nil))
		})
	}
}

func (e *churnEnv) measure(d time.Duration, traced bool) *sample {
	if traced {
		var err error
		if e.direct, err = store.Open(filepath.Join(e.dir, "direct")); err != nil {
			return failedSample("serve-churn: %v", err)
		}
	}
	deadline := time.Now().Add(d)
	checks := make([][]patchCheck, e.cfg.clients)
	s := runClients(e.cfg.clients, traced, func(client int, s *sample, tr *trace) {
		c := e.clients[client]
		hc := newHTTPClient()
		defer hc.close()
		for time.Now().Before(deadline) {
			op, root := client*opsPerClient+s.attempted, -1
			if tr != nil {
				root = tr.begin("op", -1, op)
			}
			switch r := c.rng.Float64(); {
			case r < churnMissShare:
				e.miss(client, c, hc, s, tr, root, op)
			case r < churnMissShare+churnPatchShare:
				e.patch(c, hc, s, tr, root, op, &checks[client])
			default:
				e.hit(c, hc, s, tr, root, op)
			}
			if tr != nil {
				tr.end(root)
			}
		}
	})
	serverCounters(s, e.srv)
	for _, cs := range checks {
		for _, c := range cs {
			if problem := checkPatch(c); problem != "" {
				s.mismatch("%s", problem)
			}
		}
	}
	return s
}

// checkPatch compares a PATCH answer with a cold solve of the drifted
// instance: same hash, same objective, same operation list.
func checkPatch(c patchCheck) string {
	inst, err := canon.Canonicalize(c.drifted)
	if err != nil {
		return fmt.Sprintf("churn patch check: %v", err)
	}
	if inst.Hash() != c.answer.NewHash {
		return fmt.Sprintf("churn patch: new hash %s, drifted instance hashes to %s", c.answer.NewHash, inst.Hash())
	}
	sol, err := directSolve(inst.App(), servingRequest(nil))
	if err != nil {
		return fmt.Sprintf("churn patch check: %v", err)
	}
	want, err := json.Marshal(sol.Sched.List)
	if err != nil {
		return fmt.Sprintf("churn patch check: %v", err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, c.answer.Plan.Schedule); err != nil {
		return fmt.Sprintf("churn patch check: %v", err)
	}
	if !c.answer.Plan.Value.Equal(sol.Value) || !bytes.Equal(got.Bytes(), want) {
		return fmt.Sprintf("churn patch %s: answer differs from a cold solve of the drifted instance", c.answer.NewHash)
	}
	return ""
}

func (e *churnEnv) layers(untraced, traced *sample, m map[string]float64) {
	m["lat_miss_p50_ms"] = percentile(untraced.sorted("miss"), 50)
	m["lat_patch_p50_ms"] = percentile(untraced.sorted("patch"), 50)
	copyCounters(untraced, m)
	layers := traced.layerTimes()
	m["store.put_ms"] = medianNs(layers, "store") / 1e6
	m["service.drift_ms"] = medianNs(layers, "service.drift") / 1e6
	m["service.queue_wait_us_p50"] = medianNs(layers, "service.queue") / 1e3

	// Warm-load what the traced pass's server persisted, the way a
	// restarted replica would.
	dir := filepath.Join(e.dir, "store")
	st, err := store.Open(dir)
	if err != nil {
		return
	}
	var entries int
	t0 := time.Now()
	if err := st.Load(func(store.Entry) { entries++ }); err != nil || entries == 0 {
		return
	}
	m["store.load_ms_per_1k"] = float64(time.Since(t0)) / 1e6 / float64(entries) * 1000
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	var size float64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			size += float64(fi.Size())
		}
	}
	m["store.entry_bytes"] = size / float64(len(files))
}
