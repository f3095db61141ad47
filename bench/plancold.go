package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/orchestrate"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// coldCell is one cell of the plan-cold instance grid.
type coldCell struct {
	prec  bool
	n     int
	model plan.Model
	obj   solve.Objective
}

// coldCells is the static instance grid of plan-cold: one instance per cell
// per pass, gen.Mixed selectivities, precedence density 0.3 where prec.
//
// The grid is chosen by cost measured at the commit that added the
// benchmark, never at run time. It covers every method solve.Auto resolves
// to — blind ExactForest (free n<=6 period) and ExactDAG (n<=4), branch and
// bound (free n=7 period, n=5 latency, prec n=5) and hill climbing (the
// rest) — under all three communication models. Left out are the cells with
// a heavy tail: there one instance in a hundred or so costs as much as the
// rest of a run, which makes the run's throughput a property of its seed.
// They are free n=5,6 one-port period (blind enumeration over one-port order
// searches, outliers above 3 s), free n=12 one-port period (median 20 ms,
// one instance in 150 takes 7 to 16 s), prec n=6,7 one-port period (medians
// of 25 and 80 ms at n=6, one instance in eighty takes 4 s), prec n=8 beyond
// overlap/period, prec n>=12 and anything at n=20. What stays was sampled
// 600 instances per cell: the worst single instance took 1.7 s (free n=7
// outorder period).
var coldCells = func() []coldCell {
	models := []plan.Model{plan.Overlap, plan.InOrder, plan.OutOrder}
	var cells []coldCell
	add := func(prec bool, n int, m plan.Model, o solve.Objective) {
		cells = append(cells, coldCell{prec, n, m, o})
	}
	for _, n := range []int{4, 5, 6, 7, 8, 12} {
		for _, m := range models {
			if m == plan.Overlap || n == 4 || n == 7 || n == 8 {
				add(false, n, m, solve.PeriodObjective)
			}
			add(false, n, m, solve.LatencyObjective)
		}
	}
	for _, n := range []int{4, 5, 6, 7} {
		for _, m := range models {
			if m == plan.Overlap || n < 6 {
				add(true, n, m, solve.PeriodObjective)
			}
			add(true, n, m, solve.LatencyObjective)
		}
	}
	add(true, 8, plan.Overlap, solve.PeriodObjective)
	return cells
}()

// coldRecord is one planned instance, kept for the checks and the
// per-layer accounting that run after the clock stops.
type coldRecord struct {
	pass   int
	req    service.Request
	resp   service.Response
	wall   time.Duration
	effort *solve.Effort
}

type coldEnv struct {
	cfg    runConfig
	srv    *service.Server
	cells  []coldCell        // coldCells, but for the smoke test
	first  []service.Request // pass 0, generated at set-up
	golden map[string]string // canonical hash -> objective value (seed 1 only)
}

func setupPlanCold(cfg runConfig) (env, error) {
	e := &coldEnv{cfg: cfg, cells: coldCells}
	e.srv, _, _ = newReplica(nil)
	e.first = coldPass(cfg.seed, 0, e.cells)
	golden, err := loadGolden(cfg.seed)
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	e.golden = golden
	return e, nil
}

func (e *coldEnv) close() { e.srv.Close() }

// coldPass generates the instances of one pass over the grid, in a seeded
// shuffled order. Every (seed, cell, pass) draws its own instance, so no
// two requests of a run share a canonical hash: every plan is a miss.
func coldPass(seed int64, pass int, cells []coldCell) []service.Request {
	reqs := make([]service.Request, len(cells))
	for c, cell := range cells {
		rng := gen.NewRand(subSeed(seed, fmt.Sprintf("plan-cold/%+v", cell), pass))
		var app *workflow.App
		if cell.prec {
			app = gen.AppWithPrecedence(rng, cell.n, gen.Mixed, 0.3)
		} else {
			app = gen.App(rng, cell.n, gen.Mixed)
		}
		reqs[c] = service.Request{App: app, Model: cell.model, Objective: cell.obj}
	}
	rand.New(rand.NewSource(subSeed(seed, "plan-cold-order", pass))).Shuffle(len(reqs), func(i, j int) {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	})
	return reqs
}

// coldQueue hands the instances of pass 0, 1, 2, ... to the clients in
// order. It stops at the end of the pass during which the deadline falls:
// whole passes keep the instance mix identical from run to run, so
// throughput never depends on where in a pass the clock ran out.
type coldQueue struct {
	e        *coldEnv
	deadline time.Time

	mu     sync.Mutex
	next   int                 // index into the concatenated passes
	passes [][]service.Request // generated so far
	last   int                 // the final pass, once the deadline has fallen; -1 before
}

// take returns the next instance and its pass, or false when the run ends.
func (q *coldQueue) take() (service.Request, int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	pass, j := q.next/len(q.e.cells), q.next%len(q.e.cells)
	if q.last < 0 && !time.Now().Before(q.deadline) {
		q.last = pass
		if j == 0 && pass > 0 {
			q.last = pass - 1 // the deadline fell exactly between passes
		}
	}
	if q.last >= 0 && pass > q.last {
		return service.Request{}, 0, false
	}
	if pass == len(q.passes) {
		q.passes = append(q.passes, coldPass(q.e.cfg.seed, pass, q.e.cells))
	}
	q.next++
	return q.passes[pass][j], pass, true
}

func (e *coldEnv) measure(d time.Duration, traced bool) *sample {
	q := &coldQueue{e: e, deadline: time.Now().Add(d), passes: [][]service.Request{e.first}, last: -1}
	records := make([][]coldRecord, e.cfg.clients)
	s := runClients(e.cfg.clients, traced, func(client int, s *sample, tr *trace) {
		for {
			req, pass, ok := q.take()
			if !ok {
				return
			}
			op, root := client*opsPerClient+s.attempted, -1
			if traced {
				root = tr.begin("op", -1, op)
			}
			t0 := time.Now()
			resp, err := e.srv.Plan(req)
			wall := time.Since(t0)
			switch {
			case err != nil:
				s.fail("plan-cold op %d: %v", op, err)
			case resp.Outcome != plancache.Miss:
				s.fail("plan-cold op %d: outcome %s, want miss", op, resp.Outcome)
			default:
				s.ok("", t0, wall)
				rec := coldRecord{pass: pass, req: req, resp: resp, wall: wall}
				if ex, ok := e.srv.Explain(resp.Hash); ok {
					rec.effort = ex.Effort
				}
				records[client] = append(records[client], rec)
				if traced {
					traceColdOp(tr, s, root, op, t0, rec)
				}
			}
			if traced {
				tr.end(root)
			}
		}
	})
	serverCounters(s, e.srv)
	all := slices.Concat(records...)
	e.check(s, all)
	s.data = all
	return s
}

// traceColdOp records the spans of one planned instance: the timed Plan
// call with the phases its Effort reports, then the benchmark's own direct
// calls into the layers below on the same input.
func traceColdOp(tr *trace, s *sample, root, op int, t0 time.Time, rec coldRecord) {
	begin := int64(t0.Sub(tr.epoch))
	planSpan := tr.add("service.plan", root, op, begin, begin+int64(rec.wall))
	addEffortSpans(tr, planSpan, op, begin, rec.effort)
	tr.timed("canon", root, op, func() { canon.Canonicalize(rec.req.App) })
	tr.timed("oplist", root, op, func() { json.Marshal(rec.resp.Solution.Sched.List) })
	w := rec.resp.Solution.Graph.Weighted()
	orders := orchestrate.DefaultOrders(w)
	id := tr.begin("eventgraph", root, op)
	_, err := orchestrate.InOrderPeriodWithOrders(w, orders)
	tr.end(id)
	if err != nil {
		// The natural orders deadlock on this graph: no cycle ratio was
		// computed, so the span is not a sample of eventgraph.mcr_us.
		tr.spans[id].Name = "eventgraph.deadlock"
	}
	id = tr.begin("rat", root, op)
	ops := ratKernel(rec.req.App)
	tr.end(id)
	s.extra["rat.ops"] += float64(ops)
}

// ratKernel is a fixed mix of the exact-arithmetic operations the searches
// spend their time in — Mul, Add, Cmp and Append over the instance's own
// costs and selectivities — and returns how many it performed.
func ratKernel(app *workflow.App) int {
	var buf []byte
	acc, ops := rat.Zero, 0
	for i := 0; i < app.N(); i++ {
		for j := 0; j < app.N(); j++ {
			p := app.Cost(i).Mul(app.Selectivity(j))
			if p.Cmp(acc) < 0 {
				acc = acc.Add(p)
			} else {
				acc = p.Add(app.Cost(j))
			}
			buf = acc.Append(buf[:0])
			ops += 4
		}
	}
	return ops
}

// check verifies every planned instance after the clock stopped: the
// schedule passes the paper's validator for its model, the answer is
// bit-identical to a direct solve.MinPeriod/MinLatency on the canonical
// instance, and (first pass of seed 1) the objective equals the committed
// golden value.
func (e *coldEnv) check(s *sample, records []coldRecord) {
	problems := make([]string, len(records))
	par.Run(0, len(records), func(i int) {
		problems[i] = checkColdRecord(records[i], e.golden)
	})
	for _, p := range problems {
		if p != "" {
			s.mismatch("%s", p)
		}
	}
}

func checkColdRecord(rec coldRecord, golden map[string]string) string {
	sol := rec.resp.Solution
	if err := sol.Sched.List.Validate(rec.req.Model); err != nil {
		return fmt.Sprintf("plan-cold %s: schedule invalid: %v", rec.resp.Hash, err)
	}
	direct, err := directSolve(rec.resp.Instance.App(), rec.req)
	if err != nil {
		return fmt.Sprintf("plan-cold %s: direct solve: %v", rec.resp.Hash, err)
	}
	if got, want := fingerprint(sol), fingerprint(direct); got != want {
		return fmt.Sprintf("plan-cold %s: served plan differs from direct solve", rec.resp.Hash)
	}
	if golden != nil && rec.pass == 0 {
		if want := golden[rec.resp.Hash]; want != sol.Value.String() {
			return fmt.Sprintf("plan-cold %s: value %s, golden %q", rec.resp.Hash, sol.Value, want)
		}
	}
	return ""
}

// directSolve is the reference answer of the service's determinism
// contract: the solver called directly on the canonical instance with the
// request's options, one worker.
func directSolve(canonical *workflow.App, req service.Request) (solve.Solution, error) {
	opts := solve.Options{
		Method:    req.Method,
		Family:    req.Family,
		MaxExactN: req.MaxExactN,
		Seed:      req.Seed,
		Restarts:  req.Restarts,
		Workers:   1,
		Orch:      orchestrate.Options{Workers: 1},
	}
	if req.Objective == solve.PeriodObjective {
		return solve.MinPeriod(canonical, req.Model, opts)
	}
	return solve.MinLatency(canonical, req.Model, opts)
}

// fingerprint is everything a plan answer carries: objective, execution
// graph and operation list.
func fingerprint(sol solve.Solution) string {
	sched, err := json.Marshal(sol.Sched.List)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return fmt.Sprintf("%s|%v|%s", sol.Value, sol.Graph.Graph().Edges(), sched)
}

// goldenFiles holds the committed objective values of plan-cold's first
// pass, one file per seed that has them (seed 1).
//
//go:embed golden/*.json
var goldenFiles embed.FS

func goldenName(seed int64) string { return fmt.Sprintf("plan-cold.seed%d.json", seed) }

// loadGolden returns the golden values for seed, nil when none are
// committed.
func loadGolden(seed int64) (map[string]string, error) {
	data, err := goldenFiles.ReadFile("golden/" + goldenName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("golden/%s: %w", goldenName(seed), err)
	}
	return golden, nil
}

// writeGolden plans pass 0 of the seed and writes hash -> objective value
// into dir, to be committed as bench/golden/.
func writeGolden(cfg runConfig, dir string) error {
	srv, _, _ := newReplica(nil)
	defer srv.Close()
	golden := make(map[string]string)
	for _, req := range coldPass(cfg.seed, 0, coldCells) {
		resp, err := srv.Plan(req)
		if err != nil {
			return err
		}
		golden[resp.Hash] = resp.Solution.Value.String()
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenName(cfg.seed)), append(data, '\n'), 0o644)
}

// layers reports the planner layers. Counters are summed over pass 0 only —
// the one pass every run completes — so they repeat exactly from run to
// run; shares and times use every pass.
func (e *coldEnv) layers(untraced, traced *sample, m map[string]float64) {
	records := untraced.data.([]coldRecord)
	var wall, solveNs, orchNs float64
	byMethod := make(map[solve.Method]float64)
	var first solve.Effort
	for _, rec := range records {
		wall += float64(rec.wall)
		ef := rec.effort
		if ef == nil {
			continue
		}
		solveNs += float64(ef.SolveNanos)
		orchNs += float64(ef.OrchNanos)
		byMethod[ef.Method] += float64(ef.SolveNanos)
		if rec.pass == 0 {
			first.Evals += ef.Evals
			first.MemoHits += ef.MemoHits
			first.Search.Expanded += ef.Search.Expanded
			first.Search.Pruned += ef.Search.Pruned
			first.Search.Evaluated += ef.Search.Evaluated
			first.Orch.Prefixes += ef.Orch.Prefixes
			first.Orch.Pruned += ef.Orch.Pruned
			first.Orch.Evaluated += ef.Orch.Evaluated
			first.Orch.BoundEdgesBuilt += ef.Orch.BoundEdgesBuilt
			first.Orch.BoundEdgesFlat += ef.Orch.BoundEdgesFlat
			first.Orch.FilterCertified += ef.Orch.FilterCertified
			first.Orch.FilterFallback += ef.Orch.FilterFallback
		}
	}
	m["solve.busy_share"] = ratio(solveNs, wall)
	m["solve.expanded"] = float64(first.Search.Expanded)
	m["solve.pruned"] = float64(first.Search.Pruned)
	m["solve.evaluated"] = float64(first.Search.Evaluated)
	m["solve.time_share.exactforest"] = ratio(byMethod[solve.ExactForest], solveNs)
	m["solve.time_share.exactdag"] = ratio(byMethod[solve.ExactDAG], solveNs)
	m["solve.time_share.bnb"] = ratio(byMethod[solve.BranchBound], solveNs)
	m["solve.time_share.hillclimb"] = ratio(byMethod[solve.HillClimb], solveNs)
	m["orchestrate.busy_share"] = ratio(orchNs, solveNs)
	m["orchestrate.evals"] = float64(first.Evals)
	m["orchestrate.memo_hit_ratio"] = ratio(float64(first.MemoHits), float64(first.Evals))
	m["orchestrate.prefixes"] = float64(first.Orch.Prefixes)
	m["orchestrate.pruned"] = float64(first.Orch.Pruned)
	m["orchestrate.evaluated"] = float64(first.Orch.Evaluated)
	m["orchestrate.filter_certified_ratio"] = ratio(float64(first.Orch.FilterCertified),
		float64(first.Orch.FilterCertified+first.Orch.FilterFallback))
	m["orchestrate.bound_edges_built_ratio"] = ratio(float64(first.Orch.BoundEdgesBuilt), float64(first.Orch.BoundEdgesFlat))
	copyCounters(untraced, m)

	layers := traced.layerTimes()
	m["eventgraph.mcr_us"] = medianNs(layers, "eventgraph") / 1e3
	m["canon.canonicalize_us"] = medianNs(layers, "canon") / 1e3
	m["oplist.encode_us"] = medianNs(layers, "oplist") / 1e3
	if lt := layers["rat"]; lt != nil {
		m["rat.op_ns"] = ratio(float64(lt.TotalNs), traced.extra["rat.ops"])
	}
	m["service.queue_wait_us_p50"] = medianNs(layers, "service.queue") / 1e3
	referenceSearch(m)
}

// referenceSearch times the one-port order searches on the fixed DAG of the
// root bench_test.go (BenchmarkOrchestrate{Period,Latency}Serial): the pair
// ROADMAP item 1 tracks (0.29 ms / 694 allocs at PR 5).
func referenceSearch(m map[string]float64) {
	rng := gen.NewRand(42)
	app := gen.App(rng, 6+rng.Intn(3), gen.Mixed)
	w := gen.DAGPlan(rng, app, 0.5).Weighted()
	timeSearch := func(fn func() error) (ms, allocs float64) {
		const iters = 5
		var durs []float64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, 0
			}
			durs = append(durs, float64(time.Since(t0))/1e6)
		}
		runtime.ReadMemStats(&after)
		return median(durs), float64(after.Mallocs-before.Mallocs) / iters
	}
	m["orchestrate.period_search_ms"], m["orchestrate.period_search_allocs"] = timeSearch(func() error {
		_, err := orchestrate.InOrderPeriod(w, orchestrate.Options{Workers: 1})
		return err
	})
	m["orchestrate.latency_search_ms"], m["orchestrate.latency_search_allocs"] = timeSearch(func() error {
		_, err := orchestrate.OnePortLatency(w, orchestrate.Options{Workers: 1})
		return err
	})
}
