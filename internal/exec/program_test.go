package exec

// The compiled, word-at-a-time data plane against two per-tuple oracles:
// sim.ReferenceStream (counts) and a test-only replica of the executor's
// former loop — one tuple at a time through the graph, one estimator
// sample per evaluation, the drift controller on the per-sample
// estimators — for the estimator values and the drift-episode sequence.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// scriptPlanner is a Planner without a solver: the k-th plan it hands out
// is a seeded random execution graph of the given family over the
// instance, so a drift PATCH hot-swaps to a differently wired graph. It
// records what it handed out.
type scriptPlanner struct {
	seed     int64
	family   string // "chain", "forest" or "dag"
	plans    []Plan
	driftErr error // returned by Drift when set
}

func (s *scriptPlanner) next(app *workflow.App) (Plan, error) {
	rng := rand.New(rand.NewSource(s.seed + int64(len(s.plans))))
	n := app.N()
	order := rng.Perm(n)
	var edges [][2]int
	for i := 1; i < n; i++ {
		switch s.family {
		case "chain":
			edges = append(edges, [2]int{order[i-1], order[i]})
		case "forest":
			if rng.Intn(4) > 0 {
				edges = append(edges, [2]int{order[rng.Intn(i)], order[i]})
			}
		default:
			for j := 0; j < i; j++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]int{order[j], order[i]})
				}
			}
		}
	}
	eg, err := plan.Build(app, edges)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{
		Hash:     fmt.Sprintf("plan-%d", len(s.plans)),
		App:      app,
		Graph:    eg,
		Value:    rat.I(int64(len(s.plans))),
		Schedule: json.RawMessage(`null`),
	}
	s.plans = append(s.plans, p)
	return p, nil
}

func (s *scriptPlanner) Plan(_ context.Context, app *workflow.App, _ string) (Plan, error) {
	return s.next(app)
}

func (s *scriptPlanner) Drift(_ context.Context, _ string, app *workflow.App, updates []Update, _ string) (Plan, error) {
	if s.driftErr != nil {
		return Plan{}, s.driftErr
	}
	drifted, err := service.ApplyUpdates(app, updates)
	if err != nil {
		return Plan{}, err
	}
	return s.next(drifted)
}

func (s *scriptPlanner) Subscribe(ctx context.Context, _ string) (<-chan Replan, error) {
	return nil, nil // a nil channel never delivers: no external re-plans
}

// diffApp is a random n-service instance with the special cases the
// kernel branches on: an expanding service (σ ≥ 1: threshold max, always
// passes) and, on odd seeds, a service that drops everything (σ = 0).
func diffApp(t *testing.T, rng *rand.Rand, n int, zero bool) *workflow.App {
	t.Helper()
	services := make([]workflow.Service, n)
	for i := range services {
		services[i] = workflow.Service{
			Name:        fmt.Sprintf("s%d", i),
			Cost:        rat.New(int64(1+rng.Intn(9)), int64(1+rng.Intn(4))),
			Selectivity: rat.New(int64(5+rng.Intn(5)), 10),
		}
	}
	services[1].Selectivity = rat.New(3, 2)
	if zero {
		services[n-1].Selectivity = rat.Zero
	}
	app, err := workflow.New(services, nil)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// sampleEstimator is the per-sample estimator the fold replaced, kept
// here as the oracle: one observe per evaluated tuple, the EWMA advanced
// sample by sample.
type sampleEstimator struct {
	in, out uint64
	costSum rat.Rat
	ewma    float64
	primed  bool
}

func (e *sampleEstimator) observe(passed bool, cost rat.Rat) {
	e.in++
	if passed {
		e.out++
	}
	e.costSum = e.costSum.Add(cost)
	f, _ := cost.Big().Float64() // the former loop's conversion, kept so the bits are compared against it
	if !e.primed {
		e.ewma, e.primed = f, true
	} else {
		e.ewma += (1.0 / 16) * (f - e.ewma)
	}
}

// perSampleRun replays cfg one tuple at a time: the oracle for emitted
// counts under a Predicate, estimator values and drift episodes.
func perSampleRun(t *testing.T, cfg Config, nTuples uint64) (emitted uint64, ests map[string]*sampleEstimator, episodes []DriftEpisode) {
	t.Helper()
	ctx := context.Background()
	app := cfg.App
	threshold := make(map[string]uint64)
	cost := make(map[string]rat.Rat)
	ests = make(map[string]*sampleEstimator)
	var names []string
	for v := 0; v < app.N(); v++ {
		name := app.Name(v)
		names = append(names, name)
		sel, c := app.Selectivity(v), app.Cost(v)
		if tr, ok := cfg.Truth[name]; ok {
			if tr.Selectivity != nil {
				sel = *tr.Selectivity
			}
			if tr.Cost != nil {
				c = *tr.Cost
			}
		}
		threshold[name], cost[name], ests[name] = sim.Threshold(sel), c, &sampleEstimator{}
	}
	sort.Strings(names)
	p, err := cfg.Planner.Plan(ctx, app, "")
	if err != nil {
		t.Fatal(err)
	}
	rounds := uint64(0)
	for done := uint64(0); done < nTuples; {
		n := min(uint64(cfg.Window), nTuples-done)
		g := p.Graph.Graph()
		pass := make([]bool, p.App.N())
		for tuple := done; tuple < done+n; tuple++ {
			out := true
			for _, v := range p.Graph.Topo() {
				alive := true
				for _, u := range g.Pred(v) {
					alive = alive && pass[u]
				}
				if alive {
					name := p.App.Name(v)
					if cfg.Predicate != nil {
						alive = cfg.Predicate(name, tuple)
					} else {
						alive = sim.Verdict(cfg.Seed, name, tuple, threshold[name])
					}
					ests[name].observe(alive, cost[name])
				}
				pass[v] = alive
				if g.OutDegree(v) == 0 && !alive {
					out = false
				}
			}
			if out {
				emitted++
			}
		}
		done += n
		rounds++

		var updates []Update
		for _, name := range names {
			est := ests[name]
			if est.in < cfg.MinSamples {
				continue
			}
			v := p.App.IndexOf(name)
			var up Update
			if decl := p.App.Selectivity(v); decl.Less(rat.One) {
				if emp := rat.New(int64(est.out), int64(est.in)); drifted(emp, decl, cfg.Threshold) && significant(emp, decl, est.in) {
					up.Selectivity = &emp
				}
			}
			if mean := est.costSum.Div(rat.I(int64(est.in))); drifted(mean, p.App.Cost(v), cfg.Threshold) {
				up.Cost = &mean
			}
			if up.Selectivity != nil || up.Cost != nil {
				up.Service = name
				updates = append(updates, up)
			}
		}
		if len(updates) > 0 {
			np, err := cfg.Planner.Drift(ctx, p.Hash, p.App, updates, "")
			if err != nil {
				t.Fatal(err)
			}
			episodes = append(episodes, DriftEpisode{
				Round: rounds, Tuple: done, Source: "controller",
				OldHash: p.Hash, NewHash: np.Hash, Updates: updates,
				OldValue: p.Value, NewValue: np.Value,
			})
			p = np
		}
	}
	return emitted, ests, episodes
}

func describeEpisodes(eps []DriftEpisode) string {
	return describeReport(&Report{Episodes: eps})
}

// TestProgramMatchesPerTupleOracles is the differential suite: every
// combination of graph family, execution mode, round size (around the
// word size, and not dividing the tuple count), verdict source and the
// kernel's special-cased selectivities, each with injected drift so the
// run hot-swaps to another graph mid-stream.
func TestProgramMatchesPerTupleOracles(t *testing.T) {
	windows := []int{1, 63, 64, 65, 256, 1000}
	tuples := []uint64{333, 2511} // multiples of neither 64 nor any window but 1
	if testing.Short() {
		windows, tuples = []int{1, 65, 256}, []uint64{333}
	}
	// A pure function of (name, tuple), as the Predicate contract asks:
	// each service drops its own fifth of the stream.
	predicate := func(name string, tuple uint64) bool {
		return (tuple*2654435761+uint64(name[len(name)-1]))%5 != 0
	}
	seed := int64(0)
	for _, family := range []string{"chain", "forest", "dag"} {
		for _, window := range windows {
			for _, nTuples := range tuples {
				for _, pred := range []Predicate{nil, predicate} {
					seed++
					rng := rand.New(rand.NewSource(seed))
					app := diffApp(t, rng, 4+rng.Intn(6), seed%2 == 1)
					// Every true cost is 4× the declared one, so each service
					// PATCHes as soon as it has its samples — the deeper in
					// the graph, the later — and one true selectivity departs.
					truth := make(map[string]Truth)
					for v := 0; v < app.N(); v++ {
						cost := app.Cost(v).MulInt(4)
						truth[app.Name(v)] = Truth{Cost: &cost}
					}
					selDrift := rat.New(1, 5)
					truth["s2"] = Truth{Cost: truth["s2"].Cost, Selectivity: &selDrift}
					cfg := Config{
						App: app, Seed: uint64(seed), Window: window, MinSamples: 48,
						Threshold: DefaultThreshold(), Predicate: pred, Truth: truth,
					}
					name := fmt.Sprintf("%s/window=%d/tuples=%d/predicate=%t", family, window, nTuples, pred != nil)

					oracle := &scriptPlanner{seed: seed, family: family}
					cfg.Planner = oracle
					wantEmitted, wantEsts, wantEpisodes := perSampleRun(t, cfg, nTuples)
					if len(wantEpisodes) == 0 {
						t.Fatalf("%s: the injected drift caused no hot swap", name)
					}

					for _, workers := range []int{1, 2, 4} {
						planner := &scriptPlanner{seed: seed, family: family}
						cfg.Planner, cfg.Workers = planner, workers
						ex, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						report, err := ex.Run(context.Background(), nTuples)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", name, workers, err)
						}
						checkAgainstPerSample(t, fmt.Sprintf("%s workers=%d", name, workers), report, wantEmitted, wantEsts, wantEpisodes)
						if pred == nil {
							checkAgainstReferenceStream(t, fmt.Sprintf("%s workers=%d", name, workers), cfg, planner, report)
						}
					}
				}
			}
		}
	}
}

func checkAgainstPerSample(t *testing.T, name string, report *Report, emitted uint64, ests map[string]*sampleEstimator, episodes []DriftEpisode) {
	t.Helper()
	if report.Emitted != emitted {
		t.Errorf("%s: emitted %d, per-tuple loop %d", name, report.Emitted, emitted)
	}
	if len(report.Services) != len(ests) {
		t.Fatalf("%s: %d service stats, want %d", name, len(report.Services), len(ests))
	}
	for _, s := range report.Services {
		want := ests[s.Name]
		if s.In != want.in || s.Out != want.out {
			t.Errorf("%s %s: in/out %d/%d, per-tuple loop %d/%d", name, s.Name, s.In, s.Out, want.in, want.out)
		}
		mean := rat.Zero
		if want.in > 0 {
			mean = want.costSum.Div(rat.I(int64(want.in)))
		}
		if !s.MeanCost.Equal(mean) {
			t.Errorf("%s %s: mean cost %s, per-sample %s", name, s.Name, s.MeanCost, mean)
		}
		if math.Float64bits(s.EWMACost) != math.Float64bits(want.ewma) {
			t.Errorf("%s %s: EWMA cost %x, per-sample %x", name, s.Name, s.EWMACost, want.ewma)
		}
	}
	if got, want := describeEpisodes(report.Episodes), describeEpisodes(episodes); got != want {
		t.Errorf("%s: drift episodes diverge from the per-sample controller:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// checkAgainstReferenceStream sums sim.ReferenceStream over the run's
// plan segments (the swap boundaries are the episodes' tuples, the graphs
// the ones the planner handed out in order).
func checkAgainstReferenceStream(t *testing.T, name string, cfg Config, planner *scriptPlanner, report *Report) {
	t.Helper()
	truth := make(map[string]rat.Rat)
	for v := 0; v < cfg.App.N(); v++ {
		truth[cfg.App.Name(v)] = cfg.App.Selectivity(v)
	}
	for svc, tr := range cfg.Truth {
		if tr.Selectivity != nil {
			truth[svc] = *tr.Selectivity
		}
	}
	if len(planner.plans) != len(report.Episodes)+1 {
		t.Fatalf("%s: %d plans handed out for %d episodes", name, len(planner.plans), len(report.Episodes))
	}
	in, out := make(map[string]uint64), make(map[string]uint64)
	var emitted uint64
	first := uint64(0)
	for i, p := range planner.plans {
		end := report.Tuples
		if i < len(report.Episodes) {
			end = report.Episodes[i].Tuple
		}
		c := sim.ReferenceStream(p.App, p.Graph, cfg.Seed, first, end-first, truth)
		for svc := range truth {
			in[svc] += c.In[svc]
			out[svc] += c.Out[svc]
		}
		emitted += c.Emitted
		first = end
	}
	if report.Emitted != emitted {
		t.Errorf("%s: emitted %d, reference stream %d", name, report.Emitted, emitted)
	}
	for _, s := range report.Services {
		if s.In != in[s.Name] || s.Out != out[s.Name] {
			t.Errorf("%s %s: in/out %d/%d, reference stream %d/%d", name, s.Name, s.In, s.Out, in[s.Name], out[s.Name])
		}
	}
}

// TestFoldEqualsPerSampleLoop is the estimator half on its own: folding a
// round's count in one step leaves exactly the state the per-sample loop
// reaches — the cost sum exactly, the EWMA bit for bit — for costs whose
// float64 is inexact and whatever the split into rounds.
func TestFoldEqualsPerSampleLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, cost := range []rat.Rat{rat.One, rat.New(1, 3), rat.New(22, 7), rat.New(1, 1<<40), rat.I(1 << 50), rat.New(123456789, 1000003)} {
		folded := newEstimator(cost)
		var sampled sampleEstimator
		for round := 0; round < 50; round++ {
			in := uint64(rng.Intn(300))
			out := uint64(rng.Intn(int(in) + 1))
			folded.fold(in, out)
			for i := uint64(0); i < in; i++ {
				sampled.observe(i < out, cost)
			}
			if folded.in != sampled.in || folded.out != sampled.out || !folded.costSum.Equal(sampled.costSum) ||
				math.Float64bits(folded.ewma) != math.Float64bits(sampled.ewma) {
				t.Fatalf("cost %s round %d: folded {%d %d %s %x}, per-sample {%d %d %s %x}", cost, round,
					folded.in, folded.out, folded.costSum, folded.ewma, sampled.in, sampled.out, sampled.costSum, sampled.ewma)
			}
		}
	}
}

// warmProgram compiles a generated n-service filtering instance (the
// benchmark's kind) on a seeded random DAG and runs it once.
func warmProgram(tb testing.TB, n, workers int, pred Predicate) (*Executor, *program) {
	tb.Helper()
	app := gen.App(gen.NewRand(int64(n)), n, gen.Filtering)
	ex, err := New(Config{App: app, Planner: &scriptPlanner{}, Seed: 1, Workers: workers, Threshold: neverDrift(), Predicate: pred})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := (&scriptPlanner{seed: int64(n), family: "dag"}).next(app)
	if err != nil {
		tb.Fatal(err)
	}
	ex.adopt(p)
	tb.Cleanup(ex.prog.stop)
	ex.prog.run(round{first: 0, n: DefaultWindow})
	return ex, ex.prog
}

// TestRunRoundAllocBudget: a quiet round on a warm serial program —
// kernel, popcounts, estimator folds, then the controller finding nothing
// drifted — allocates nothing.
func TestRunRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	ctx := context.Background()
	for _, n := range []int{8, 16} {
		ex, prog := warmProgram(t, n, 1, nil)
		report := &Report{}
		first := uint64(DefaultWindow)
		if got := testing.AllocsPerRun(100, func() {
			prog.run(round{first: first, n: DefaultWindow})
			first += DefaultWindow
			if swapped, err := ex.controller(ctx, report, first); swapped || err != nil {
				t.Fatalf("n=%d: controller swapped=%t err=%v on a stream that follows its declaration", n, swapped, err)
			}
		}); got != 0 {
			t.Errorf("n=%d: %.1f allocations per quiet serial round, want 0", n, got)
		}
	}
}

// stageGoroutines counts goroutines currently inside the stage network.
func stageGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*program).serve")
}

// TestRunLeavesNoStageGoroutine: the stage network belongs to the run —
// however Run ends (completed with hot swaps on the way, cancelled from
// inside a round, failed by a PATCH error), every stage goroutine of every
// program it compiled has exited.
func TestRunLeavesNoStageGoroutine(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	app := diffApp(t, rng, 7, false)
	costDrift := app.Cost(0).MulInt(4)
	truth := map[string]Truth{"s0": {Cost: &costDrift}}
	patchErr := errors.New("patch refused")

	cases := []struct {
		name     string
		planner  *scriptPlanner
		cancelAt uint64 // when non-zero, the tuple whose verdict cancels the run
		wantErr  error
	}{
		{name: "completed", planner: &scriptPlanner{family: "dag"}},
		{name: "cancelled mid-round", planner: &scriptPlanner{family: "dag"}, cancelAt: 700, wantErr: context.Canceled},
		{name: "failed PATCH", planner: &scriptPlanner{family: "dag", driftErr: patchErr}, wantErr: patchErr},
	}
	for _, tc := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var pred Predicate
		if tc.cancelAt > 0 {
			pred = func(_ string, tuple uint64) bool {
				if tuple == tc.cancelAt {
					cancel()
				}
				return true
			}
		}
		ex, err := New(Config{App: app, Planner: tc.planner, Seed: 9, Workers: 4, Truth: truth, Predicate: pred})
		if err != nil {
			t.Fatal(err)
		}
		report, err := ex.Run(ctx, 4096)
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: Run error %v, want %v", tc.name, err, tc.wantErr)
		}
		if tc.wantErr == nil && report.Swaps == 0 {
			t.Fatalf("%s: no hot swap, so only one network was ever built", tc.name)
		}
		// served.Wait returns when the goroutines' deferred Done has run;
		// give them the instant they need to finish returning.
		deadline := time.Now().Add(2 * time.Second)
		for stageGoroutines() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := stageGoroutines(); n > 0 {
			t.Errorf("%s: %d stage goroutines outlived Run", tc.name, n)
		}
	}
}

// spinPredicate passes every tuple after a 1 µs CPU spin: a stand-in for
// a user predicate with real per-tuple work, the case the pipelined driver
// is kept for (one stage per goroutine overlaps the spins).
func spinPredicate(string, uint64) bool {
	for start := time.Now(); time.Since(start) < time.Microsecond; {
	}
	return true
}

// BenchmarkExecRound measures the data plane alone: rounds of
// DefaultWindow tuples through a warm program, serial and pipelined, on
// the synthetic verdicts and on a 1 µs Predicate.
func BenchmarkExecRound(b *testing.B) {
	for _, verdicts := range []struct {
		name string
		pred Predicate
	}{{"synthetic", nil}, {"predicate", spinPredicate}} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"pipelined", 2}} {
			for _, n := range []int{8, 16} {
				b.Run(fmt.Sprintf("%s/%s/n=%d", verdicts.name, mode.name, n), func(b *testing.B) {
					benchRounds(b, n, mode.workers, verdicts.pred)
				})
			}
		}
	}
}

func benchRounds(b *testing.B, n, workers int, pred Predicate) {
	ex, prog := warmProgram(b, n, workers, pred)
	var evalsBefore uint64
	for _, est := range ex.estimators {
		evalsBefore += est.in
	}
	first := uint64(DefaultWindow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.run(round{first: first, n: DefaultWindow})
		first += DefaultWindow
	}
	b.StopTimer()
	var evals uint64
	for _, est := range ex.estimators {
		evals += est.in
	}
	tuples := float64(b.N) * DefaultWindow
	b.ReportMetric(float64(evals-evalsBefore)/tuples, "evals/tuple")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/tuples, "ns/tuple")
}
