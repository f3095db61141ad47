package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// testApp is a 5-service mixed instance: mostly filtering, one expanding
// service, distinct costs so plans have a clear bottleneck.
func testApp(t *testing.T) *workflow.App {
	t.Helper()
	app, err := workflow.New([]workflow.Service{
		{Name: "a", Cost: rat.I(2), Selectivity: rat.New(1, 2)},
		{Name: "b", Cost: rat.One, Selectivity: rat.New(3, 4)},
		{Name: "c", Cost: rat.I(3), Selectivity: rat.New(1, 3)},
		{Name: "d", Cost: rat.New(1, 2), Selectivity: rat.New(4, 5)},
		{Name: "e", Cost: rat.One, Selectivity: rat.New(3, 2)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// localPlanner embeds a fresh planning service; the cleanup closes it.
func localPlanner(t *testing.T) *Local {
	t.Helper()
	srv := service.New(service.Config{})
	t.Cleanup(srv.Close)
	return &Local{Server: srv, Params: service.Request{
		Model: plan.Overlap, Objective: solve.PeriodObjective,
	}}
}

// neverDrift is a Threshold large enough that no estimate can depart the
// declared values far enough to trigger a PATCH.
func neverDrift() rat.Rat { return rat.I(1 << 20) }

// TestExecutorMatchesReferenceStream is the correctness oracle: with no
// injected drift and drift control silenced, both execution paths (serial
// and pipelined) must reproduce sim.ReferenceStream's counters exactly —
// same verdict function, same graph, independent evaluation order.
func TestExecutorMatchesReferenceStream(t *testing.T) {
	app := testApp(t)
	planner := localPlanner(t)
	const n, seed = 2048, uint64(3)

	p, err := planner.Plan(context.Background(), app, "")
	if err != nil {
		t.Fatal(err)
	}
	want := sim.ReferenceStream(p.App, p.Graph, seed, 0, n, nil)

	for _, workers := range []int{1, 4} {
		ex, err := New(Config{
			App: app, Planner: planner, Seed: seed,
			Workers: workers, Threshold: neverDrift(),
		})
		if err != nil {
			t.Fatal(err)
		}
		report, err := ex.Run(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		if report.Tuples != n || report.Emitted != want.Emitted {
			t.Fatalf("workers=%d: tuples %d emitted %d, want %d and %d",
				workers, report.Tuples, report.Emitted, n, want.Emitted)
		}
		if report.Swaps != 0 || len(report.Episodes) != 0 {
			t.Fatalf("workers=%d: unexpected re-plans: %+v", workers, report.Episodes)
		}
		for _, s := range report.Services {
			if s.In != want.In[s.Name] || s.Out != want.Out[s.Name] {
				t.Fatalf("workers=%d service %s: in/out %d/%d, reference %d/%d",
					workers, s.Name, s.In, s.Out, want.In[s.Name], want.Out[s.Name])
			}
		}
	}
}

// describeReport flattens everything inside the determinism contract —
// counters, final plan, estimator snapshot, and the full drift episode
// sequence — into a comparable string. Wall-clock fields are excluded.
func describeReport(r *Report) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "tuples=%d emitted=%d rounds=%d patches=%d replans=%d swaps=%d\n",
		r.Tuples, r.Emitted, r.Rounds, r.Patches, r.ReplanEvents, r.Swaps)
	fmt.Fprintf(&b, "hash=%s value=%s period=%s\nschedule=%s\n", r.Hash, r.Value, r.Period, r.Schedule)
	for _, s := range r.Services {
		fmt.Fprintf(&b, "svc %s in=%d out=%d emp=%s decl=%s mean=%s ewma=%x declc=%s\n",
			s.Name, s.In, s.Out, s.EmpSelectivity, s.DeclSelectivity, s.MeanCost, s.EWMACost, s.DeclCost)
	}
	for _, ep := range r.Episodes {
		fmt.Fprintf(&b, "episode round=%d tuple=%d source=%s %s->%s value %s->%s\n",
			ep.Round, ep.Tuple, ep.Source, ep.OldHash, ep.NewHash, ep.OldValue, ep.NewValue)
		for _, u := range ep.Updates {
			fmt.Fprintf(&b, "  update %s sel=%v cost=%v\n", u.Service, u.Selectivity, u.Cost)
		}
	}
	return b.String()
}

// TestExecutorDeterministicAcrossWorkers pins the determinism contract
// under drift: a run with injected selectivity AND cost drift produces a
// bit-identical report — verdicts, estimator values, drift-trigger
// sequence, final schedule — whether tuples run serially or through the
// pipelined stage network, across repeated runs.
func TestExecutorDeterministicAcrossWorkers(t *testing.T) {
	selC := rat.New(2, 3)  // declared 1/3: strong upward drift
	costA := rat.New(9, 2) // declared 2: strong upward drift
	truth := map[string]Truth{
		"c": {Selectivity: &selC},
		"a": {Cost: &costA},
	}
	run := func(workers int) string {
		app := testApp(t)
		ex, err := New(Config{
			App: app, Planner: localPlanner(t), Seed: 7,
			Workers: workers, Truth: truth,
			Window: 256, MinSamples: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		report, err := ex.Run(context.Background(), 4096)
		if err != nil {
			t.Fatal(err)
		}
		return describeReport(report)
	}
	serial := run(1)
	if serial != run(1) {
		t.Fatal("two serial runs diverged")
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != serial {
			t.Fatalf("workers=%d diverged from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, serial, workers, got)
		}
	}
	// The injected drift actually exercised the loop.
	if !bytes.Contains([]byte(serial), []byte("source=controller")) {
		t.Fatalf("no controller episode in the drifted run:\n%s", serial)
	}
}

// TestPredicateOverridesSyntheticVerdicts: a user predicate replaces the
// Bernoulli draw and remains subject to the same counting.
func TestPredicateOverridesSyntheticVerdicts(t *testing.T) {
	app, err := workflow.New([]workflow.Service{
		{Name: "only", Cost: rat.One, Selectivity: rat.New(1, 2)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(Config{
		App: app, Planner: localPlanner(t),
		Threshold: neverDrift(),
		Predicate: func(name string, tuple uint64) bool { return tuple%4 == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	report, err := ex.Run(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	s := report.Services[0]
	if s.In != n || s.Out != n/4 || report.Emitted != n/4 {
		t.Fatalf("predicate counts: in=%d out=%d emitted=%d, want %d/%d/%d",
			s.In, s.Out, report.Emitted, n, n/4, n/4)
	}
	if !s.EmpSelectivity.Equal(rat.New(1, 4)) {
		t.Fatalf("empirical selectivity %s, want 1/4", s.EmpSelectivity)
	}
}

// busyOnce sheds the first drift PATCH as the HTTP client does once its
// bounded backoff gives up, and plans every later one.
type busyOnce struct {
	*Local
	drifts int
}

func (b *busyOnce) Drift(ctx context.Context, hash string, app *workflow.App, updates []Update, requestID string) (Plan, error) {
	if b.drifts++; b.drifts == 1 {
		return Plan{}, fmt.Errorf("drift %s: %w", hash, ErrUpstreamBusy)
	}
	return b.Local.Drift(ctx, hash, app, updates, requestID)
}

// TestShedDriftIsDeferred: a drift PATCH the service sheds does not fail
// the run. The report counts it in Deferred, and the estimators, which
// keep their samples, land the patch one round later.
func TestShedDriftIsDeferred(t *testing.T) {
	costA := rat.New(9, 2) // declared 2: strong upward drift
	run := func(planner Planner) *Report {
		ex, err := New(Config{
			App: testApp(t), Planner: planner, Seed: 7,
			Truth: map[string]Truth{"a": {Cost: &costA}},
		})
		if err != nil {
			t.Fatal(err)
		}
		report, err := ex.Run(context.Background(), 4096)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	want := run(localPlanner(t))
	got := run(&busyOnce{Local: localPlanner(t)})
	if want.Deferred != 0 || got.Deferred != 1 {
		t.Fatalf("Deferred = %d unshed, %d shed once; want 0 and 1", want.Deferred, got.Deferred)
	}
	if want.Patches == 0 || got.Patches == 0 {
		t.Fatalf("patches: %d unshed, %d shed once; the drift never landed", want.Patches, got.Patches)
	}
	if w, g := want.Episodes[0], got.Episodes[0]; g.Source != "controller" || g.Round != w.Round+1 {
		t.Fatalf("first patch after round %d (%s), want round %d", g.Round, g.Source, w.Round+1)
	}
}

// TestSelectivityNoiseDoesNotReplan: webquery8 with C3's true
// selectivity at 1/2 (declared 7/10), streamed at the defaults filterexec
// uses (seed 1, 4096 tuples), PATCHes once, and only C3. Undrifted
// services whose pass fractions wander past the relative threshold on
// sampling noise alone (C6, C7) stay inside three standard errors.
func TestSelectivityNoiseDoesNotReplan(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "webquery8.json"))
	if err != nil {
		t.Fatal(err)
	}
	var app workflow.App
	if err := json.Unmarshal(data, &app); err != nil {
		t.Fatal(err)
	}
	half := rat.New(1, 2)
	ex, err := New(Config{
		App: &app, Planner: localPlanner(t), Seed: 1,
		Truth: map[string]Truth{"C3": {Selectivity: &half}},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := ex.Run(context.Background(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if report.Patches != 1 || len(report.Episodes) != 1 {
		t.Fatalf("%d patches, want 1:\n%s", report.Patches, describeReport(report))
	}
	if ups := report.Episodes[0].Updates; len(ups) != 1 || ups[0].Service != "C3" || ups[0].Selectivity == nil || ups[0].Cost != nil {
		t.Fatalf("the patch updates %+v, want C3's selectivity alone", ups)
	}
}

// TestNewValidatesConfig pins the constructor's error surface.
func TestNewValidatesConfig(t *testing.T) {
	app := testApp(t)
	planner := localPlanner(t)
	bad := rat.New(3, 2)
	neg := rat.New(-1, 2)
	zero := rat.Zero
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil app", Config{Planner: planner}},
		{"nil planner", Config{App: app}},
		{"unknown truth service", Config{App: app, Planner: planner,
			Truth: map[string]Truth{"ghost": {}}}},
		{"selectivity above 1", Config{App: app, Planner: planner,
			Truth: map[string]Truth{"a": {Selectivity: &bad}}}},
		{"negative selectivity", Config{App: app, Planner: planner,
			Truth: map[string]Truth{"a": {Selectivity: &neg}}}},
		{"zero cost", Config{App: app, Planner: planner,
			Truth: map[string]Truth{"a": {Cost: &zero}}}},
		{"negative window", Config{App: app, Planner: planner, Window: -1}},
		{"negative threshold", Config{App: app, Planner: planner, Threshold: neg}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
	if _, err := New(Config{App: app, Planner: planner}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
