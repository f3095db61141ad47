package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/exec"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workflow"
)

// exec-stream sizes. One operation is one Executor.Run: a stream of
// execTuples tuples through the planned graph of one instance. The true
// cost of one service is execDrift times its declared cost, so every run
// walks the whole loop: plan, stream, estimate, detect, PATCH, hot-swap.
const (
	execTuples = 8192
	execDrift  = 4
	// execSerialShare of a measured phase runs the serial executor
	// (Workers: 1, the filterexec default — the end-to-end numbers); the
	// rest runs the pipelined stage network on the same instances, whose
	// rate is a per-layer metric.
	execSerialShare = 0.8
)

// execSizes lists the instances of one cycle by service count: sixteen, so
// that a run's throughput and latency percentiles describe a population of
// plans and not the luck of a few draws.
var execSizes = []int{8, 16, 8, 16, 8, 16, 8, 16, 8, 16, 8, 16, 8, 16, 8, 16}

// execInstance is one streamed instance and what every run of it must
// reproduce.
type execInstance struct {
	app     *workflow.App
	seed    uint64 // verdict seed of the synthetic stream
	truth   map[string]exec.Truth
	emitted uint64 // sim.ReferenceStream's count
	patches int
	swaps   int
}

type execEnv struct {
	cfg     runConfig
	srv     *service.Server
	planner *exec.Local
	insts   []execInstance
}

func setupExecStream(cfg runConfig) (env, error) {
	e := &execEnv{cfg: cfg}
	e.srv, _, _ = newReplica(nil)
	e.planner = &exec.Local{Server: e.srv, Params: servingRequest(nil)}
	for i, n := range execSizes {
		rng := rand.New(rand.NewSource(subSeed(cfg.seed, "exec-stream", i)))
		app := filteringApp(rng.Int63(), n)
		j := rng.Intn(n)
		cost := app.Cost(j).Mul(rat.I(execDrift))
		inst := execInstance{
			app:   app,
			seed:  rng.Uint64(),
			truth: map[string]exec.Truth{app.Name(j): {Cost: &cost}},
		}
		// The first run plans the declared and the drifted instance (both
		// are cache hits from then on) and fixes the expected counts.
		report, err := e.run(context.Background(), inst, 1, e.planner)
		if err != nil {
			e.srv.Close()
			return nil, fmt.Errorf("exec-stream instance %d: %w", i, err)
		}
		final, err := e.planner.Plan(context.Background(), report.App, "")
		if err != nil {
			e.srv.Close()
			return nil, fmt.Errorf("exec-stream instance %d: %w", i, err)
		}
		// A tuple is emitted iff every service passes it, whatever the
		// graph, so the reference count on the final plan's graph is the
		// count for the whole run, hot swap included. The stream's true
		// selectivities are the originally declared ones, whatever the
		// controller has PATCHed since.
		truth := make(map[string]rat.Rat, n)
		for v := 0; v < n; v++ {
			truth[app.Name(v)] = app.Selectivity(v)
		}
		inst.emitted = sim.ReferenceStream(final.App, final.Graph, inst.seed, 0, execTuples, truth).Emitted
		inst.patches, inst.swaps = report.Patches, report.Swaps
		if report.Emitted != inst.emitted {
			e.srv.Close()
			return nil, fmt.Errorf("exec-stream instance %d: emitted %d, reference stream %d", i, report.Emitted, inst.emitted)
		}
		e.insts = append(e.insts, inst)
	}
	return e, nil
}

func (e *execEnv) close() { e.srv.Close() }

// run streams execTuples tuples of one instance through a fresh executor.
func (e *execEnv) run(ctx context.Context, inst execInstance, workers int, planner exec.Planner) (*exec.Report, error) {
	ex, err := exec.New(exec.Config{
		App:     inst.app,
		Planner: planner,
		Seed:    inst.seed,
		Truth:   inst.truth,
		Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	return ex.Run(ctx, execTuples)
}

// tracedPlanner records a span around every control-plane call an executor
// makes, so planning's share of a run is measured, not assumed.
type tracedPlanner struct {
	exec.Planner
	tr       *trace
	root, op int
}

func (p *tracedPlanner) Plan(ctx context.Context, app *workflow.App, id string) (plan exec.Plan, err error) {
	p.tr.timed("exec.plan", p.root, p.op, func() { plan, err = p.Planner.Plan(ctx, app, id) })
	return plan, err
}

func (p *tracedPlanner) Drift(ctx context.Context, hash string, app *workflow.App, updates []exec.Update, id string) (plan exec.Plan, err error) {
	p.tr.timed("exec.plan", p.root, p.op, func() { plan, err = p.Planner.Drift(ctx, hash, app, updates, id) })
	return plan, err
}

// leg runs the given number of concurrent executors, each cycling over the
// instances with the given worker count until the deadline. Every run's
// counts must equal the instance's expected ones: that is both the
// ReferenceStream check and serial == pipelined.
func (e *execEnv) leg(executors, workers int, d time.Duration, traced bool) *sample {
	deadline := time.Now().Add(d)
	return runClients(executors, traced, func(client int, s *sample, tr *trace) {
		ctx := context.Background()
		// Each executor cycles over its own share of the instances: two
		// executors on one instance would hear each other's PATCHes through
		// the subscription stream and adopt them, which no fixed expected
		// count can describe.
		for i := client; time.Now().Before(deadline); i += executors {
			inst := e.insts[i%len(e.insts)]
			var planner exec.Planner = e.planner
			op, root := client*opsPerClient+s.attempted, -1
			if tr != nil {
				root = tr.begin("exec.run", -1, op)
				planner = &tracedPlanner{Planner: e.planner, tr: tr, root: root, op: op}
			}
			t0 := time.Now()
			report, err := e.run(ctx, inst, workers, planner)
			wall := time.Since(t0)
			if tr != nil {
				tr.end(root)
			}
			switch {
			case err != nil:
				s.fail("exec-stream run %d: %v", op, err)
			case report.Emitted != inst.emitted || report.Patches != inst.patches || report.Swaps != inst.swaps:
				s.fail("exec-stream run %d (workers %d): emitted/patches/swaps %d/%d/%d, want %d/%d/%d", op, workers,
					report.Emitted, report.Patches, report.Swaps, inst.emitted, inst.patches, inst.swaps)
			default:
				s.okN("", t0, wall, execTuples)
			}
		}
	})
}

// measure runs the serial leg — one serial executor per client, the
// workload's end-to-end tuples per second and per-run latency — then the
// pipelined leg: one executor whose stage network spans the cores.
func (e *execEnv) measure(d time.Duration, traced bool) *sample {
	serial := time.Duration(float64(d) * execSerialShare)
	s := e.leg(e.cfg.clients, 1, serial, traced)
	piped := e.leg(1, 2, d-serial, false)
	s.attempted += piped.attempted
	s.failed += piped.failed
	s.notes = append(s.notes, piped.notes...)
	s.extra["tuples_per_s_pipelined"] = piped.rate()
	serverCounters(s, e.srv)
	return s
}

func (e *execEnv) layers(untraced, traced *sample, m map[string]float64) {
	copyCounters(untraced, m)
	m["exec.serial_ns_per_tuple"] = ratio(1e9, untraced.rate())
	m["exec.pipelined_ns_per_tuple"] = ratio(1e9, m["tuples_per_s_pipelined"])
	m["exec.pipeline_speedup"] = ratio(m["tuples_per_s_pipelined"], untraced.rate())
	layers := traced.layerTimes()
	if run, planning := layers["exec.run"], layers["exec.plan"]; run != nil && planning != nil {
		m["exec.plan_share"] = ratio(float64(planning.TotalNs), float64(run.TotalNs))
	}
	// Exact counts of one cycle over the instance list.
	for _, inst := range e.insts {
		m["exec.emitted"] += float64(inst.emitted)
		m["exec.patches"] += float64(inst.patches)
		m["exec.swaps"] += float64(inst.swaps)
	}
}
