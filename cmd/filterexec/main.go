// Command filterexec is the data plane: it plans an instance, then
// actually runs the plan — pushing a deterministic synthetic tuple
// stream through the planned execution graph, estimating each service's
// empirical selectivity and per-tuple cost online, and driving the
// re-plan loop when the measurements depart the declared instance
// (internal/exec).
//
// Two control-plane modes: with -url the executor speaks to a running
// filterd (or cluster router) over HTTP — plan via POST /v1/plan, drift
// via PATCH /v1/instance/{hash}, external re-plans via the SSE subscribe
// stream with Last-Event-ID resume; without -url an in-process planning
// service is embedded, so the full closed loop runs in one process.
// Both modes resolve -model and -objective with the service's own
// resolver (service.Params.Request) before the mode is chosen, so a bad
// name fails at start-up with the same error either way. The search
// method, family and seed are the service's defaults.
//
// Drift is injected with -drift / -drift-cost: the declared instance is
// planned as-is, but the stream behaves per the overridden truth, so the
// executor's estimators converge on the true values and the controller
// PATCHes the instance — exercising plan → execute → observe → re-plan
// end to end.
//
//	filterexec -in testdata/webquery8.json -tuples 8192 -drift 'C3=1/2'
//	filterexec -in inst.json -url http://127.0.0.1:8080 -rate 5000 -json
//
// Determinism: the stream's verdict seed is fixed (execSeed), so a fixed
// instance and flags reproduce bit-identical verdicts, estimator values,
// and drift-trigger sequences across runs, -rate and -workers settings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/workflow"
)

// execSeed is the verdict seed of the synthetic stream.
const execSeed = 1

func main() {
	var (
		in        = flag.String("in", "", "instance file (workflow.App JSON; required)")
		url       = flag.String("url", "", "filterd base URL (empty: embed an in-process planning service)")
		model     = flag.String("model", "", "cost model: overlap, inorder, outorder (default service/CLI default)")
		obj       = flag.String("objective", "", "objective: period or latency")
		tuples    = flag.Uint64("tuples", 4096, "tuples to stream")
		rate      = flag.Float64("rate", 0, "pace the stream to this many tuples/second of wall time (0 = unpaced)")
		workers   = flag.Int("workers", 1, "execution mode: 1 = serial, >1 = pipelined stage network")
		window    = flag.Int("window", exec.DefaultWindow, "tuples per round (drift control and hot swaps happen at round boundaries)")
		minSamp   = flag.Uint64("min-samples", exec.DefaultMinSamples, "tuples a service must see before its estimates can trigger a re-plan")
		thresh    = flag.String("threshold", "1/8", "relative drift threshold: re-plan when |emp-decl| > threshold*decl")
		drift     = flag.String("drift", "", "true selectivities, e.g. 'C3=1/2,C5=9/10' (stream behavior; declared plan unchanged)")
		driftC    = flag.String("drift-cost", "", "true per-tuple costs, e.g. 'C2=9/2'")
		jsonOut   = flag.Bool("json", false, "print the run report as JSON")
		dumpInst  = flag.String("dump-instance", "", "write the final declared instance (post-PATCH) to this file")
		dumpSched = flag.String("dump-schedule", "", "write the final (hot-swapped) schedule to this file — comparable bit for bit with filterplan -canon -schedule-out on the dumped instance")
	)
	flag.Parse()

	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	var app workflow.App
	if err := json.Unmarshal(data, &app); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *in, err))
	}

	threshold, err := rat.Parse(*thresh)
	if err != nil {
		fatal(fmt.Errorf("parsing -threshold: %w", err))
	}
	truth, err := parseTruth(*drift, *driftC)
	if err != nil {
		fatal(err)
	}

	// Resolved before the mode is chosen, so both modes reject a bad name.
	wire := service.Params{Model: *model, Objective: *obj}
	params, err := wire.Request(nil)
	if err != nil {
		fatal(err)
	}
	var planner exec.Planner
	if *url != "" {
		planner = &exec.Client{BaseURL: strings.TrimRight(*url, "/"), Params: wire}
	} else {
		srv := service.New(service.Config{})
		defer srv.Close()
		planner = &exec.Local{Server: srv, Params: params}
	}

	ex, err := exec.New(exec.Config{
		App:        &app,
		Planner:    planner,
		Seed:       execSeed,
		Rate:       *rate,
		Window:     *window,
		MinSamples: *minSamp,
		Threshold:  threshold,
		Truth:      truth,
		Workers:    *workers,
		RequestID:  obs.NewID(),
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	report, err := ex.Run(ctx, *tuples)
	if err != nil {
		fatal(err)
	}

	if *dumpInst != "" {
		doc, err := json.MarshalIndent(report.App, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*dumpInst, append(doc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *dumpSched != "" {
		if err := os.WriteFile(*dumpSched, append(append([]byte(nil), report.Schedule...), '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
		return
	}
	printReport(report)
}

// parseTruth decodes the -drift / -drift-cost assignment lists.
func parseTruth(sels, costs string) (map[string]exec.Truth, error) {
	truth := make(map[string]exec.Truth)
	parse := func(list, what string, assign func(t *exec.Truth, v rat.Rat)) error {
		if list == "" {
			return nil
		}
		for _, item := range strings.Split(list, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(item), "=")
			if !ok {
				return fmt.Errorf("parsing -%s: %q is not name=value", what, item)
			}
			v, err := rat.Parse(val)
			if err != nil {
				return fmt.Errorf("parsing -%s %q: %w", what, item, err)
			}
			t := truth[name]
			assign(&t, v)
			truth[name] = t
		}
		return nil
	}
	if err := parse(sels, "drift", func(t *exec.Truth, v rat.Rat) { t.Selectivity = &v }); err != nil {
		return nil, err
	}
	if err := parse(costs, "drift-cost", func(t *exec.Truth, v rat.Rat) { t.Cost = &v }); err != nil {
		return nil, err
	}
	if len(truth) == 0 {
		return nil, nil
	}
	return truth, nil
}

// printReport renders the human-readable run summary.
func printReport(r *exec.Report) {
	fmt.Printf("tuples     = %d (emitted %d, %d rounds)\n", r.Tuples, r.Emitted, r.Rounds)
	fmt.Printf("plan       = %s (value %s, period %s)\n", r.Hash, r.Value, r.Period)
	fmt.Printf("re-plans   = %d controller patch(es), %d adopted event(s), %d swap(s)\n",
		r.Patches, r.ReplanEvents, r.Swaps)
	if r.Throughput > 0 {
		fmt.Printf("throughput = %.0f tuples/s (%s)\n", r.Throughput, r.Elapsed.Round(1000000))
	}
	fmt.Println()
	fmt.Printf("%-10s %10s %10s %14s %14s %12s\n", "service", "in", "out", "emp sel", "decl sel", "mean cost")
	services := append([]exec.ServiceStats(nil), r.Services...)
	sort.Slice(services, func(i, j int) bool { return services[i].Name < services[j].Name })
	for _, s := range services {
		fmt.Printf("%-10s %10d %10d %14s %14s %12s\n",
			s.Name, s.In, s.Out, s.EmpSelectivity, s.DeclSelectivity, s.MeanCost)
	}
	for _, ep := range r.Episodes {
		fmt.Printf("\nround %d (%s): %s -> %s, value %s -> %s",
			ep.Round, ep.Source, short(ep.OldHash), short(ep.NewHash), ep.OldValue, ep.NewValue)
		for _, u := range ep.Updates {
			fmt.Printf("\n  %s:", u.Service)
			if u.Selectivity != nil {
				fmt.Printf(" selectivity=%s", *u.Selectivity)
			}
			if u.Cost != nil {
				fmt.Printf(" cost=%s", *u.Cost)
			}
		}
	}
	if len(r.Episodes) > 0 {
		fmt.Println()
	}
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "filterexec:", err)
	os.Exit(1)
}
