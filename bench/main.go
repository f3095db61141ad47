// Command bench is the repository's benchmark: five closed-loop workloads
// from a cold plan search to routed cache hits and tuple streaming, three
// end-to-end metrics per workload and the per-layer metrics behind them.
// BENCHMARK.json at the repository root names the command, the workloads,
// the metrics and their bounds; README.md in this directory explains them.
//
//	bash bench/run.sh -seed 1                       every workload, both passes
//	bash bench/run.sh -workload serve-hit -seed 1   one workload, end to end
//	bash bench/run.sh -workload serve-hit -trace 1  its per-layer pass
//	bash bench/run.sh -agree                        two run sets, compared with the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var workloads = []workload{
	{"plan-cold", "every instance distinct, in process: the NP-hard search (solve, orchestrate, eventgraph, rat) does the work; cache and HTTP do none", setupPlanCold},
	{"serve-hit", "loopback HTTP, every request a new wire form of a solved instance: decode, canon, plancache, encode do the work; solve does none", setupServeHit},
	{"serve-churn", "HTTP with a plan store, 70% misses / 20% drift PATCHes / 10% hits: cache insert and evict, fsync, re-planning, registry LRU", setupServeChurn},
	{"cluster-routed", "the serve-hit stream through a router and two replicas: isolates the router hop by difference with serve-hit", setupClusterRouted},
	{"exec-stream", "tuples through planned graphs with one drifted cost: the data plane and its re-plan loop; planning is a few percent of it", setupExecStream},
}

// metricDef names a metric and its unit; BENCHMARK.json adds direction and
// bound (TestManifest keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd is what a caller of the system sees. Every workload reports all
// three: operations are plans, requests or tuples; latencies are per plan,
// per request or per Executor.Run of execTuples tuples.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
}

// perLayer is measured by the traced pass. A workload reports every name;
// a layer it does not exercise reads 0.
var perLayer = []metricDef{
	{"rat.op_ns", "ns"},
	{"eventgraph.mcr_us", "us"},
	{"orchestrate.busy_share", "ratio"},
	{"orchestrate.evals", "count"},
	{"orchestrate.memo_hit_ratio", "ratio"},
	{"orchestrate.prefixes", "count"},
	{"orchestrate.pruned", "count"},
	{"orchestrate.evaluated", "count"},
	{"orchestrate.filter_certified_ratio", "ratio"},
	{"orchestrate.bound_edges_built_ratio", "ratio"},
	{"orchestrate.period_search_ms", "ms"},
	{"orchestrate.period_search_allocs", "count"},
	{"orchestrate.latency_search_ms", "ms"},
	{"orchestrate.latency_search_allocs", "count"},
	{"solve.busy_share", "ratio"},
	{"solve.expanded", "count"},
	{"solve.pruned", "count"},
	{"solve.evaluated", "count"},
	{"solve.time_share.exactforest", "ratio"},
	{"solve.time_share.exactdag", "ratio"},
	{"solve.time_share.bnb", "ratio"},
	{"solve.time_share.hillclimb", "ratio"},
	{"canon.canonicalize_us", "us"},
	{"plancache.hit_ns", "ns"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.evictions", "count"},
	{"plancache.coalesced", "count"},
	{"oplist.encode_us", "us"},
	{"oplist.response_bytes", "bytes"},
	{"service.plan_hit_us", "us"},
	{"service.handler_us", "us"},
	{"service.http_overhead_us", "us"},
	{"service.queue_wait_us_p50", "us"},
	{"service.drift_ms", "ms"},
	{"service.solves", "count"},
	{"service.shed", "count"},
	{"service.memo_hit_ratio", "ratio"},
	{"store.put_ms", "ms"},
	{"store.load_ms_per_1k", "ms"},
	{"store.entry_bytes", "bytes"},
	{"store.writes", "count"},
	{"store.write_errors", "count"},
	{"cluster.hop_us", "us"},
	{"cluster.forwarded", "count"},
	{"cluster.local_served", "count"},
	{"cluster.failovers", "count"},
	{"cluster.retries", "count"},
	{"cluster.shard_skew", "ratio"},
	{"cluster.sync_round_ms", "ms"},
	{"cluster.sync_items", "count"},
	{"exec.serial_ns_per_tuple", "ns"},
	{"exec.pipelined_ns_per_tuple", "ns"},
	{"exec.pipeline_speedup", "ratio"},
	{"exec.plan_share", "ratio"},
	{"exec.emitted", "count"},
	{"exec.patches", "count"},
	{"exec.swaps", "count"},
	{"proc.allocs_per_op", "count"},
	{"proc.bytes_per_op", "bytes"},
	{"proc.gc_cpu_share", "ratio"},
	{"proc.heap_peak_mb", "MB"},
	{"trace.overhead_share", "ratio"},
	// The reference clock (refclock.go): the host's speed against the
	// reference host over the untraced phase, and the rate per wall second.
	{"host.speed", "ratio"},
	{"host.ops_per_s_wall", "1/s"},
	// End-to-end in kind, but without a bound: the tails vary more from
	// seed to seed than a bound may allow, and the rest exist on one
	// workload only. Measured by the untraced half of the traced run.
	{"lat_p95_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"lat_miss_p50_ms", "ms"},
	{"lat_patch_p50_ms", "ms"},
	{"tuples_per_s_pipelined", "1/s"},
	{"failed_share", "ratio"},
}

// report is the outcome of one pass of one workload.
type report struct {
	workload  string
	defs      []metricDef
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string
	detail    string // sample counts and the like, for the human reader
}

// Set-up is repeated and its median reported, because one set-up is short
// and noisy: at least setupMinRepeats times, then until setupBudget is spent
// or setupMaxRepeats are done (plan-cold's takes a millisecond).
const (
	setupMinRepeats = 5
	setupMaxRepeats = 200
	setupBudget     = time.Second
)

// runEndToEnd sets the workload up, measures it untraced for cfg.seconds
// and reports the end-to-end metrics.
func runEndToEnd(w workload, cfg runConfig) (report, error) {
	var e env
	var setups []float64
	var spent time.Duration
	for i := 0; i < setupMinRepeats || (i < setupMaxRepeats && spent < setupBudget); i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		// In reference seconds, like every other time (refclock.go).
		ref, err := refSeconds(func() (err error) {
			e, err = w.setup(cfg)
			return err
		})
		if err != nil {
			return report{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		spent += time.Since(t0)
		setups = append(setups, ref)
	}
	defer e.close()
	runtime.GC() // start the measured phase without set-up's garbage
	s := e.measure(cfg.duration(), false)
	lat := s.sorted("")
	return report{
		workload: w.name,
		defs:     endToEnd,
		metrics: map[string]float64{
			"setup_s":    median(setups),
			"ops_per_s":  s.rate(),
			"lat_p50_ms": percentile(lat, 50),
		},
		attempted: s.attempted,
		failed:    s.failed,
		notes:     s.notes,
		detail: fmt.Sprintf("%d latency samples over %.2f reference s (host speed %.3f: %.4f ops per wall s); highest percentile with 10 samples beyond it: p%g = %.4f ms",
			len(lat), s.elapsed.Seconds(), s.speed, s.rate()*s.speed, tailPercentile(len(lat)), percentile(lat, tailPercentile(len(lat)))),
	}, nil
}

// runTraced measures the workload twice on the same operation list, each
// for half of cfg.seconds — untraced, then with spans around the
// benchmark's calls into each layer — and reports the per-layer metrics.
// The spans are written to traceDir.
func runTraced(w workload, cfg runConfig, traceDir string) (report, error) {
	half := cfg.duration() / 2
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	first, err := w.setup(cfg)
	if err != nil {
		return report{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	runtime.GC()
	usage := startProcUsage()
	untraced := first.measure(half, false)
	usage.stop(untraced.ops, m)
	m["host.speed"] = untraced.speed
	m["host.ops_per_s_wall"] = untraced.rate() * untraced.speed
	first.close()

	second, err := w.setup(cfg)
	if err != nil {
		return report{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer second.close()
	runtime.GC()
	traced := second.measure(half, true)
	second.layers(untraced, traced, m)
	if traced.rate() > 0 {
		m["trace.overhead_share"] = untraced.rate()/traced.rate() - 1
	}
	// A tail is reported only where ten samples lie beyond it.
	lat := untraced.sorted("")
	if tailPercentile(len(lat)) >= 95 {
		m["lat_p95_ms"] = percentile(lat, 95)
	}
	if tailPercentile(len(lat)) >= 99 {
		m["lat_p99_ms"] = percentile(lat, 99)
	}
	attempted, failed := untraced.attempted+traced.attempted, untraced.failed+traced.failed
	m["failed_share"] = ratio(float64(failed), float64(attempted))
	path, err := writeTrace(traceDir, w.name, cfg.seed, traced.spans, traced.layerTimes())
	if err != nil {
		return report{}, fmt.Errorf("%s: writing spans: %w", w.name, err)
	}
	return report{
		workload:  w.name,
		defs:      perLayer,
		metrics:   m,
		attempted: attempted,
		failed:    failed,
		notes:     append(untraced.notes, traced.notes...),
		detail:    fmt.Sprintf("%d spans written to %s", len(traced.spans), path),
	}, nil
}

// print writes the report for a human: every metric by name with its unit.
func (r report) print() {
	for _, d := range r.defs {
		fmt.Printf("%-15s %-38s %16.4f %s\n", r.workload, d.name, r.metrics[d.name], d.unit)
	}
	fmt.Printf("%-15s attempted %d, failed %d; %s\n", r.workload, r.attempted, r.failed, r.detail)
	for _, n := range r.notes {
		fmt.Printf("%-15s FAILED: %s\n", r.workload, n)
	}
}

// resultLine is the machine-readable result: the last line of output when
// one workload is run.
func (r report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value, len(r.defs))}
	for _, d := range r.defs {
		out.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return string(line)
}

// commit is the repository revision the binary was built from; run.sh sets
// it at link time when the checkout is a git repository.
var commit = "unknown"

// printHost records where the numbers were taken.
func printHost() {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	fmt.Printf("host: GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), model, runtime.Version(), commit)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	agree    bool
	golden   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with its result as one JSON line (default: all five, both passes)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same instances, wire forms and operation order")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of one measured phase")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where the traced pass writes its spans")
	flag.BoolVar(&o.agree, "agree", false, "run the end-to-end pass of every workload twice and compare the two with the bounds in BENCHMARK.json")
	flag.StringVar(&o.golden, "write-golden", "", "write plan-cold's golden objective values for -seed into this directory and exit")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR] [-agree]")
		os.Exit(2)
	}
	status, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(status)
}

// run executes what the flags ask for and returns the exit status: 1 when
// an answer was wrong or the run could not be made, 2 for a bad flag.
func run(o options) (int, error) {
	// At most nproc clients, and at most two: the benchmark shares the
	// host with the servers it drives, and a fixed count keeps the load
	// comparable between hosts.
	cfg := runConfig{seed: o.seed, seconds: o.seconds, clients: min(2, runtime.NumCPU())}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	printHost()
	fmt.Printf("run: seed=%d seconds=%g clients=%d\n", cfg.seed, cfg.seconds, cfg.clients)
	switch {
	case o.golden != "":
		if err := writeGolden(cfg, o.golden); err != nil {
			return 1, err
		}
		return 0, nil
	case o.agree:
		return runAgree(cfg)
	}

	// One workload, one pass — or the whole suite: every workload, end to
	// end and then per layer.
	selected, passes := workloads, []bool{false, true}
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected, passes = []workload{w}, []bool{o.trace == 1}
	}
	status := 0
	for _, w := range selected {
		for _, traced := range passes {
			var r report
			if traced {
				r, err = runTraced(w, cfg, o.traceDir)
			} else {
				r, err = runEndToEnd(w, cfg)
			}
			if err != nil {
				return 1, err
			}
			r.print()
			if o.workload != "" {
				fmt.Println(r.resultLine())
			}
			if r.failed > 0 {
				status = 1
			}
		}
	}
	return status, nil
}
