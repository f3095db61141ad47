# Developer entry points. CI (.github/workflows/ci.yml) runs
# `make vet build test-race test test-alloc bench-smoke bench-exec-round`,
# the four smoke-* targets and `make fuzz`, so every package list below
# exists once.
#
# The four source gates need no target of their own: all live in
# deadcode_test.go (root package) and run in every `go test` above, -short
# included; all but the surface gate type-check the module and bench/ in
# about 4 s each, the surface gate only parses it.
# - TestShippedCodeIsReachable fails with one line per internal/
#   declaration no shipped code reaches, as `file:line: pkg.Name has no
#   shipped caller` (pkg.Type.Method for a method). Delete what it lists,
#   move a reference implementation into the _test.go file that uses it,
#   or give shared test support an entry, with its reason, in
#   unreachableAllowed.
# - TestShippedKnobsHaveShippedSetters fails with one line per exported
#   option field that shipped code builds but never sets (no json: tag, no
#   write outside the struct's own defaulting), as `file:line:
#   pkg.Type.Field has no shipped setter`. Make it a constant, or give it
#   an entry, with its reason, in knobsAllowed.
# - TestShippedSurfaceHasReaders fails with one line per CLI flag no
#   script, Makefile recipe or CI step passes to its command, HTTP route no
#   test, script or bench/ file requests, and metric family no test,
#   script, bench/ or examples/ file names (comments and prose do not
#   count), as `file:line: flag cmd -name has no reader` (route, metric
#   family). Delete it, give it a reader, or give it an entry, with its
#   reason, in surfaceAllowed.
# - TestShippedFieldsHaveReaders fails with one line per struct field of
#   an internal/ file that no shipped code reads, as `file:line:
#   pkg.Type.Field has no shipped reader`. Assignments, ++/--,
#   composite-literal keys and sync/atomic Add/Store are writes; a struct
#   tag, or a struct reaching an encoding/json or fmt argument, counts as
#   read. Delete the field, or give it an entry, with its reason, in
#   fieldsAllowed.
# An allowlist entry that gains a caller, setter or reader, or stops
# existing, fails its gate too.

GO ?= go
FUZZTIME ?= 15s

.PHONY: build bins test test-short test-race test-alloc bench bench-smoke bench-exec-round bench-paired fuzz vet check experiments smoke-filterd smoke-cluster smoke-exec smoke-chaos

build:
	$(GO) build ./...

# Explicit binaries, filterd (the planning daemon) and filterexec (the
# data-plane executor) included.
bins:
	mkdir -p bin
	$(GO) build -o bin/ ./cmd/filterplan ./cmd/filterexp ./cmd/filtergen ./cmd/filterd ./cmd/filterexec

# go vet, plus a formatting gate: the target fails when gofmt -l lists any
# file (bench/ included). The tree is gofmt-clean, so the gate passes as it
# stands; run `gofmt -w <file>` on what it lists.
vet:
	$(GO) vet ./...
	@unformatted=$$("$$($(GO) env GOROOT)/bin/gofmt" -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Fast loop: gates the experiment sweeps behind -short (sub-second smoke
# subset instead of the full harness).
test-short:
	$(GO) test -short ./...

# Concurrency soundness of the worker-pool search layer and the planning
# service: full race runs of the pool, the sharded solvers (including the
# branch-and-bound shared incumbent and context cancellation), the
# orchestration order search and its event-graph engine under those
# concurrent solves, the plan cache's singleflight, the service's
# exactly-one-solve / restart / subscription / backpressure suites, the
# persistent store, the cluster router with its circuit breakers (and
# the replication chaos suite: each replica killed in turn under seeded
# faults), the gossip agent, the deterministic fault injector, the
# metrics registry, the data-plane executor (word kernel against its
# per-tuple oracles, pipelined stage network + closed re-plan loop against
# an in-process filterd) and its stream substrate, plus one race pass of
# the concurrent experiment harness at budget 1 (E1–E15, E18, E20; the
# rest of internal/experiments runs race+short — its budget-2 comparison
# with EXPERIMENTS.md runs unraced under `test`).
test-race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/par/ ./internal/solve/ ./internal/orchestrate/ ./internal/eventgraph/ ./internal/plancache/ ./internal/service/ ./internal/store/ ./internal/cluster/ ./internal/resilience/ ./internal/metrics/ ./internal/exec/ ./internal/sim/ ./internal/faults/
	$(GO) test -race -run TestAllWorkersPreservesOrderAndResults ./internal/experiments/

# Allocation-regression guards: the orchestration inner loop
# (AllocsPerRun budgets: the zero-alloc value path, prefix bound and
# ratio-only MCR on a warm evaluator — the one-port latency evaluator on
# both lanes, its int64 Kahn pass and the event graph of a plan that falls
# back — and the value-first
# candidate path — scoring a candidate graph builds no operation list),
# validating a valid operation list (no labels formatted off the error
# path), the service cache-hit path (tracing spans must add zero
# allocations when disabled; a whole HTTP hit through Handler.ServeHTTP
# stays inside its pinned budget), the executor's round (kernel, estimator
# folds and a quiet controller pass allocate nothing on a warm program) and
# the exact inner loop: a relaxation on a warm Graph and a branch-and-bound
# partial bound on a warm shard scratch (on the int64 lane and on its
# rational fallback) allocate nothing, and so do the
# hill climbs' move check and an accepted move on a warm evaluator, for a
# forest re-parent and for a DAG edge toggle; an exhaustive order search
# under a limit (INORDER period, one-port latency; at the optimum and in a
# cut-off) allocates no more than the unlimited one on a warm evaluator,
# and a one-port latency scoring whose floor exceeds its limit costs two
# allocations and a tree-latency scoring three (its path bound shares the
# rest[] pass); Score.Materialise on a fixed 7-service plan builds each
# template's event graph once and reads the bottleneck off that solve
# (INORDER and OUTORDER rows at their measured counts, well under the
# counts of a second graph built for the labels); building a candidate
# (FromGraph + Weighted) stays inside a budget that does not grow with n,
# and on a warm plan.Builder building or rejecting one allocates nothing,
# the period floor costs two allocations per solve at every n, and the
# Kahn pass + ancestor sets on a warm dag.Scratch allocate nothing.
# Must run unraced — the guards self-skip under -race because
# instrumentation inflates the counts.
test-alloc:
	$(GO) test -count=1 -run AllocBudget ./internal/orchestrate/ ./internal/oplist/ ./internal/service/ ./internal/exec/ ./internal/rat/ ./internal/eventgraph/ ./internal/solve/ ./internal/plan/ ./internal/dag/

# One pass over every go-test benchmark: the experiments E1-E4 and E10-E12, the
# component benchmarks, BranchBound (ns per expanded node of the whole
# exact solve at Workers 1: forest n = 7, DAG n = 5 without and with
# precedence), the branch-and-bound partial bounds (BenchmarkPartialBound:
# ns/node and allocs/node over the whole forest n = 7 and DAG n = 5 search
# trees on a warm scratch, on the int64 lane and, in the -fallback rows,
# on exact rationals; allocs/node leaves out the tree walk's own), the order
# search's cut-off (BenchmarkScoreCutoff: ns/op of one one-port latency
# scoring at n = 6, 7 with no limit and with the limit at 0.9 × the
# optimum), one candidate graph and its lowering (BenchmarkCandidateBuild:
# ns/op and allocs/op of FromGraph + Weighted against a warm plan.Builder,
# n = 8 with precedence) and the executor's round (BenchmarkExecRound:
# ns/tuple and evaluations/tuple, serial and pipelined). End-to-end and per-layer
# numbers are bench/'s (bench-paired).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repository benchmark (bench/, a module of its own) must keep
# compiling against the planner's packages and pass its unit tests and
# 5-workload smoke run: an API change in orchestrate/solve/service that
# breaks it fails here, not in the benchmark run that judges a PR.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# One iteration of the executor's round benchmark (BenchmarkExecRound,
# serial and pipelined): a smoke that the data-plane benchmark still runs.
bench-exec-round:
	$(GO) test -run '^$$' -bench ExecRound -benchtime 1x ./internal/exec/

# Paired comparison of the working tree against a parent commit with the
# identical benchmark code on both sides (bench/README.md, "Paired
# comparison"): make bench-paired PARENT=<ref> WORKLOAD=plan-cold [PAIRS=10]
# [RUN_SECONDS=15].
bench-paired:
	./scripts/bench_paired.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(RUN_SECONDS)

# Rewrite EXPERIMENTS.md from its first `### ` heading on with the
# experiment harness at the recorded configuration (budget 2, Markdown),
# keeping the file's header; TestExperimentsMatchRecord pins the result.
experiments:
	{ sed '/^### /,$$d' EXPERIMENTS.md; $(GO) run ./cmd/filterexp -md -budget 2; } > EXPERIMENTS.md.new && mv EXPERIMENTS.md.new EXPERIMENTS.md

# End-to-end daemon smoke: start filterd on a local port with a plan
# store, plan testdata/webquery8.json and a filtergen instance over HTTP,
# diff each objective value against the filterplan CLI answer, restart
# the daemon on its store and require the repeat to be served from it;
# also check filterplan -method auto's search report and the Figure 1
# replay (CI runs the same check).
smoke-filterd:
	./scripts/smoke_filterd.sh

# End-to-end cluster smoke: 2 replicas + router, routed answer diffed
# against the filterplan CLI, then the owning replica is killed mid-run
# and the router must fail over to its local solve with the identical
# value (CI runs the same check).
smoke-cluster:
	./scripts/smoke_cluster.sh

# Replication chaos smoke: 3 gossiping replicas + a router with R=2 and
# the deterministic fault injector armed; kill and restart the owning
# replica mid-traffic and require zero 5xx, answers bit-identical to the
# filterplan CLI, and the restarted replica re-learning its registry via
# anti-entropy (CI runs the same check).
smoke-chaos:
	./scripts/smoke_chaos.sh

# End-to-end data-plane smoke: boot filterd, run filterexec with an
# injected cost drift, and require a re-plan PATCH plus a hot-swapped
# schedule bit-identical to the filterplan CLI on the drifted instance
# (CI runs the same check).
smoke-exec:
	./scripts/smoke_exec.sh

# Short coverage-guided fuzz smokes (the corpus seeds also run as regular
# unit tests under `test`): the operation-list JSON codec, the plan-request
# decoder against its two-step oracle, rat.Parse's int64 fast path against
# the math/big path, the int64 arithmetic kernel against math/big
# (values, canonical form), the candidate builder (FromGraph + Weighted)
# against the one it replaced, the plan-store entry codec (never panics;
# an accepted entry re-encodes stably), Score.Materialise (total on
# what the scoring forms produce; every period bottleneck a critical
# cycle of the event graph the winning orders were scored on), the
# one-port latency evaluator's int64 lane against its exact-rational
# fallback (taken exactly when a math/big oracle says the durations fit;
# then the same value, deadlock and prune on decoded plans and orders),
# the canonical hash (unchanged by a service permutation, unreduced
# rationals and implied precedence edges; changed by one cost or one
# name), and the /v1/sync import (never panics;
# a rejected item changes nothing but its counter; an accepted instance
# re-canonicalises to its claimed hash), the PATCH /v1/instance/{hash}
# handler (never a 5xx; a failed PATCH changes no cache, registry or event
# state; a 200 only for updates ApplyUpdates accepts), the POST
# /v1/batch handler (never a 5xx; a non-200 changes no cache or registry
# state; a 200 answers every item, in order, as POST /v1/plan answers it
# alone), the POST /v1/sync handler (never a 5xx; a non-200 leaves
# the sync digest alone; a 200 accounts for every pushed item, holds each
# accepted one in its digest and answers within the exchange caps), the
# GET /v1/subscribe/{hash} Last-Event-ID resume (never a 5xx; a
# non-numeric cursor is a 400; a numeric one replays exactly the retained
# events past it, in order, with a lag notice exactly when events were
# lost; no subscriber is left behind), and the exact DAG search on decoded instances of up to 4 services (at 1 and
# 2 workers the blind oracle's Solution over all labelled DAGs bit for bit,
# a transitively reduced winner that validates, Exact as the model and
# objective allow), and the partial bounds' int64 lane against its
# exact-rational fallback on decoded instances of up to 4 services (taken
# exactly when a math/big oracle of its guard says the instance fits; then
# the same Rat on every node of the forest and DAG search trees). FUZZTIME
# bounds each target.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzListJSONRoundTrip -fuzztime $(FUZZTIME) ./internal/oplist/
	$(GO) test -run '^$$' -fuzz FuzzPlanRequestDecode -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/rat/
	$(GO) test -run '^$$' -fuzz FuzzArith -fuzztime $(FUZZTIME) ./internal/rat/
	$(GO) test -run '^$$' -fuzz FuzzFromGraph -fuzztime $(FUZZTIME) ./internal/plan/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzScoreMaterialise -fuzztime $(FUZZTIME) ./internal/orchestrate/
	$(GO) test -run '^$$' -fuzz FuzzOnePortLanesAgree -fuzztime $(FUZZTIME) ./internal/orchestrate/
	$(GO) test -run '^$$' -fuzz FuzzSyncImport -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzDriftRequest -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzBatchRequest -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzSyncRequest -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzSubscribeResume -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzCanonicalHash -fuzztime $(FUZZTIME) ./internal/canon/
	$(GO) test -run '^$$' -fuzz FuzzExactMatchesOracle -fuzztime $(FUZZTIME) ./internal/solve/
	$(GO) test -run '^$$' -fuzz FuzzPartialBoundLanesAgree -fuzztime $(FUZZTIME) ./internal/solve/

check: vet build test-short test-race test-alloc bench-smoke bench-exec-round
