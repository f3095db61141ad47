// Command filterplan optimizes one filtering-workflow instance: it reads an
// application from a JSON instance file (or uses the paper's built-in
// examples), finds a plan minimizing the period or the latency under the
// chosen communication model, and prints the execution graph, the
// per-service cost table, the operation list and an ASCII Gantt chart.
//
// Usage:
//
//	filterplan -in instance.json [-model overlap|inorder|outorder]
//	           [-objective period|latency]
//	           [-method auto|greedy-chain|hill-climb|bnb]
//	           [-family auto|forest|dag]
//	           [-workers N] [-canon] [-gantt] [-timeline] [-replay N]
//	filterplan -demo fig1|b1|b2    (run on a built-in paper instance)
//
// -canon canonicalizes the instance before solving (service permutation,
// rational normalization, precedence reduction — see internal/canon) and
// prints the content hash, reproducing exactly what the filterd planning
// service would solve and cache for this instance.
//
// The bnb method (alias branch-bound) is the exact search, and what auto
// runs on small instances: it constructs execution graphs incrementally,
// bounds every partial graph from below (the per-server Cexec maximum and
// the heaviest path, taken on partial structures) and prunes subtrees that
// cannot beat the incumbent seeded by the greedy and hill-climbing
// solutions. It accepts forests to n=7 and DAGs to n=5 and, whether asked
// for by name or dispatched by auto, reports the search effort as nodes
// expanded / candidates evaluated / subtrees pruned. -family restricts the
// searched structural family: the default auto picks the family whose
// optimum is global (forests for period without precedence constraints,
// DAGs otherwise). The optimum among chains needs no search: it is
// greedy-chain's (Prop. 8 and 16).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/canon"
	"repro/internal/cliopt"
	"repro/internal/paperex"
	"repro/internal/rat"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/workflow"
)

func main() {
	var (
		inFile    = flag.String("in", "", "instance file (JSON)")
		demo      = flag.String("demo", "", "built-in instance: fig1, b1, b2")
		modelName = flag.String("model", "overlap", "communication model: overlap, inorder, outorder")
		objective = flag.String("objective", "period", "objective: period or latency")
		method    = flag.String("method", "auto", "search method: auto, greedy-chain, hill-climb, bnb (branch-and-bound)")
		family    = flag.String("family", "auto", "structural family for -method bnb: auto, forest, dag")
		workers   = flag.Int("workers", 0, "worker goroutines for the plan search (0 = all CPUs, 1 = serial; any value returns the same plan)")
		canonical = flag.Bool("canon", false, "canonicalize the instance first (the filterd service form) and print its content hash")
		gantt     = flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
		timeline  = flag.Bool("timeline", false, "print the operation list event by event")
		replay    = flag.Int("replay", 0, "replay the schedule for N data sets and report throughput")
		schedOut  = flag.String("schedule-out", "", "write the schedule (oplist JSON) to this file — comparable bit for bit with filterexec -dump-schedule")
	)
	flag.Parse()

	app, err := loadApp(*inFile, *demo)
	if err != nil {
		fatal(err)
	}
	if *canonical {
		inst, err := canon.Canonicalize(app)
		if err != nil {
			fatal(err)
		}
		app = inst.App()
		fmt.Printf("canonical hash: %s\n", inst.Hash())
	}
	m, err := cliopt.Model(*modelName)
	if err != nil {
		fatal(err)
	}
	meth, err := cliopt.Method(*method)
	if err != nil {
		fatal(err)
	}
	fam, err := cliopt.Family(*family)
	if err != nil {
		fatal(err)
	}
	if fam != solve.FamilyAuto && meth != solve.BranchBound {
		fatal(fmt.Errorf("-family %s requires -method bnb", fam))
	}
	var effort solve.Effort
	opts := solve.Options{Method: meth, Family: fam, Workers: *workers, Effort: &effort}

	obj, err := cliopt.Objective(*objective)
	if err != nil {
		fatal(err)
	}
	var sol solve.Solution
	if obj == solve.PeriodObjective {
		sol, err = solve.MinPeriod(app, m, opts)
	} else {
		sol, err = solve.MinLatency(app, m, opts)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("instance: %d services, model %s, objective %s, method %s\n",
		app.N(), m, *objective, meth)
	fmt.Printf("plan: %s\n", sol.Graph)
	exact := "heuristic (upper bound)"
	if sol.Exact {
		exact = "provably optimal"
	}
	fmt.Printf("%s = %s (%s)\n", *objective, sol.Value, exact)
	fmt.Printf("schedule: period λ = %s, latency = %s, model lower bound = %s\n",
		sol.Sched.List.Period(), sol.Sched.List.Latency(), sol.Sched.LowerBound)
	if effort.Method == solve.BranchBound {
		fmt.Printf("search: %d nodes expanded, %d candidates evaluated, %d subtrees pruned\n",
			effort.Search.Expanded, effort.Search.Evaluated, effort.Search.Pruned)
	}
	fmt.Println()
	fmt.Println(sol.Graph.Describe())

	if *timeline {
		fmt.Println(sol.Sched.List.Timeline())
	}
	if *gantt {
		fmt.Println(sol.Sched.List.Gantt(rat.Zero, 72))
	}
	if *schedOut != "" {
		doc, err := json.Marshal(sol.Sched.List)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*schedOut, append(doc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *replay > 0 {
		tr, err := sim.Replay(sol.Sched.List, *replay)
		if err != nil {
			fatal(err)
		}
		last := tr.N() - 1
		fmt.Printf("replay: %d data sets, first completion at %s, last at %s\n",
			tr.N(), tr.Done[0], tr.Done[last])
		if last > 0 {
			fmt.Printf("replay: steady inter-completion gap %s, per-data-set latency %s\n",
				tr.Gap(last), tr.Latency(last))
		}
	}
}

func loadApp(inFile, demo string) (*workflow.App, error) {
	switch {
	case demo != "":
		switch strings.ToLower(demo) {
		case "fig1":
			return paperex.Fig1App(), nil
		case "b1":
			return paperex.B1App(), nil
		case "b2":
			return paperex.B2App(), nil
		default:
			return nil, fmt.Errorf("unknown demo %q (want fig1, b1 or b2)", demo)
		}
	case inFile != "":
		data, err := os.ReadFile(inFile)
		if err != nil {
			return nil, err
		}
		var app workflow.App
		if err := json.Unmarshal(data, &app); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", inFile, err)
		}
		return &app, nil
	default:
		return nil, fmt.Errorf("need -in FILE or -demo NAME (try -demo fig1)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "filterplan:", err)
	os.Exit(1)
}
