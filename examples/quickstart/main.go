// Quickstart: build the paper's running example (five services of cost 4
// and selectivity 1), pin its Figure-1 execution graph, and compute the
// optimal schedule under each communication model — reproducing the values
// of §2.3: period 4 (OVERLAP), 7 (OUTORDER), 23/3 (INORDER), latency 21.
// Then let the planner search freely over execution graphs and see it beat
// the fixed graph.
package main

import (
	"fmt"
	"log"

	filtering "repro"
)

func main() {
	// Five identical services: cost 4, selectivity 1, no precedence.
	app := filtering.Uniform(5, filtering.Int(4), filtering.Int(1))

	// The Figure-1 execution graph: C1 → {C2, C4}, C2 → C3, {C3, C4} → C5.
	eg, err := filtering.BuildGraph(app, [][2]int{
		{0, 1}, {0, 3}, {1, 2}, {2, 4}, {3, 4},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== orchestration on the fixed Figure-1 graph (paper §2.3) ==")
	for _, m := range filtering.Models {
		sched, err := filtering.Period(eg, m, filtering.OrchestrateOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  optimal period under %-8s = %6s  (lower bound %s)\n",
			m, sched.Value, sched.LowerBound)
	}
	lat, err := filtering.Latency(eg, filtering.InOrder, filtering.OrchestrateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  optimal latency (any model)  = %6s\n\n", lat.Value)

	fmt.Println("== the paper's INORDER schedule, event by event ==")
	ino, err := filtering.Period(eg, filtering.InOrder, filtering.OrchestrateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ino.List.Timeline())

	fmt.Println("== free plan search: the graph itself is a decision ==")
	for _, m := range filtering.Models {
		sol, err := filtering.MinPeriod(app, m, filtering.SolveOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  best plan under %-8s: period %s with %s\n", m, sol.Value, sol.Graph)
	}

	// Execute the OVERLAP optimum for 20 data sets and confirm the
	// throughput operationally.
	sol, err := filtering.MinPeriod(app, filtering.Overlap, filtering.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := filtering.Replay(sol.Sched.List, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplayed 20 data sets: inter-completion gap %s, per-data-set latency %s\n",
		tr.Gap(19), tr.Latency(19))
}
