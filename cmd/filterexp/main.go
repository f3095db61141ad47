// Command filterexp regenerates every experiment of the reproduction: the
// paper's worked example, the three counter-examples, the polynomial
// special cases, the structural theorem, the NP-hardness gadgets, the
// simulation studies, and the branch-and-bound pruning study (E15: nodes
// expanded vs full enumeration per structural family). No report carries
// a wall-clock number, so the output is deterministic: from its first
// "### " heading on, EXPERIMENTS.md is exactly `filterexp -md -budget 2`
// (internal/experiments' TestExperimentsMatchRecord enforces it).
//
// Usage:
//
//	filterexp [-exp E1,E4] [-md] [-budget N] [-workers N]
//
// -exp selects a comma-separated subset of experiment IDs (default: all);
// -md emits Markdown tables instead of aligned text; -budget scales the
// random sweeps (1 = smoke run, 2 = the configuration recorded in
// EXPERIMENTS.md); -workers bounds the worker pool the experiments run on
// (0 = all CPUs, 1 = serial — the reports are identical either way).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		expFilter = flag.String("exp", "", "comma-separated experiment IDs to run (default all)")
		markdown  = flag.Bool("md", false, "emit Markdown tables")
		budget    = flag.Int("budget", 1, "sweep size multiplier (1 = smoke, 2 = full)")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = all CPUs, 1 = serial)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*expFilter, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}

	failures := 0
	for _, r := range experiments.AllWorkers(*budget, *workers) {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		if !r.OK {
			failures++
		}
		if *markdown {
			fmt.Print(r.Markdown())
		} else {
			fmt.Print(r.String())
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "filterexp: %d experiment(s) failed to reproduce\n", failures)
		os.Exit(1)
	}
}
