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
// -exp selects a comma-separated subset of experiment IDs (default: all;
// an ID no experiment has is an error, exit status 2);
// -md emits Markdown tables instead of aligned text; -budget scales the
// random sweeps (1 = smoke run, 2 = the configuration recorded in
// EXPERIMENTS.md); -workers bounds the worker pool the experiments run on
// (0 = all CPUs, 1 = serial — the reports are identical either way).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
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

	reports, err := selectReports(experiments.AllWorkers(*budget, *workers), *expFilter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "filterexp: %v\n", err)
		os.Exit(2)
	}
	failures := 0
	for _, r := range reports {
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

// selectReports keeps the reports whose IDs the comma-separated filter
// names (all of them for an empty filter), in report order; an ID that
// matches no report is an error naming every such ID.
func selectReports(all []experiments.Report, filter string) ([]experiments.Report, error) {
	var ids []string
	for _, id := range strings.Split(filter, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" && !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return all, nil
	}
	var kept []experiments.Report
	for _, r := range all {
		if slices.Contains(ids, r.ID) {
			kept = append(kept, r)
		}
	}
	var unknown []string
	for _, id := range ids {
		if !slices.ContainsFunc(kept, func(r experiments.Report) bool { return r.ID == id }) {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment ID(s): %s", strings.Join(unknown, ","))
	}
	return kept, nil
}
