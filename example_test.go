package filtering_test

import (
	"fmt"

	filtering "repro"
)

// Reproduce the paper's §2.3 example: orchestrate the Figure-1 execution
// graph under each communication model.
func Example() {
	app := filtering.Uniform(5, filtering.Int(4), filtering.Int(1))
	eg, err := filtering.BuildGraph(app, [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 4}, {3, 4}})
	if err != nil {
		panic(err)
	}
	for _, m := range filtering.Models {
		sched, err := filtering.Period(eg, m, filtering.OrchestrateOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %s\n", m, sched.Value)
	}
	// Output:
	// OVERLAP: 4
	// INORDER: 23/3
	// OUTORDER: 7
}

// Optimize a small query plan end to end and execute it.
func ExampleMinPeriod() {
	app, err := filtering.NewApp([]filtering.Service{
		{Name: "probe", Cost: filtering.Int(1), Selectivity: filtering.NewRat(1, 2)},
		{Name: "score", Cost: filtering.Int(4), Selectivity: filtering.Int(1)},
		{Name: "rank", Cost: filtering.Int(2), Selectivity: filtering.Int(1)},
	}, nil)
	if err != nil {
		panic(err)
	}
	sol, err := filtering.MinPeriod(app, filtering.Overlap, filtering.SolveOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("period:", sol.Value)
	tr, err := filtering.Replay(sol.Sched.List, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("completion gap:", tr.Gap(2))
	// Output:
	// period: 2
	// completion gap: 2
}

// The greedy chain of Proposition 16 minimizes latency among chain plans.
func ExampleMinLatency() {
	app := filtering.Uniform(4, filtering.Int(3), filtering.NewRat(1, 2))
	sol, err := filtering.MinLatency(app, filtering.InOrder, filtering.SolveOptions{
		Method: filtering.GreedyChain,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("chain latency:", sol.Value)
	// Output:
	// chain latency: 121/16
}
