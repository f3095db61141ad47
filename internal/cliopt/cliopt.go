// Package cliopt parses the option vocabulary shared by the command-line
// tools and the filterd planning service: communication models, objectives,
// search methods and branch-and-bound families. Parsing is case-insensitive
// and every parser round-trips the String() form of the value it returns,
// so CLI flags, HTTP request fields and report output all speak the same
// names.
package cliopt

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/solve"
)

// Model parses a communication-model name: overlap, inorder, outorder.
func Model(s string) (plan.Model, error) {
	switch strings.ToLower(s) {
	case "overlap":
		return plan.Overlap, nil
	case "inorder":
		return plan.InOrder, nil
	case "outorder":
		return plan.OutOrder, nil
	default:
		return 0, fmt.Errorf("unknown model %q (want overlap, inorder or outorder)", s)
	}
}

// Objective parses an objective name: period or latency.
func Objective(s string) (solve.Objective, error) {
	switch strings.ToLower(s) {
	case "period":
		return solve.PeriodObjective, nil
	case "latency":
		return solve.LatencyObjective, nil
	default:
		return 0, fmt.Errorf("unknown objective %q (want period or latency)", s)
	}
}

// Method parses a search-method name: auto, greedy-chain, hill-climb, bnb
// (alias branch-bound).
func Method(s string) (solve.Method, error) {
	switch strings.ToLower(s) {
	case "auto":
		return solve.Auto, nil
	case "greedy-chain":
		return solve.GreedyChain, nil
	case "hill-climb":
		return solve.HillClimb, nil
	case "bnb", "branch-bound":
		return solve.BranchBound, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}

// Family parses a branch-and-bound structural-family name: auto, forest,
// dag.
func Family(s string) (solve.Family, error) {
	switch strings.ToLower(s) {
	case "auto":
		return solve.FamilyAuto, nil
	case "forest":
		return solve.FamilyForest, nil
	case "dag":
		return solve.FamilyDAG, nil
	default:
		return 0, fmt.Errorf("unknown family %q (want auto, forest or dag)", s)
	}
}
