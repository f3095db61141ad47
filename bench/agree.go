package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// runAgree runs the end-to-end pass of every workload twice with the same
// seed and compares each metric of the second run with the first: two run
// sets of the same code must agree within the bound the benchmark itself
// sets, or the bound means nothing. Returns the process exit status.
func runAgree(cfg runConfig) (int, error) {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		return 1, err
	}
	status := 0
	for _, w := range workloads {
		var runs [2]report
		for i := range runs {
			if runs[i], err = runEndToEnd(w, cfg); err != nil {
				return 1, err
			}
			if runs[i].failed > 0 {
				runs[i].print()
				status = 1
			}
		}
		for _, def := range mf.EndToEnd {
			a, b := runs[0].metrics[def.Name], runs[1].metrics[def.Name]
			gap := math.Abs(b-a) / a
			verdict := "ok"
			if gap > def.Bound {
				verdict = "DISAGREE"
				status = 1
			}
			fmt.Printf("%-15s %-12s %14.4f %14.4f %s  gap %5.1f%%  bound %4.1f%%  %s\n",
				w.name, def.Name, a, b, def.Unit, 100*gap, 100*def.Bound, verdict)
		}
	}
	return status, nil
}
