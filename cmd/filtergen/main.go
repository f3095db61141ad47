// Command filtergen emits random filtering-workflow instance files (JSON)
// for use with filterplan and the library.
//
// Usage:
//
//	filtergen -n 12 [-seed 42] [-profile filtering|mixed|expanding|neutral]
//	          [-prec 0.2] [-o instance.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/gen"
)

func main() {
	var (
		n       = flag.Int("n", 10, "number of services")
		seed    = flag.Int64("seed", 1, "random seed")
		profile = flag.String("profile", "filtering", "selectivity profile: filtering, mixed, expanding, neutral")
		prec    = flag.Float64("prec", 0, "precedence-constraint density in [0,1]")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var p gen.Profile
	switch strings.ToLower(*profile) {
	case "filtering":
		p = gen.Filtering
	case "mixed":
		p = gen.Mixed
	case "expanding":
		p = gen.Expanding
	case "neutral":
		p = gen.Neutral
	default:
		fmt.Fprintf(os.Stderr, "filtergen: unknown profile %q\n", *profile)
		os.Exit(1)
	}
	if *n < 1 {
		fmt.Fprintln(os.Stderr, "filtergen: need n >= 1")
		os.Exit(1)
	}
	rng := gen.NewRand(*seed)
	app := gen.AppWithPrecedence(rng, *n, p, *prec)
	data, err := json.MarshalIndent(app, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "filtergen:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "filtergen:", err)
		os.Exit(1)
	}
}
