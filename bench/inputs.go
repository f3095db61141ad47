package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// subSeed derives an independent generator seed from the run seed, a stream
// name and an index, so every workload, client and instance draws its own
// stream and the same -seed always produces the same inputs.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() >> 1)
}

// planBody renders one POST /v1/plan body for app, listing the services in
// the given order. With disguise every rational is written as an unreduced
// fraction (k·num/k·den) and a precedence edge implied by two others is
// added — with the order, the three representation freedoms package canon
// must undo, so a disguised body costs the server real canonicalization
// work while landing on the same hash.
func planBody(rng *rand.Rand, app *workflow.App, order []int, model plan.Model, obj solve.Objective, disguise bool) []byte {
	text := rat.Rat.String
	if disguise {
		text = func(r rat.Rat) string { return unreduced(rng, r) }
	}
	var b bytes.Buffer
	b.WriteString(`{"instance":{"services":[`)
	for k, i := range order {
		if k > 0 {
			b.WriteByte(',')
		}
		s := app.Service(i)
		fmt.Fprintf(&b, `{"name":%q,"cost":%q,"selectivity":%q}`, s.Name, text(s.Cost), text(s.Selectivity))
	}
	b.WriteString(`]`)
	edges := app.Precedence().Edges()
	if disguise {
		if e, ok := impliedEdge(edges); ok {
			edges = append(edges, e)
		}
	}
	if len(edges) > 0 {
		b.WriteString(`,"precedence":[`)
		for k, e := range edges {
			if k > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `[%q,%q]`, app.Name(e[0]), app.Name(e[1]))
		}
		b.WriteString(`]`)
	}
	// Lower-cased like the service's own responses: the wire vocabulary.
	fmt.Fprintf(&b, `},"model":%q,"objective":%q}`, strings.ToLower(model.String()), obj.String())
	return b.Bytes()
}

// unreduced writes r = n/d as (k·n)/(k·d) for a small random k > 1. The
// generated instances have small numerators and denominators; a rational
// beyond int64 is written as it is.
func unreduced(rng *rand.Rand, r rat.Rat) string {
	n, okN := r.Num64()
	d, okD := r.Den64()
	if !okN || !okD {
		return r.String()
	}
	k := int64(2 + rng.Intn(8))
	return fmt.Sprintf("%d/%d", k*n, k*d)
}

// impliedEdge returns an edge u→w for some u→v, v→w in edges that is not
// itself listed: it changes the document, not the constraint set.
func impliedEdge(edges [][2]int) ([2]int, bool) {
	has := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		has[e] = true
	}
	for _, a := range edges {
		for _, b := range edges {
			if a[1] == b[0] && !has[[2]int{a[0], b[1]}] {
				return [2]int{a[0], b[1]}, true
			}
		}
	}
	return [2]int{}, false
}

// rendering is one wire form of a working-set instance: the request body
// and the application it decodes to (for the traced pass's direct calls).
type rendering struct {
	body []byte
	app  *workflow.App
}

// renderings builds count distinct wire forms of app: services permuted,
// rationals unreduced, a redundant precedence edge when one exists.
func renderings(rng *rand.Rand, app *workflow.App, count int, model plan.Model, obj solve.Objective) ([]rendering, error) {
	out := make([]rendering, count)
	for r := range out {
		body := planBody(rng, app, rng.Perm(app.N()), model, obj, true)
		// Decode the body the way the server will, so the traced pass's
		// direct canon call sees exactly the server's input.
		var doc struct {
			Instance json.RawMessage `json:"instance"`
		}
		decoded := new(workflow.App)
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("rendering: %w", err)
		}
		if err := decoded.UnmarshalJSON(doc.Instance); err != nil {
			return nil, fmt.Errorf("rendering: %w", err)
		}
		out[r] = rendering{body: body, app: decoded}
	}
	return out, nil
}

// identityOrder lists 0..n-1.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// servingRequest is the one request shape of the serving and streaming
// workloads: OVERLAP / MINPERIOD with every other parameter at its default,
// the path cmd/filterd and cmd/filterexec take when given no flags.
func servingRequest(app *workflow.App) service.Request {
	return service.Request{App: app, Model: plan.Overlap, Objective: solve.PeriodObjective}
}

// filteringApp generates the n-service instance of the serving and
// streaming workloads (selectivities below 1, the paper's query setting).
func filteringApp(seed int64, n int) *workflow.App {
	return gen.App(gen.NewRand(seed), n, gen.Filtering)
}
