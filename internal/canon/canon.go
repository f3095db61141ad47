// Package canon computes the canonical form and stable content hash of a
// filtering-workflow instance — the cache key of the long-running planning
// service (internal/service, internal/plancache).
//
// Two instance files describe the same planning problem whenever they agree
// up to the three representation freedoms of the model:
//
//   - service permutation: the order services are listed in is arbitrary
//     (indices are names' positions, not identity — names are identity);
//   - rational representation: 2/4, 1/2 and "0.5" are the same cost;
//   - precedence representation: only the transitive CLOSURE of the
//     precedence DAG constrains plans (plan.Build checks closure
//     containment), so edge sets with equal closures are the same
//     constraint set.
//
// Canonicalize normalizes all three: services are permuted into a total
// order keyed by (cost, selectivity, name), rationals are reduced to lowest
// terms (package rat maintains this invariant; the hash serializes the
// reduced num/den form), and the precedence DAG is replaced by its
// transitive reduction — the unique minimal representative of its closure
// class on DAGs. The content hash is a SHA-256 over an unambiguous
// serialization of that canonical form, so it is stable across processes,
// platforms and releases of this repository (golden values are pinned by
// canon_test.go; bump the version tag in the serialization if the format
// ever has to change).
package canon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/workflow"
)

// hashVersion tags the serialized form; bump it if the serialization ever
// changes so stale cache keys cannot alias new ones.
const hashVersion = "filtering-instance/v1"

// Instance is a canonicalized workflow instance: the canonical application
// and its content hash.
type Instance struct {
	app  *workflow.App
	hash string
}

// Canonicalize computes the canonical form of app. The result shares no
// mutable state with app.
func Canonicalize(app *workflow.App) (*Instance, error) {
	if app == nil {
		return nil, fmt.Errorf("canon: nil application")
	}
	n := app.N()
	if n == 0 {
		return nil, fmt.Errorf("canon: empty application")
	}

	// Canonical service order: by cost, then selectivity, then name. Names
	// are unique (workflow.New enforces it), so the order is total and the
	// permutation deterministic.
	byCanon := make([]int, n) // byCanon[canonicalIndex] = originalIndex
	for i := range byCanon {
		byCanon[i] = i
	}
	sort.SliceStable(byCanon, func(a, b int) bool {
		sa, sb := app.Service(byCanon[a]), app.Service(byCanon[b])
		if c := sa.Cost.Cmp(sb.Cost); c != 0 {
			return c < 0
		}
		if c := sa.Selectivity.Cmp(sb.Selectivity); c != 0 {
			return c < 0
		}
		return sa.Name < sb.Name
	})
	perm := make([]int, n)
	for canonical, original := range byCanon {
		perm[original] = canonical
	}

	services := make([]workflow.Service, n)
	for canonical, original := range byCanon {
		services[canonical] = app.Service(original)
	}

	// Precedence: the transitive reduction of the closure class, relabeled
	// through the permutation and sorted, is the canonical edge set.
	reduced, err := app.Precedence().TransitiveReduction()
	if err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	var edges [][2]int
	for _, e := range reduced.Edges() {
		edges = append(edges, [2]int{perm[e[0]], perm[e[1]]})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})

	canonApp, err := workflow.New(services, edges)
	if err != nil {
		return nil, fmt.Errorf("canon: rebuilding canonical app: %w", err)
	}
	return &Instance{app: canonApp, hash: contentHash(canonApp, edges)}, nil
}

// contentHash serializes the canonical form unambiguously and hashes it.
// Every field is delimited (names are quoted as %q would, numbers end in
// "\n", rationals are num/den in lowest terms — the form rat.Rat.Append
// emits), so no two distinct canonical forms serialize identically. Built
// with append/strconv in one buffer: this runs on every request.
func contentHash(app *workflow.App, edges [][2]int) string {
	buf := make([]byte, 0, 64+48*app.N()+16*len(edges))
	buf = append(buf, hashVersion...)
	buf = append(buf, "\nn="...)
	buf = strconv.AppendInt(buf, int64(app.N()), 10)
	buf = append(buf, '\n')
	for i := 0; i < app.N(); i++ {
		s := app.Service(i)
		buf = append(buf, "s "...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, ' ')
		buf = s.Cost.Append(buf)
		buf = append(buf, ' ')
		buf = s.Selectivity.Append(buf)
		buf = append(buf, '\n')
	}
	for _, e := range edges {
		buf = append(buf, "e "...)
		buf = strconv.AppendInt(buf, int64(e[0]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e[1]), 10)
		buf = append(buf, '\n')
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// App returns the canonical application. Callers must not modify it.
func (in *Instance) App() *workflow.App { return in.app }

// Hash returns the hex SHA-256 content hash of the canonical form.
func (in *Instance) Hash() string { return in.hash }
