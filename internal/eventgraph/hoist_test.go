package eventgraph

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// Differential tests for the relaxation: PotentialsInto (both forms) and
// Howard's value updates compute an edge's weight delay − λ·tokens once and
// add it, where they used to evaluate (π(from) + delay) − λ·tokens for every
// edge in every round; and PotentialsInto relaxes sources in topological
// order of the zero-token edges, where it used to relax edges in insertion
// order. Exact rationals are associative and the least fixpoint is unique,
// so nothing may move but the number of passes.

// potentialsRef is the relaxation as it was before both changes, the
// per-round formula over a flat edge list in insertion order. Callers add
// the zero-token pre-check.
func potentialsRef(n int, edges []Edge, lambda rat.Rat) ([]rat.Rat, error) {
	pi := make([]rat.Rat, n)
	for i := range pi {
		pi[i] = rat.Zero
	}
	for round := 0; round <= n; round++ {
		changed := false
		for _, e := range edges {
			bound := pi[e.From].Add(e.Delay).Sub(lambda.MulInt(int64(e.Tokens)))
			if bound.Greater(pi[e.To]) {
				pi[e.To] = bound
				changed = true
			}
		}
		if !changed {
			return pi, nil
		}
	}
	return pi, ErrInfeasible
}

// sameRats reports value AND representation equality (the canonical form
// renders one way).
func sameRats(a, b []rat.Rat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// hoistGraph draws an event graph with multi-token edges and fractional
// delays; one in eight may close a zero-token cycle (the deadlock error
// path).
func hoistGraph(rng *rand.Rand) *Graph {
	n := 2 + rng.Intn(7)
	g := New(n)
	deadlocks := rng.Intn(8) == 0
	for i := 1 + rng.Intn(3*n); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		delay := rat.New(rng.Int63n(60), 1+rng.Int63n(12))
		tokens := rng.Intn(5)
		if tokens == 0 && u >= v && !(deadlocks && u != v) {
			tokens = 1
		}
		g.AddEdge(u, v, delay, tokens)
	}
	return g
}

// hoistLambdas returns query periods on both sides of the graph's maximum
// cycle ratio, and the ratio itself.
func hoistLambdas(rng *rand.Rand, g *Graph) []rat.Rat {
	ls := []rat.Rat{rat.Zero, rat.New(rng.Int63n(400), 1+rng.Int63n(9)), rat.New(rng.Int63n(40), 1+rng.Int63n(30))}
	if mcr, err := g.MaxCycleRatio(); err == nil {
		ls = append(ls, mcr, mcr.Sub(rat.New(1, 1+rng.Int63n(1000))), mcr.Add(rat.New(1, 1+rng.Int63n(1000))))
	}
	return ls
}

// zeroTokenDAG draws an event graph whose edges all carry no token and go
// forward in a random node order: a DAG, the latency graphs' shape.
func zeroTokenDAG(rng *rand.Rand) *Graph {
	n := 2 + rng.Intn(9)
	g := New(n)
	perm := rng.Perm(n)
	for i := rng.Intn(3 * n); i > 0; i-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		g.AddEdge(perm[a], perm[b], rat.New(rng.Int63n(60), 1+rng.Int63n(12)), 0)
	}
	return g
}

func TestPotentialsMatchPerRoundFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	feasible, infeasible, deadlock, dags := 0, 0, 0, 0
	var buf []rat.Rat
	for trial := 0; trial < 800; trial++ {
		g := hoistGraph(rng)
		if trial%4 == 3 {
			g = zeroTokenDAG(rng)
			dags++
		}
		for _, lambda := range hoistLambdas(rng, g) {
			want, wantErr := []rat.Rat(nil), g.checkZeroTokenAcyclic()
			if wantErr == nil {
				want, wantErr = potentialsRef(g.n, g.edges, lambda)
			}
			got, err := g.PotentialsInto(buf, lambda)
			buf = got
			if err != wantErr {
				t.Fatalf("trial %d λ=%s: error %v, per-round formula %v", trial, lambda, err, wantErr)
			}
			switch err {
			case nil:
				feasible++
				if !sameRats(got, want) {
					t.Fatalf("trial %d λ=%s: potentials %v, per-round formula %v", trial, lambda, got, want)
				}
			case ErrInfeasible:
				infeasible++
			default:
				deadlock++
			}
		}
	}
	if feasible == 0 || infeasible == 0 || deadlock == 0 || dags == 0 {
		t.Fatalf("corpus misses a case: %d feasible, %d infeasible, %d deadlocked, %d zero-token DAGs", feasible, infeasible, deadlock, dags)
	}
}

// TestZeroTokenDAGOnePass: without token edges the topological order makes
// the first pass the fixpoint — no confirming pass, on a Graph and on a
// Segmented holding the same edges spread over its segments.
func TestZeroTokenDAGOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 300; trial++ {
		g := zeroTokenDAG(rng)
		s := NewSegmented(g.n, 1+rng.Intn(3))
		for i := range s.segs {
			s.BeginSegment(i)
			for j := i; j < len(g.edges); j += len(s.segs) {
				e := g.edges[j]
				s.AddEdge(e.From, e.To, e.Delay, e.Tokens)
			}
		}
		lambda := rat.New(rng.Int63n(50), 1+rng.Int63n(5))
		want, _ := potentialsRef(g.n, g.edges, lambda)
		for name, run := range map[string]func() ([]rat.Rat, int, error){
			"Graph":     func() ([]rat.Rat, int, error) { return g.potentials(nil, lambda, true) },
			"Segmented": func() ([]rat.Rat, int, error) { return s.potentials(nil, lambda) },
		} {
			got, passes, err := run()
			if err != nil || passes != 1 || !sameRats(got, want) {
				t.Fatalf("trial %d %s: %d passes, err %v, potentials %v; want 1 pass, %v", trial, name, passes, err, got, want)
			}
		}
	}
}

// TestSegmentedPotentialsMatchPerRoundFormula holds the segmented relaxation
// to the reference on multi-token edges, on λ below, at and above the
// maximum cycle ratio, and on zero-token cycles — the relaxed bound graphs'
// deadlocks, which are no error here: zero delay converges, positive delay
// is infeasible at once (the reference: after n + 1 rounds).
func TestSegmentedPotentialsMatchPerRoundFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	feasible, infeasible, zeroCycles, positiveCycles := 0, 0, 0, 0
	for trial := 0; trial < 800; trial++ {
		s := randSegmented(rng)
		// Multi-token edges too: the generator's own carry at most one.
		s.BeginSegment(rng.Intn(len(s.segs)))
		for i := rng.Intn(6); i > 0; i-- {
			s.AddEdge(rng.Intn(s.n), rng.Intn(s.n), rat.New(rng.Int63n(60), 1+rng.Int63n(12)), 1+rng.Intn(4))
		}
		if trial%3 == 2 {
			// Close a zero-token cycle through k nodes; one in two carries
			// a positive delay.
			positive := rng.Intn(2) == 0
			perm := rng.Perm(s.n)[:1+rng.Intn(s.n)]
			for i, from := range perm {
				delay := rat.Zero
				if positive && i == 0 {
					delay = rat.New(1+rng.Int63n(9), 1+rng.Int63n(4))
				}
				s.AddEdge(from, perm[(i+1)%len(perm)], delay, 0)
			}
			if positive {
				positiveCycles++
			} else {
				zeroCycles++
			}
		}
		g := New(s.n) // the same edges, flat
		for i := range s.segs {
			for _, e := range s.segs[i].edges {
				g.AddEdge(e.From, e.To, e.Delay, e.Tokens)
			}
		}
		for _, lambda := range hoistLambdas(rng, g) {
			want, wantErr := potentialsRef(s.n, g.edges, lambda)
			got, err := s.PotentialsInto(s.pi, lambda)
			if err != wantErr {
				t.Fatalf("trial %d λ=%s: error %v, per-round formula %v", trial, lambda, err, wantErr)
			}
			if err != nil {
				infeasible++
				continue
			}
			feasible++
			if !sameRats(got, want) {
				t.Fatalf("trial %d λ=%s: potentials %v, per-round formula %v", trial, lambda, got, want)
			}
		}
	}
	if feasible == 0 || infeasible == 0 || zeroCycles == 0 || positiveCycles == 0 {
		t.Fatalf("corpus misses a case: %d feasible, %d infeasible, %d zero-delay and %d positive zero-token cycles",
			feasible, infeasible, zeroCycles, positiveCycles)
	}
}

// TestMCRUnmovedByHoist holds Howard's iteration to the per-round formula:
// the critical cycle is closed and sums to zero under the old weight
// expression at λ = ratio, the ratio is the exact feasibility threshold of
// the reference relaxation, and the whole stream of (error, ratio, critical
// cycle) answers over the corpus hashes to the value the pre-hoist code
// (commit 6f098b7) produced — the tie-break among equal-ratio policy cycles
// included.
func TestMCRUnmovedByHoist(t *testing.T) {
	const preHoistDigest = 0x242d98af58534954 // recorded at 6f098b7 by this very loop
	rng := rand.New(rand.NewSource(47))
	digest := fnv.New64a()
	for trial := 0; trial < 600; trial++ {
		g := hoistGraph(rng)
		res, err := g.MaximumCycleRatio()
		ratio, err2 := g.MaxCycleRatio()
		if err != err2 || (err == nil && !sameRats([]rat.Rat{ratio}, []rat.Rat{res.Ratio})) {
			t.Fatalf("trial %d: MaxCycleRatio (%s, %v) disagrees with MaximumCycleRatio (%s, %v)", trial, ratio, err2, res.Ratio, err)
		}
		fmt.Fprintf(digest, "%d %v %s %v\n", trial, err, res.Ratio, res.CriticalCycle)
		if err != nil {
			continue
		}
		sum, at := rat.Zero, g.edges[res.CriticalCycle[0]].From
		for _, ei := range res.CriticalCycle {
			e := g.edges[ei]
			if e.From != at {
				t.Fatalf("trial %d: critical cycle %v is not a walk", trial, res.CriticalCycle)
			}
			sum, at = sum.Add(e.Delay).Sub(res.Ratio.MulInt(int64(e.Tokens))), e.To
		}
		if at != g.edges[res.CriticalCycle[0]].From || !sum.IsZero() {
			t.Fatalf("trial %d: critical cycle %v does not close at ratio %s (residual %s)", trial, res.CriticalCycle, res.Ratio, sum)
		}
		if _, err := potentialsRef(g.n, g.edges, res.Ratio); err != nil {
			t.Fatalf("trial %d: reference relaxation infeasible at the ratio %s", trial, res.Ratio)
		}
		if _, err := potentialsRef(g.n, g.edges, res.Ratio.Sub(rat.New(1, 1000003))); err == nil {
			t.Fatalf("trial %d: reference relaxation feasible below the ratio %s", trial, res.Ratio)
		}
	}
	if got := digest.Sum64(); got != preHoistDigest {
		t.Fatalf("answer stream digest %#x, pre-hoist code produced %#x", got, uint64(preHoistDigest))
	}
}

// TestPotentialsIntoAllocBudget: once the weight vector and the caller's
// begin-time buffer have grown to the graph's size, a relaxation allocates
// nothing — on a Graph and on a Segmented, feasible or not.
func TestPotentialsIntoAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := hoistGraph(rng)
	for g.checkZeroTokenAcyclic() != nil {
		g = hoistGraph(rng)
	}
	s := randSegmented(rng)
	lambdas := []rat.Rat{rat.New(997, 3), rat.New(1, 7)} // a converging and a diverging relaxation
	var buf []rat.Rat
	run := func() {
		for _, l := range lambdas {
			buf, _ = g.PotentialsInto(buf, l)
			s.PotentialsInto(s.pi, l)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("warm PotentialsInto allocated %.1f times per run, want 0", allocs)
	}
}
