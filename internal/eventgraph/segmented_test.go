package eventgraph

import (
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// randSegmented builds a random segmented graph and the equivalent flat
// exact relaxation (same edges, no zero-token pre-check semantics needed:
// the generator never closes zero-token cycles).
func randSegmented(rng *rand.Rand) *Segmented {
	n := 2 + rng.Intn(6)
	segs := 1 + rng.Intn(4)
	s := NewSegmented(n, segs)
	for i := 0; i < segs; i++ {
		s.BeginSegment(i)
		for e := rng.Intn(2 * n); e > 0; e-- {
			from, to := rng.Intn(n), rng.Intn(n)
			delay := rat.New(rng.Int63n(50), 1+rng.Int63n(7))
			tokens := 0
			if to <= from || rng.Intn(3) == 0 {
				tokens = 1 // forward zero-token edges only: no deadlock cycles
			}
			s.AddEdge(from, to, delay, tokens)
		}
	}
	return s
}

// exactFeasible is the reference decision: the segmented graph's own exact
// relaxation (shared by the fallback path, so the test pins that the float
// certificate never contradicts it).
func exactFeasible(s *Segmented, lambda rat.Rat) bool {
	_, err := s.PotentialsInto(nil, lambda)
	return err == nil
}

// TestSegmentedFilterAgreement is the pre-filter soundness property: on
// every query, a certified answer (fellBack == false) must equal the exact
// decision, and fallbacks must still return the exact decision.
func TestSegmentedFilterAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	certified, fallbacks := 0, 0
	for trial := 0; trial < 400; trial++ {
		s := randSegmented(rng)
		for q := 0; q < 8; q++ {
			lambda := rat.New(rng.Int63n(200), 1+rng.Int63n(9))
			want := exactFeasible(s, lambda)
			got, fellBack := s.FeasibleAt(lambda)
			if got != want {
				t.Fatalf("trial %d λ=%s: FeasibleAt=%v (fellBack=%v), exact=%v", trial, lambda, got, fellBack, want)
			}
			if fellBack {
				fallbacks++
			} else {
				certified++
				if !got {
					t.Fatalf("trial %d λ=%s: infeasible must never be float-certified", trial, lambda)
				}
			}
		}
	}
	if certified == 0 {
		t.Fatal("pre-filter never certified anything: the fast path is dead")
	}
	t.Logf("%d certified, %d fallbacks", certified, fallbacks)
}

// TestSegmentedPatchMatchesRebuild pins the incremental contract: patching
// one segment leaves the graph equal to a from-scratch build of the same
// edge sets, for both the filter and the exact potentials.
func TestSegmentedPatchMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		s := randSegmented(rng)
		n := s.N()
		// Snapshot, patch one segment with new random edges, and rebuild a
		// fresh graph with identical contents.
		target := rng.Intn(len(s.segs))
		s.BeginSegment(target)
		for e := rng.Intn(2 * n); e > 0; e-- {
			from, to := rng.Intn(n), rng.Intn(n)
			tokens := 0
			if to <= from || rng.Intn(3) == 0 {
				tokens = 1
			}
			s.AddEdge(from, to, rat.New(rng.Int63n(50), 1+rng.Int63n(7)), tokens)
		}
		fresh := NewSegmented(n, len(s.segs))
		for i := range s.segs {
			fresh.BeginSegment(i)
			for _, e := range s.segs[i].edges {
				fresh.AddEdge(e.From, e.To, e.Delay, e.Tokens)
			}
		}
		for q := 0; q < 4; q++ {
			lambda := rat.New(rng.Int63n(200), 1+rng.Int63n(9))
			pa, ea := s.PotentialsInto(nil, lambda)
			pb, eb := fresh.PotentialsInto(nil, lambda)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("trial %d λ=%s: patched err=%v, rebuilt err=%v", trial, lambda, ea, eb)
			}
			if ea != nil {
				continue
			}
			for v := 0; v < n; v++ {
				if !pa[v].Equal(pb[v]) {
					t.Fatalf("trial %d λ=%s node %d: patched π=%s, rebuilt π=%s", trial, lambda, v, pa[v], pb[v])
				}
			}
		}
	}
}

// TestSegmentedLatencyExceeds pins LatencyExceeds against the exact
// fallback decision recomputed independently.
func TestSegmentedLatencyExceeds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		s := randSegmented(rng)
		n := s.N()
		terms := make([]LatencyTerm, 1+rng.Intn(3))
		for i := range terms {
			terms[i] = NewLatencyTerm(rng.Intn(n), rat.New(rng.Int63n(20), 1+rng.Int63n(5)))
		}
		lambda := rat.One
		limit := rat.New(rng.Int63n(300), 1+rng.Int63n(4))
		var want bool
		if pi, err := s.PotentialsInto(nil, lambda); err != nil {
			want = true
		} else {
			score := rat.Zero
			for _, tm := range terms {
				score = rat.Max(score, pi[tm.node].Add(tm.add))
			}
			want = score.Greater(limit)
		}
		got, _ := s.LatencyExceeds(lambda, limit, terms)
		if got != want {
			t.Fatalf("trial %d limit=%s: LatencyExceeds=%v, exact=%v", trial, limit, got, want)
		}
	}
}
