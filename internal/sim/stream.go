package sim

// Tuple-stream substrate for the data plane (internal/exec): the
// deterministic filtering verdicts and the serial reference execution the
// concurrent executor is tested against.
//
// The executor's determinism contract — fixed seed ⇒ bit-identical tuple
// verdicts, estimator values and drift-trigger sequence across runs and
// worker counts — rests on one property: a service's verdict on a tuple is
// a pure function of (seed, service name, tuple ID), independent of
// goroutine interleaving, stage wiring, or which plan is currently
// executing. Verdict provides that function; ReferenceStream executes a
// whole stream with it serially, one tuple at a time through the execution
// graph, so the pipelined executor has an independent oracle for its
// counters.

import (
	"math/big"

	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// Threshold converts a selectivity into the acceptance threshold of
// Verdict: floor(sel·2^64), computed exactly. A 64-bit hash drawn
// uniformly is below the threshold with probability sel (up to the 2^-64
// grid). Selectivities ≤ 0 map to 0 (never pass), ≥ 1 to the maximum
// (Verdict special-cases it to always pass).
func Threshold(sel rat.Rat) uint64 {
	if sel.Sign() <= 0 {
		return 0
	}
	if sel.Geq(rat.One) {
		return ^uint64(0)
	}
	// floor(p/q · 2^64) with exact big-integer arithmetic.
	br := sel.Big()
	num := new(big.Int).Lsh(br.Num(), 64)
	num.Quo(num, br.Denom())
	return num.Uint64()
}

// Verdict reports whether the tuple passes a filter whose acceptance
// threshold is Threshold(sel): the deterministic per-(seed, name, tuple)
// hash compared against it. Selectivity ≥ 1 (threshold max) always passes —
// expanding services do not drop tuples.
func Verdict(seed uint64, name string, tuple uint64, threshold uint64) bool {
	if threshold == ^uint64(0) {
		return true
	}
	return TupleHash(seed, name, tuple) < threshold
}

// TupleHash is the pinned 64-bit hash behind Verdict: an FNV-1a pass over
// the service name folded with the seed (NameHash), then a splitmix64
// finalizer over the tuple ID (Finalise). The function is part of the
// determinism contract — golden values are pinned by tests, so any change
// is a deliberate, verdict-breaking one.
func TupleHash(seed uint64, name string, tuple uint64) uint64 {
	return Finalise(NameHash(seed, name), tuple)
}

// NameHash is the per-(seed, service) half of TupleHash: everything that
// does not depend on the tuple. A tuple loop computes it once per service.
func NameHash(seed uint64, name string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset) ^ seed
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	return h
}

// Finalise is the per-tuple half of TupleHash: the splitmix64 finalizer
// over the name hash advanced by the tuple index.
func Finalise(nameHash, tuple uint64) uint64 {
	const golden = 0x9E3779B97F4A7C15
	z := nameHash + (tuple+1)*golden
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// StreamCounts are the per-service tuple counters of one executed stream
// segment: In counts tuples a service evaluated (every graph ancestor
// passed them), Out the subset it passed, Emitted the survivors — tuples
// alive at every exit service, i.e. passed by every service that saw them
// on every path to the output.
type StreamCounts struct {
	In      map[string]uint64
	Out     map[string]uint64
	Emitted uint64
}

// ReferenceStream executes tuples [first, first+n) serially through the
// execution graph: tuple t reaches service v iff every ancestor of v
// passed t, v's own Verdict uses the threshold of truth (the service's true
// selectivity; missing entries default to the declared one), and t is
// emitted iff it stays alive through every exit. This is the oracle the
// concurrent executor's counters are compared against — same verdict
// function, trivially sequential evaluation.
func ReferenceStream(app *workflow.App, eg *plan.ExecGraph, seed uint64, first, n uint64, truth map[string]rat.Rat) StreamCounts {
	nv := app.N()
	counts := StreamCounts{
		In:  make(map[string]uint64, nv),
		Out: make(map[string]uint64, nv),
	}
	topo := eg.Topo()
	thresholds := make([]uint64, nv)
	for v := 0; v < nv; v++ {
		sel := app.Selectivity(v)
		if t, ok := truth[app.Name(v)]; ok {
			sel = t
		}
		thresholds[v] = Threshold(sel)
	}
	pass := make([]bool, nv) // alive after v, this tuple
	for t := first; t < first+n; t++ {
		for _, v := range topo {
			alive := true
			for _, p := range eg.Graph().Pred(v) {
				if !pass[p] {
					alive = false
					break
				}
			}
			if alive {
				name := app.Name(v)
				counts.In[name]++
				alive = Verdict(seed, name, t, thresholds[v])
				if alive {
					counts.Out[name]++
				}
			}
			pass[v] = alive
		}
		emitted := true
		for v := 0; v < nv; v++ {
			if eg.Graph().OutDegree(v) == 0 && !pass[v] {
				emitted = false
				break
			}
		}
		if nv > 0 && emitted {
			counts.Emitted++
		}
	}
	return counts
}
