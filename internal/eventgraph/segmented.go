package eventgraph

// Segmented is a timed event graph partitioned into independently
// rebuildable edge segments, the incremental core of the order-search
// prefix bounds: the relaxed graph of a partial order assignment changes
// in exactly one server's segment when a slot is decided or undone, so the
// search patches that segment in place instead of rebuilding every edge.
//
// Feasibility queries run a certified float pre-filter before exact
// arithmetic: every edge weight d − λ·h is enclosed in a certified float
// interval (rat.Interval), and an upward-rounded Bellman-Ford relaxation
// over the upper endpoints that converges to finite values IS an exact
// feasibility certificate — its fixpoint satisfies π(to) ≥ π(from) + w in
// real arithmetic (float values are exact rationals and the rounding is
// directed), i.e. a valid potential function ruling out positive cycles.
// Infeasibility is never certified in float: a run that still changes
// after n rounds may be one ulp of creep, not a positive cycle, so those
// queries fall back to the exact relaxation. The pre-filter therefore
// never decides against the exact answer — TestSegmentedFilterAgreement
// pins it.
//
// Unlike Graph.PotentialsInto a zero-token cycle is no error of its own:
// the relaxed bounds only need admissible answers, a zero-delay deadlock
// cycle simply reports feasible (no prune), and a positive-delay one is
// ErrInfeasible — found by the ordering DFS, before any relaxation pass.

import (
	"fmt"

	"repro/internal/rat"
)

// segment is one independently rebuildable edge list plus two cached
// certified enclosure layers: the per-edge delay enclosures (dLo/dHi,
// invalidated only by a patch — one exact conversion per edge per rebuild)
// and the weight enclosures at wLambda (wLo/wHi, reassembled from the delay
// enclosures in pure float arithmetic whenever the query λ moves).
type segment struct {
	edges   []Edge
	dLo     []float64
	dHi     []float64
	dOK     bool
	wLo     []float64
	wHi     []float64
	wOK     bool
	wLambda rat.Rat
}

// Segmented is not safe for concurrent use; like Graph, each goroutine
// owns one and patches it between queries.
type Segmented struct {
	n    int
	segs []segment
	cur  int

	fpi  []float64 // float relaxation scratch
	pi   []rat.Rat // exact fallback scratch
	flat Graph     // exact fallback: every segment's edges, rebuilt per query

	edgesBuilt int64
}

// NewSegmented returns an empty graph with n nodes and the given number of
// segments.
func NewSegmented(n, segments int) *Segmented {
	s := &Segmented{}
	s.Reset(n, segments)
	return s
}

// Reset empties the graph and resizes it, keeping allocated storage.
func (s *Segmented) Reset(n, segments int) {
	if n < 0 || segments < 0 {
		panic("eventgraph: negative segmented size")
	}
	s.n = n
	if cap(s.segs) < segments {
		segs := make([]segment, segments)
		copy(segs, s.segs)
		s.segs = segs
	}
	s.segs = s.segs[:segments]
	for i := range s.segs {
		s.segs[i].edges = s.segs[i].edges[:0]
		s.segs[i].dOK = false
		s.segs[i].wOK = false
	}
	s.cur = -1
}

// N returns the number of nodes.
func (s *Segmented) N() int { return s.n }

// BeginSegment clears segment i and directs subsequent AddEdge calls into
// it — the patch operation: rebuild exactly one segment, leave the rest.
func (s *Segmented) BeginSegment(i int) {
	if i < 0 || i >= len(s.segs) {
		panic(fmt.Sprintf("eventgraph: segment %d out of range [0,%d)", i, len(s.segs)))
	}
	s.segs[i].edges = s.segs[i].edges[:0]
	s.segs[i].dOK = false
	s.segs[i].wOK = false
	s.cur = i
}

// AddEdge appends one constraint to the segment opened by BeginSegment.
func (s *Segmented) AddEdge(from, to int, delay rat.Rat, tokens int) {
	if s.cur < 0 {
		panic("eventgraph: AddEdge before BeginSegment")
	}
	if from < 0 || from >= s.n || to < 0 || to >= s.n {
		panic(fmt.Sprintf("eventgraph: edge (%d,%d) out of range [0,%d)", from, to, s.n))
	}
	if delay.Sign() < 0 || tokens < 0 {
		panic("eventgraph: negative delay or token count")
	}
	s.segs[s.cur].edges = append(s.segs[s.cur].edges, Edge{From: from, To: to, Delay: delay, Tokens: tokens})
	s.edgesBuilt++
}

// TotalEdges returns the current edge count across all segments — what one
// from-scratch rebuild would have to construct.
func (s *Segmented) TotalEdges() int {
	t := 0
	for i := range s.segs {
		t += len(s.segs[i].edges)
	}
	return t
}

// EdgesBuilt returns the cumulative number of edges constructed over the
// graph's lifetime (Reset included) — the actual incremental build work,
// compared against bounds-evaluated × TotalEdges by experiment E19.
func (s *Segmented) EdgesBuilt() int64 { return s.edgesBuilt }

// weightsAt (re)computes segment i's certified weight enclosures for
// lambda, given lambda's own enclosure. The exact-arithmetic work (delay
// conversion) is cached until the segment is patched; a λ move reassembles
// the weights in float only: the enclosure of w = d − λ·h is
// [dLo − up(h·λHi), dHi − down(h·λLo)] with directed rounding on the
// product and the sum (h is an exact small integer in float64, so one ulp
// step after each operation certifies the direction).
func (s *Segmented) weightsAt(i int, lambda rat.Rat, lamIv rat.Interval) {
	sg := &s.segs[i]
	if sg.wOK && sg.wLambda.Equal(lambda) {
		return
	}
	if !sg.dOK {
		if cap(sg.dLo) < len(sg.edges) {
			sg.dLo = make([]float64, len(sg.edges))
			sg.dHi = make([]float64, len(sg.edges))
		}
		sg.dLo = sg.dLo[:len(sg.edges)]
		sg.dHi = sg.dHi[:len(sg.edges)]
		for j, e := range sg.edges {
			iv := e.Delay.Interval()
			sg.dLo[j], sg.dHi[j] = iv.Lo, iv.Hi
		}
		sg.dOK = true
	}
	if cap(sg.wLo) < len(sg.edges) {
		sg.wLo = make([]float64, len(sg.edges))
		sg.wHi = make([]float64, len(sg.edges))
	}
	sg.wLo = sg.wLo[:len(sg.edges)]
	sg.wHi = sg.wHi[:len(sg.edges)]
	for j := range sg.edges {
		h := float64(sg.edges[j].Tokens)
		if h == 0 {
			sg.wLo[j], sg.wHi[j] = sg.dLo[j], sg.dHi[j]
			continue
		}
		sg.wHi[j] = rat.AddUp(sg.dHi[j], -rat.MulDown(h, lamIv.Lo))
		sg.wLo[j] = rat.AddDown(sg.dLo[j], -rat.MulUp(h, lamIv.Hi))
	}
	sg.wOK = true
	sg.wLambda = lambda
}

// relaxUp runs the upward-rounded relaxation at lambda (lamIv its
// enclosure, computed once per query by the caller). ok reports a finite
// converged fixpoint, in which case s.fpi[v] ≥ the exact potential of node
// v (and the system is exactly feasible).
func (s *Segmented) relaxUp(lambda rat.Rat, lamIv rat.Interval) bool {
	for i := range s.segs {
		s.weightsAt(i, lambda, lamIv)
	}
	if cap(s.fpi) < s.n {
		s.fpi = make([]float64, s.n)
	}
	fpi := s.fpi[:s.n]
	for v := range fpi {
		fpi[v] = 0
	}
	for round := 0; round <= s.n; round++ {
		changed := false
		for i := range s.segs {
			sg := &s.segs[i]
			for j := range sg.edges {
				cand := rat.AddUp(fpi[sg.edges[j].From], sg.wHi[j])
				if cand != cand { // NaN: certification impossible
					return false
				}
				if cand > fpi[sg.edges[j].To] {
					fpi[sg.edges[j].To] = cand
					changed = true
				}
			}
		}
		if !changed {
			for _, v := range fpi {
				if v > maxFinite || v != v {
					return false
				}
			}
			return true
		}
	}
	return false
}

const maxFinite = 1.7976931348623157e308

// FeasibleAt reports whether period lambda admits a schedule of the
// relaxed system. fellBack reports that the float pre-filter could not
// certify the answer and the exact relaxation decided it.
func (s *Segmented) FeasibleAt(lambda rat.Rat) (feasible, fellBack bool) {
	if s.relaxUp(lambda, lambda.Interval()) {
		return true, false
	}
	_, err := s.PotentialsInto(s.pi, lambda)
	return err == nil, true
}

// PotentialsInto is the exact longest-path relaxation over all segments:
// Graph's relaxation on a reused flat copy of the segments, minus the
// zero-token deadlock error (see the package comment on why the relaxed
// bounds don't want it). The buffer is retained on s for reuse when the
// caller passes s.pi back.
func (s *Segmented) PotentialsInto(buf []rat.Rat, lambda rat.Rat) ([]rat.Rat, error) {
	pi, _, err := s.potentials(buf, lambda)
	return pi, err
}

// potentials is PotentialsInto reporting the number of relaxation passes.
func (s *Segmented) potentials(buf []rat.Rat, lambda rat.Rat) ([]rat.Rat, int, error) {
	g := &s.flat
	g.Reset(s.n)
	for i := range s.segs {
		g.edges = append(g.edges, s.segs[i].edges...) // validated by AddEdge
	}
	pi, passes, err := g.potentials(buf, lambda, false)
	s.pi = pi
	return pi, passes, err
}

// LatencyExceeds decides "is the least fixpoint's score strictly above
// limit, or the system infeasible, at λ = lambda" for score = max over the
// given terms of π(node) + add — the one-port latency bound —
// certifying through floats where possible. fellBack reports the exact
// fallback ran.
//
// Certificates: an upward run converging finite gives π̂ ≥ π exactly, so
// score ≤ max(π̂+add.Hi) ≤ limit certifies false; a downward run (lower
// endpoints, downward rounding) converging gives π̌ ≤ π whenever the
// system is feasible, so max(π̌+add.Lo) > limit certifies true — and when
// the system is infeasible, true is the right answer regardless.
func (s *Segmented) LatencyExceeds(lambda, limit rat.Rat, terms []LatencyTerm) (exceeds, fellBack bool) {
	lim, lamIv := limit.Interval(), lambda.Interval()
	if s.relaxUp(lambda, lamIv) {
		hi := -1.0
		for _, t := range terms {
			if v := rat.AddUp(s.fpi[t.node], t.addIv.Hi); v > hi {
				hi = v
			}
		}
		// score ≤ hi; hi ≤ lim.Lo ≤ limit certifies "not exceeded".
		if hi <= lim.Lo {
			return false, false
		}
		if s.relaxDown(lambda, lamIv) {
			lo := -1.0
			for _, t := range terms {
				if v := rat.AddDown(s.fpi[t.node], t.addIv.Lo); v > lo {
					lo = v
				}
			}
			// score ≥ lo; lo > lim.Hi ≥ limit certifies "exceeded".
			if lo > lim.Hi {
				return true, false
			}
		}
	}
	pi, err := s.PotentialsInto(s.pi, lambda)
	if err != nil {
		return true, true
	}
	score := rat.Zero
	for _, t := range terms {
		score = rat.Max(score, pi[t.node].Add(t.add))
	}
	return score.Greater(limit), true
}

// LatencyTerm is one contribution to the latency score of LatencyExceeds:
// π(node) + add. It carries the certified float enclosure of add, computed
// once by NewLatencyTerm, so a bound query converts no constants.
type LatencyTerm struct {
	node  int
	add   rat.Rat
	addIv rat.Interval
}

// NewLatencyTerm returns the term π(node) + add.
func NewLatencyTerm(node int, add rat.Rat) LatencyTerm {
	return LatencyTerm{node: node, add: add, addIv: add.Interval()}
}

// relaxDown runs the downward-rounded relaxation over the lower endpoints.
// On a converged run every value is ≤ the exact potential of a feasible
// system (each update is dominated by the exact fixpoint, by induction).
func (s *Segmented) relaxDown(lambda rat.Rat, lamIv rat.Interval) bool {
	for i := range s.segs {
		s.weightsAt(i, lambda, lamIv)
	}
	if cap(s.fpi) < s.n {
		s.fpi = make([]float64, s.n)
	}
	fpi := s.fpi[:s.n]
	for v := range fpi {
		fpi[v] = 0
	}
	for round := 0; round <= s.n; round++ {
		changed := false
		for i := range s.segs {
			sg := &s.segs[i]
			for j := range sg.edges {
				cand := rat.AddDown(fpi[sg.edges[j].From], sg.wLo[j])
				if cand > fpi[sg.edges[j].To] {
					fpi[sg.edges[j].To] = cand
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}
