package orchestrate

// The one-port latency evaluator's two lanes: scaled int64 durations
// (intLane) and the exact-rational event graph it falls back to. The
// rational lane is the oracle: on every assignment the search can score or
// bound, the integer lane must give the same value, the same deadlock and
// the same pruning decision, and it must be taken exactly when the plan's
// durations fit it.

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
)

// lanesAgree checks one assignment, partial when the decided flags leave
// sides open (nil flags: complete): the relaxed latency and its error, and
// exceeds at every limit.
func lanesAgree(t testing.TB, name string, ints, rats *onePortEval, o Orders, decIn, decOut []bool, limits []rat.Rat) {
	t.Helper()
	ints.build(o, decIn, decOut)
	iv, ierr := ints.latency()
	rats.build(o, decIn, decOut)
	rv, rerr := rats.latency()
	if ierr != rerr || !iv.Equal(rv) {
		t.Fatalf("%s: int lane %s (%v), rational lane %s (%v)", name, iv, ierr, rv, rerr)
	}
	for _, l := range limits {
		if a, b := ints.exceeds(o, decIn, decOut, l), rats.exceeds(o, decIn, decOut, l); a != b {
			t.Fatalf("%s: exceeds(%s): int lane %v, rational lane %v", name, l, a, b)
		}
	}
}

// valuesAgree checks value() on a complete assignment and returns it.
func valuesAgree(t testing.TB, name string, ints, rats *onePortEval, o Orders) (rat.Rat, error) {
	t.Helper()
	iv, ierr := ints.value(o)
	rv, rerr := rats.value(o)
	if ierr != rerr || !iv.Equal(rv) {
		t.Fatalf("%s: value: int lane %s (%v), rational lane %s (%v)", name, iv, ierr, rv, rerr)
	}
	return rv, rerr
}

// lanePair returns w's search evaluator, which must be on the integer
// lane, and its rational-lane twin, and checks that their floors agree.
func lanePair(t testing.TB, name string, w *plan.Weighted) (ints, rats *onePortEval) {
	t.Helper()
	ints, rats = newOnePortEval(w), newRatOnePortEval(w)
	if ints.lane == nil {
		t.Fatalf("%s: the plan's durations fit the integer lane, but the evaluator fell back", name)
	}
	if rats.lane != nil || !ints.floor().Equal(rats.floor()) {
		t.Fatalf("%s: floor: int lane %s, rational lane %s", name, ints.floor(), rats.floor())
	}
	return ints, rats
}

// openFlags returns decided flags with every slot side open.
func openFlags(w *plan.Weighted, slots []slotRef) (decIn, decOut []bool) {
	decIn, decOut = make([]bool, w.N()), make([]bool, w.N())
	for v := range decIn {
		decIn[v], decOut[v] = true, true
	}
	for _, s := range slots {
		setSide(decIn, decOut, s, false)
	}
	return decIn, decOut
}

func setSide(decIn, decOut []bool, s slotRef, d bool) {
	if s.out {
		decOut[s.server] = d
	} else {
		decIn[s.server] = d
	}
}

// optLimits returns the optimum and 0.9 × it, or nothing when no
// assignment is feasible.
func optLimits(opt rat.Rat, found bool) []rat.Rat {
	if !found {
		return nil
	}
	return []rat.Rat{opt, opt.Mul(rat.New(9, 10))}
}

// walkLanes holds the lanes together on every complete assignment of w
// and on every partial one the exhaustive search can bound — the first k
// slots fixed in enumeration order, the rest open — at the optimum and at
// 0.9 × it. It returns the number of complete assignments.
func walkLanes(t testing.TB, name string, w *plan.Weighted) int {
	ints, rats := lanePair(t, name, w)
	var opt rat.Rat
	found := false
	forEachOrders(w, func(o Orders) bool {
		if v, err := rats.value(o); err == nil && (!found || v.Less(opt)) {
			opt, found = v, true
		}
		return true
	})
	limits := optLimits(opt, found)
	orders := DefaultOrders(w)
	slots := collectSlots(orders)
	decIn, decOut := openFlags(w, slots)
	lanesAgree(t, name+" all open", ints, rats, orders, decIn, decOut, limits)
	leaves := 0
	var rec func(si int)
	rec = func(si int) {
		if si == len(slots) {
			leaves++
			valuesAgree(t, name, ints, rats, orders)
			lanesAgree(t, name, ints, rats, orders, nil, nil, limits)
			return
		}
		permute(slots[si].side, 0, func() bool {
			setSide(decIn, decOut, slots[si], true)
			lanesAgree(t, fmt.Sprintf("%s prefix %d", name, si+1), ints, rats, orders, decIn, decOut, limits)
			rec(si + 1)
			setSide(decIn, decOut, slots[si], false)
			return true
		})
	}
	rec(0)
	return leaves
}

// seedLanes holds the lanes together where the order space is too large
// to walk: on the heuristic path's seed orders and their prefixes, at the
// best seed and at 0.9 × it.
func seedLanes(t testing.TB, name string, w *plan.Weighted) {
	ints, rats := lanePair(t, name, w)
	seeds := heuristicOrderSeeds(w)
	var best rat.Rat
	found := false
	for _, o := range seeds {
		if v, err := valuesAgree(t, name, ints, rats, o); err == nil && (!found || v.Less(best)) {
			best, found = v, true
		}
	}
	limits := optLimits(best, found)
	for i, o := range seeds {
		slots := collectSlots(o)
		decIn, decOut := openFlags(w, slots)
		for k := 0; k <= len(slots); k++ {
			if k > 0 {
				setSide(decIn, decOut, slots[k-1], true)
			}
			lanesAgree(t, fmt.Sprintf("%s seed %d prefix %d", name, i, k), ints, rats, o, decIn, decOut, limits)
		}
	}
}

// TestOnePortLanesAgree is the differential oracle of the integer lane on
// gen.Weighted plans of 4–8 services at densities 0.3–0.7: every order
// assignment of the plans with at most 4096 of them, every partial
// assignment the search can bound, and the heuristic seeds of the larger
// ones.
func TestOnePortLanesAgree(t *testing.T) {
	walked := 0
	for n := 4; n <= 8; n++ {
		for _, density := range []float64{0.3, 0.5, 0.7} {
			for seed := int64(0); seed < 5; seed++ {
				w := gen.Weighted(gen.NewRand(100*int64(n)+seed), n, density)
				name := fmt.Sprintf("n=%d density=%.1f seed=%d", n, density, seed)
				if orderCombinations(w, 4096) <= 4096 {
					walked += walkLanes(t, name, w)
				} else {
					seedLanes(t, name, w)
				}
			}
		}
	}
	t.Logf("%d complete assignments walked", walked)
	if walked < 4000 {
		t.Fatalf("only %d complete assignments walked: the corpus no longer exercises the lanes", walked)
	}
}

// plantedPlan is a non-forest plan of four services (16 order
// assignments) with the given durations: comp per service, then the
// volumes of its eight edges.
func plantedPlan(t testing.TB, durs []rat.Rat) *plan.Weighted {
	t.Helper()
	edges := []plan.Edge{
		{From: plan.In, To: 0}, {From: plan.In, To: 1},
		{From: 0, To: 2}, {From: 1, To: 2}, {From: 0, To: 3}, {From: 1, To: 3},
		{From: 2, To: plan.Out}, {From: 3, To: plan.Out},
	}
	w, err := plan.NewWeighted(nil, durs[:4], edges, durs[4:])
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// plantedDurations returns the twelve durations of plantedPlan: all 1
// except the first, which is first.
func plantedDurations(first rat.Rat) []rat.Rat {
	durs := make([]rat.Rat, 12)
	for i := range durs {
		durs[i] = rat.One
	}
	durs[0] = first
	return durs
}

// laneCap is the integer lane's documented cap on the sum of the scaled
// durations, spelled out here independently of maxLaneSum.
const laneCap = 1 << 62

// overflowPlans are planted plans outside the integer lane: durations
// whose denominators are large coprimes (their lcm overflows int64),
// integer durations summing to laneCap + 1, and durations summing to less
// than laneCap whose scaling by the denominator 3 does not.
func overflowPlans(t testing.TB) map[string]*plan.Weighted {
	// Services 0 and 1 are never on one path, so every begin time keeps a
	// denominator below 2^32 and the rational lane stays on int64 too.
	coprime := plantedDurations(rat.New(1, 4294967291))
	coprime[1] = rat.New(3, 4294967279)
	scaled := plantedDurations(rat.I(laneCap / 2))
	scaled[1] = rat.New(1, 3)
	return map[string]*plan.Weighted{
		"lcm":    plantedPlan(t, coprime),
		"sum":    plantedPlan(t, plantedDurations(rat.I(laneCap+1-11))),
		"scaled": plantedPlan(t, scaled),
	}
}

// TestOnePortLaneFallback pins the lane's guard: a plan whose durations
// sum to exactly laneCap takes the integer lane and agrees with the
// rational one, and the planted overflowing plans fall back and score what
// the flat enumeration of the materialiser finds — the same optimum and
// the same schedule.
func TestOnePortLaneFallback(t *testing.T) {
	walkLanes(t, "sum at the cap", plantedPlan(t, plantedDurations(rat.I(laneCap-11))))
	oneport := searchCases()[2]
	for name, w := range overflowPlans(t) {
		if e := newOnePortEval(w); e.lane != nil {
			t.Fatalf("%s: the durations overflow the integer lane, but it was taken (den %d)", name, e.lane.den)
		}
		want, ok := naiveBest(w, oneport)
		if !ok {
			t.Fatalf("%s: no feasible order assignment", name)
		}
		res, err := OnePortLatency(w, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Exact || !res.Value.Equal(want.Latency()) || !listsIdentical(res.List, want) {
			t.Fatalf("%s: fallback scored %s (exact %v), the flat enumeration %s", name, res.Value, res.Exact, want.Latency())
		}
		if !res.LowerBound.Equal(w.LatencyPathBound()) {
			t.Fatalf("%s: lower bound %s, want %s", name, res.LowerBound, w.LatencyPathBound())
		}
	}
}

// laneFits is the lane guard's oracle in math/big: every duration scaled
// to the lcm of the denominators, the lcm within int64 and the sum within
// laneCap.
func laneFits(w *plan.Weighted) bool {
	den := big.NewInt(1)
	for op := 0; op < opCount(w); op++ {
		d := opDur(w, op).Big().Denom()
		g := new(big.Int).GCD(nil, nil, den, d)
		den.Mul(den, new(big.Int).Quo(d, g))
	}
	if !den.IsInt64() {
		return false
	}
	sum := new(big.Int)
	for op := 0; op < opCount(w); op++ {
		r := opDur(w, op).Big()
		sum.Add(sum, new(big.Int).Quo(new(big.Int).Mul(r.Num(), den), r.Denom()))
	}
	return sum.Cmp(big.NewInt(laneCap)) <= 0
}

// laneBytes reads fuzz bytes, zero once they run out.
type laneBytes []byte

func (b *laneBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// Duration parts the fuzz decoder picks from: small denominators, large
// coprime ones, and magnitudes up to 2^61.
var (
	laneDens   = []int64{1, 2, 3, 7, 1 << 20, 1000003, 2147483647, 4294967291}
	laneScales = []int64{1, 1, 1 << 30, 1 << 58, 1 << 61}
)

// decodeLanePlan builds a plan of 2–7 services from fuzz bytes, as
// gen.Weighted does (forward edges i → j, an input for every service
// without a predecessor, an output for every one without a successor), and
// then a complete order assignment and decided flags over it.
func decodeLanePlan(data []byte) (*plan.Weighted, Orders, []bool, []bool) {
	b := laneBytes(data)
	n := 2 + b.next()%6
	dur := func() rat.Rat {
		num, pick := int64(b.next()%16), b.next()
		den := laneDens[pick%len(laneDens)]
		scale := laneScales[pick/len(laneDens)%len(laneScales)]
		return rat.I(num).Mul(rat.I(scale)).Mul(rat.New(1, den))
	}
	comp := make([]rat.Rat, n)
	for i := range comp {
		comp[i] = dur()
	}
	var edges []plan.Edge
	var vols []rat.Rat
	hasIn, hasOut := make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if b.next()%2 == 1 {
				edges, vols = append(edges, plan.Edge{From: i, To: j}), append(vols, dur())
				hasOut[i], hasIn[j] = true, true
			}
		}
	}
	for i := 0; i < n; i++ {
		if !hasIn[i] {
			edges, vols = append(edges, plan.Edge{From: plan.In, To: i}), append(vols, dur())
		}
		if !hasOut[i] {
			edges, vols = append(edges, plan.Edge{From: i, To: plan.Out}), append(vols, dur())
		}
	}
	w, err := plan.NewWeighted(nil, comp, edges, vols)
	if err != nil {
		panic(err) // forward edges with non-negative durations always build
	}
	o := DefaultOrders(w)
	decIn, decOut := make([]bool, n), make([]bool, n)
	for v := 0; v < n; v++ {
		for _, side := range [][]int{o.In[v], o.Out[v]} {
			for i := len(side) - 1; i > 0; i-- {
				j := b.next() % (i + 1)
				side[i], side[j] = side[j], side[i]
			}
		}
		decIn[v], decOut[v] = b.next()%2 == 0, b.next()%2 == 0
	}
	return w, o, decIn, decOut
}

// FuzzOnePortLanesAgree decodes a plan, an order assignment and decided
// flags (decodeLanePlan), and checks that the integer lane is taken
// exactly when laneFits says so, and then that it agrees with the rational lane: floor, value
// and deadlock of the complete assignment, relaxed latency of the partial
// one, and exceeds at the complete value and 0.9 × it — and, when the plan
// has at most 64 order assignments, at its optimum and 0.9 × that.
func FuzzOnePortLanesAgree(f *testing.F) {
	// Plans of 2–7 services with small denominators: every byte below 4.
	for s := int64(0); s < 6; s++ {
		rng := gen.NewRand(s)
		data := []byte{byte(s)}
		for range 120 {
			data = append(data, byte(rng.Intn(4)))
		}
		f.Add(data)
	}
	// Two services and one edge, denominators 2^31 − 1, 2^32 − 5 and
	// 1000003: their lcm overflows int64.
	f.Add([]byte{0, 1, 6, 1, 7, 1, 1, 5, 1, 1, 1, 1})
	// The same shape with three durations of 2^61 (scale index 4 at
	// denominator 1): their sum is past laneCap, though it fits int64.
	f.Add([]byte{0, 1, 32, 1, 32, 1, 1, 32, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, o, decIn, decOut := decodeLanePlan(data)
		e := newOnePortEval(w)
		if fits := laneFits(w); (e.lane != nil) != fits {
			t.Fatalf("integer lane taken %v, its guard's oracle says %v", e.lane != nil, fits)
		}
		if e.lane == nil {
			return
		}
		ints, rats := lanePair(t, "decoded plan", w)
		var limits []rat.Rat
		if v, err := valuesAgree(t, "decoded orders", ints, rats, o); err == nil {
			limits = append(limits, v, v.Mul(rat.New(9, 10)))
		}
		if orderCombinations(w, 64) <= 64 {
			var opt rat.Rat
			found := false
			forEachOrders(w, func(c Orders) bool {
				if v, err := rats.value(c); err == nil && (!found || v.Less(opt)) {
					opt, found = v, true
				}
				return true
			})
			limits = append(limits, optLimits(opt, found)...)
		}
		lanesAgree(t, "decoded partial orders", ints, rats, o, decIn, decOut, limits)
		lanesAgree(t, "decoded orders", ints, rats, o, nil, nil, limits)
	})
}
