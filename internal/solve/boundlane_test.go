package solve

// The partial bounds' two lanes: scaled int64 (boundLane) and the exact
// rationals it falls back to. The rational lane is the oracle: on every
// node of the forest and DAG search trees the integer lane must give the
// same Rat in the same form, and it must be taken exactly when a math/big
// evaluation of its guard says the solve fits.

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/workflow"
)

// laneFitsBig is newBoundLane's guard in math/big: Pmax·T·(n+1) ≤ 2^62,
// with Pmax = Π_u max(num σ_u, den σ_u), L = lcm_u den c_u and
// T = max(1, max_v max(unit(v, n), c_v+σ_v)·den σ_v·L).
func laneFitsBig(app *workflow.App, m plan.Model) bool {
	n := app.N()
	lcm, pmax := big.NewInt(1), big.NewInt(1)
	for v := 0; v < n; v++ {
		s, cd := app.Selectivity(v).Big(), app.Cost(v).Big().Denom()
		lcm.Div(new(big.Int).Mul(lcm, cd), new(big.Int).GCD(nil, nil, lcm, cd))
		if s.Num().Cmp(s.Denom()) > 0 {
			pmax.Mul(pmax, s.Num())
		} else {
			pmax.Mul(pmax, s.Denom())
		}
	}
	top := big.NewRat(1, 1)
	for v := 0; v < n; v++ {
		c, s := app.Cost(v).Big(), app.Selectivity(v).Big()
		sn := new(big.Rat).Mul(s, big.NewRat(int64(n), 1))
		var unit *big.Rat
		if m == plan.Overlap {
			unit = big.NewRat(1, 1)
			for _, x := range []*big.Rat{c, sn} {
				if x.Cmp(unit) > 0 {
					unit = x
				}
			}
		} else {
			unit = new(big.Rat).Add(big.NewRat(1, 1), new(big.Rat).Add(c, sn))
		}
		if cs := new(big.Rat).Add(c, s); cs.Cmp(unit) > 0 {
			unit = cs
		}
		scale := new(big.Rat).SetInt(new(big.Int).Mul(s.Denom(), lcm))
		if t := new(big.Rat).Mul(unit, scale); t.Cmp(top) > 0 {
			top = t
		}
	}
	if !top.IsInt() {
		panic("T is not an integer")
	}
	guard := new(big.Int).Mul(pmax, top.Num())
	guard.Mul(guard, big.NewInt(int64(n+1)))
	return guard.Cmp(new(big.Int).Lsh(big.NewInt(1), 62)) <= 0
}

// ratTables returns a copy of t without its int64 lane: its bounds run on
// the rational fallback.
func ratTables(t *boundTables) *boundTables {
	r := *t
	r.lane = nil
	return &r
}

// boundLanes checks that newBoundTables takes the lane exactly when
// laneFitsBig says app fits it, and returns scratches on both lanes (ints
// nil when the lane is not taken).
func boundLanes(t testing.TB, name string, app *workflow.App, m plan.Model, obj Objective, prec *dag.Graph, pairs [][2]int) (ints, rats *boundScratch) {
	t.Helper()
	tables := newBoundTables(app, m, obj, prec, pairs)
	if fits := laneFitsBig(app, m); (tables.lane != nil) != fits {
		t.Fatalf("%s: int64 lane taken %v, its guard's math/big oracle says %v", name, tables.lane != nil, fits)
	}
	rats = newBoundScratch(ratTables(tables))
	if tables.lane != nil {
		ints = newBoundScratch(tables)
	}
	return ints, rats
}

// lanesAgreeOnTrees walks every node of app's forest tree (when app has no
// precedence) and, up to 4 services, its DAG tree under m and obj, on both
// lanes, and fails on the first bound the lanes disagree on. It returns
// the number of nodes compared, 0 when the lane is not taken.
func lanesAgreeOnTrees(t testing.TB, name string, app *workflow.App, m plan.Model, obj Objective) int {
	t.Helper()
	nodes, n := 0, app.N()
	if !app.HasPrecedence() {
		ints, rats := boundLanes(t, name+" forest", app, m, obj, nil, nil)
		if ints == nil {
			return 0
		}
		walkForestTree(n, func(parent []int, v int) {
			nodes++
			sameLanes(t, fmt.Sprintf("%s forest %v decided %d", name, parent, v), ints.forest(parent, v), rats.forest(parent, v))
		})
	}
	if n > 4 {
		return nodes
	}
	prec, err := app.Precedence().TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	pairs := nodePairs(n)
	ints, rats := boundLanes(t, name+" DAG", app, m, obj, prec, pairs)
	if ints == nil {
		return nodes
	}
	walkDAGTree(prec, pairs, ints.acyclic, func(g *dag.Graph, i int) {
		nodes++
		if !rats.acyclic(g) {
			t.Fatalf("%s: the lanes' Kahn passes disagree on %v", name, g.Edges())
		}
		sameLanes(t, fmt.Sprintf("%s DAG %v decided %d", name, g.Edges(), i), ints.dag(g, i), rats.dag(g, i))
	})
	return nodes
}

// sameLanes fails unless the lane's bound is the fallback's Rat: same
// value in the same form.
func sameLanes(t testing.TB, what string, lane, fallback rat.Rat) {
	t.Helper()
	if !lane.Equal(fallback) || lane.String() != fallback.String() {
		t.Fatalf("%s: int64 lane %s, rational lane %s", what, lane, fallback)
	}
}

// guardEdgeApps are instances at the lane's guard: with σ = 1 and an
// integer cost c, Pmax = 1 and T = c+1 under OVERLAP (c+2 otherwise, the
// unit Cexec 1+c+σ), so n = 1 and c = 2^61−1 puts the OVERLAP guard at
// exactly 2^62 (the lane) and c = 2^61 one step past it (the fallback),
// and n = 2 with c+1 = ⌊2^62/3⌋ the same with the factor n+1 = 3. Each
// guard past 2^62 is at most 2^63.
func guardEdgeApps() []*workflow.App {
	app := func(costs ...int64) *workflow.App {
		s := make([]workflow.Service, len(costs))
		for v, c := range costs {
			s[v] = workflow.Service{Name: fmt.Sprintf("S%d", v+1), Cost: rat.I(c), Selectivity: rat.One}
		}
		return workflow.MustNew(s, nil)
	}
	third := int64(1<<62/3) - 1
	return []*workflow.App{app(1<<61 - 1), app(1 << 61), app(third, 1), app(third+1, 1)}
}

// wideSelectivity returns app with service 0's selectivity replaced by
// 999999937/1000000007: the guard's product passes 2^62, so every bound
// of its solves runs on the rational fallback, while its Rats stay small.
func wideSelectivity(app *workflow.App) *workflow.App {
	s := app.Services()
	s[0].Selectivity = rat.New(999999937, 1000000007)
	return workflow.MustNew(s, app.Precedence().Edges())
}

// TestPartialBoundLanesAgree walks every node of the forest (n ≤ 5) and
// DAG (n ≤ 4, without and with precedence) search trees of gen instances
// of every profile, under every model and objective, and holds the int64
// lane to the rational one Rat for Rat. Every gen instance must take the
// lane; the guard-edge instances take it exactly where the math/big
// oracle says so, and the wide-selectivity ones never do.
func TestPartialBoundLanesAgree(t *testing.T) {
	seeds := 4
	if testing.Short() || raceEnabled {
		seeds = 1
	}
	objectives := []Objective{PeriodObjective, LatencyObjective}
	nodes := 0
	for seed := 0; seed < seeds; seed++ {
		for _, profile := range []gen.Profile{gen.Filtering, gen.Mixed, gen.Expanding} {
			rng := gen.NewRand(int64(500 + 10*seed + int(profile)))
			var apps []*workflow.App
			for n := 1; n <= 5; n++ {
				apps = append(apps, gen.App(rng, n, profile))
			}
			apps = append(apps, gen.AppWithPrecedence(rng, 3, profile, 0.5), gen.AppWithPrecedence(rng, 4, profile, 0.4))
			for i, app := range apps {
				for _, m := range plan.Models {
					for _, obj := range objectives {
						name := fmt.Sprintf("seed %d %s app %d %s/%s", seed, profile, i, m, obj)
						got := lanesAgreeOnTrees(t, name, app, m, obj)
						if got == 0 {
							t.Fatalf("%s: a gen instance fell back to the rational lane", name)
						}
						nodes += got
					}
				}
			}
		}
	}
	edges := guardEdgeApps()
	for i, app := range edges {
		if fits := laneFitsBig(app, plan.Overlap); fits != (i%2 == 0) {
			t.Fatalf("guard edge %d: OVERLAP fits the lane %v: the instances do not straddle the guard", i, fits)
		}
		for _, m := range plan.Models {
			for _, obj := range objectives {
				nodes += lanesAgreeOnTrees(t, fmt.Sprintf("guard edge %d %s/%s", i, m, obj), app, m, obj)
			}
		}
	}
	wide := wideSelectivity(gen.App(gen.NewRand(7), 4, gen.Mixed))
	for _, m := range plan.Models {
		if got := lanesAgreeOnTrees(t, "wide selectivity "+m.String(), wide, m, PeriodObjective); got != 0 {
			t.Fatalf("wide selectivity %s: took the int64 lane", m)
		}
	}
	t.Logf("%d partial decisions compared", nodes)
}

// fuzzLaneScales are the numerators and denominators fuzzLaneApp draws
// from: gen's small ones and magnitudes around the guard.
var fuzzLaneScales = []int64{1, 2, 3, 4, 5, 10, 7, 9, 29, 1 << 20, 1<<31 - 1, 999999937, 1000000007, 1 << 40, 1<<61 - 1, 1 << 61, 1 << 62, math.MaxInt64}

// fuzzLaneApp decodes an instance of 1 to 4 services from data — a size
// byte, then per service a cost numerator, cost denominator, selectivity
// numerator and selectivity denominator byte, each an index into
// fuzzLaneScales (a numerator byte past the table reads as 0), then a
// precedence byte as in fuzzApps — and returns it without and, when the
// mask keeps an edge, with its precedence constraints.
func fuzzLaneApp(data []byte) []*workflow.App {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	num := func(b int) int64 {
		if b >= len(fuzzLaneScales) {
			return 0
		}
		return fuzzLaneScales[b]
	}
	den := func(b int) int64 { return fuzzLaneScales[b%len(fuzzLaneScales)] }
	n := 1 + at(0)%4
	services := make([]workflow.Service, n)
	for v := range services {
		services[v] = workflow.Service{Name: fmt.Sprintf("S%d", v+1),
			Cost:        rat.New(num(at(1+4*v)), den(at(2+4*v))),
			Selectivity: rat.New(num(at(3+4*v)), den(at(4+4*v)))}
	}
	apps := []*workflow.App{workflow.MustNew(services, nil)}
	var prec [][2]int
	for k, p := range nodePairs(n) {
		if at(1+4*n)>>uint(k)&1 == 1 {
			prec = append(prec, p)
		}
	}
	if len(prec) > 0 {
		apps = append(apps, workflow.MustNew(services, prec))
	}
	return apps
}

// FuzzPartialBoundLanesAgree: on decoded instances the int64 lane is taken
// exactly when laneFitsBig says so, and then gives the rational lane's
// Rat on every node of the forest and DAG trees, under every model and
// objective.
func FuzzPartialBoundLanesAgree(f *testing.F) {
	f.Add([]byte{2, 1, 5, 3, 5, 2, 4, 1, 5, 7, 5, 3, 0})                               // small denominators, σ = 4
	f.Add([]byte{3, 0, 0, 3, 2, 8, 0, 4, 5, 2, 5, 1, 3, 0, 0, 18, 0, 0b000111})        // σ = 4/3 and σ = 0, with precedence
	f.Add([]byte{0, 14, 0, 0, 0})                                                      // c = 2^61−1, σ = 1: OVERLAP exactly at the guard
	f.Add([]byte{0, 15, 0, 0, 0})                                                      // c = 2^61: one step past it
	f.Add([]byte{1, 0, 12, 11, 12, 1, 0, 0, 0})                                        // σ = 999999937/1000000007: the fallback
	f.Add([]byte{3, 9, 10, 10, 9, 9, 10, 10, 9, 9, 10, 10, 9, 9, 10, 10, 9, 0b100101}) // coprime denominators past 2^20, with precedence
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, app := range fuzzLaneApp(data) {
			for _, m := range plan.Models {
				for _, obj := range []Objective{PeriodObjective, LatencyObjective} {
					lanesAgreeOnTrees(t, fmt.Sprintf("%s/%s", m, obj), app, m, obj)
				}
			}
		}
	})
}
