package eventgraph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rat"
)

func TestTwoNodeCycle(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, rat.I(3), 0)
	g.AddEdge(1, 0, rat.I(2), 1)
	res, err := g.MaximumCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.Equal(rat.I(5)) {
		t.Fatalf("MCR = %s, want 5", res.Ratio)
	}
	if len(res.CriticalCycle) != 2 {
		t.Fatalf("critical cycle = %v", res.CriticalCycle)
	}
	pi, err := g.Potentials(rat.I(5))
	if err != nil {
		t.Fatal(err)
	}
	// begin(1) ≥ begin(0)+3; begin(0) ≥ begin(1)+2−5.
	if !pi[0].Equal(rat.Zero) || !pi[1].Equal(rat.I(3)) {
		t.Fatalf("potentials = %v", pi)
	}
	if _, err := g.Potentials(rat.New(49, 10)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("λ=4.9 must be infeasible, got %v", err)
	}
	if !feasiblePeriod(g, rat.I(6)) || feasiblePeriod(g, rat.I(4)) {
		t.Fatal("FeasiblePeriod wrong")
	}
}

func TestSelfLoop(t *testing.T) {
	g := New(1)
	g.AddEdge(0, 0, rat.I(4), 1)
	res, err := g.MaximumCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.Equal(rat.I(4)) {
		t.Fatalf("MCR = %s", res.Ratio)
	}
}

func TestFractionalRatio(t *testing.T) {
	// Cycle with 3 delay-units over 2 tokens: ratio 23/3 requires tokens...
	// build Σd = 23, Σh = 3.
	g := New(3)
	g.AddEdge(0, 1, rat.I(10), 1)
	g.AddEdge(1, 2, rat.I(6), 1)
	g.AddEdge(2, 0, rat.I(7), 1)
	res, err := g.MaximumCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.Equal(rat.New(23, 3)) {
		t.Fatalf("MCR = %s, want 23/3", res.Ratio)
	}
}

func TestMaxOverMultipleCycles(t *testing.T) {
	// Two disjoint cycles with ratios 3 and 7: MCR must be 7.
	g := New(4)
	g.AddEdge(0, 1, rat.I(2), 1)
	g.AddEdge(1, 0, rat.I(4), 1) // ratio 3
	g.AddEdge(2, 3, rat.I(10), 1)
	g.AddEdge(3, 2, rat.I(4), 1) // ratio 7
	res, err := g.MaximumCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.Equal(rat.I(7)) {
		t.Fatalf("MCR = %s, want 7", res.Ratio)
	}
}

func TestSharedNodeCycles(t *testing.T) {
	// Two cycles through node 0 inside one SCC: 0->1->0 ratio 5,
	// 0->2->0 ratio 9/2.
	g := New(3)
	g.AddEdge(0, 1, rat.I(4), 0)
	g.AddEdge(1, 0, rat.I(6), 2)
	g.AddEdge(0, 2, rat.I(8), 1)
	g.AddEdge(2, 0, rat.One, 1)
	res, err := g.MaximumCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ratio.Equal(rat.I(5)) {
		t.Fatalf("MCR = %s, want 5", res.Ratio)
	}
}

func TestZeroTokenCycleDetected(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, rat.One, 0)
	g.AddEdge(1, 0, rat.One, 0)
	if _, err := g.MaximumCycleRatio(); !errors.Is(err, ErrZeroTokenCycle) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Potentials(rat.I(100)); !errors.Is(err, ErrZeroTokenCycle) {
		t.Fatalf("err = %v", err)
	}
}

func TestAcyclicGraph(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, rat.I(5), 0)
	g.AddEdge(1, 2, rat.I(7), 0)
	if _, err := g.MaximumCycleRatio(); !errors.Is(err, ErrNoCycle) {
		t.Fatalf("err = %v", err)
	}
	pi, err := g.Potentials(rat.One)
	if err != nil {
		t.Fatal(err)
	}
	if !pi[2].Equal(rat.I(12)) {
		t.Fatalf("potentials = %v", pi)
	}
	if _, err := bruteForceMCR(g); !errors.Is(err, ErrNoCycle) {
		t.Fatalf("brute err = %v", err)
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, rat.One, 0)
	g.AddEdge(0, 1, rat.I(9), 1) // slower but with a token
	g.AddEdge(1, 0, rat.One, 1)
	res, err := g.MaximumCycleRatio()
	if err != nil {
		t.Fatal(err)
	}
	// Cycles: (1+1)/1 = 2 and (9+1)/2 = 5 -> 5.
	if !res.Ratio.Equal(rat.I(5)) {
		t.Fatalf("MCR = %s, want 5", res.Ratio)
	}
}

func TestAddEdgePanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(1).AddEdge(0, 1, rat.One, 0) },
		func() { New(1).AddEdge(0, 0, rat.I(-1), 0) },
		func() { New(1).AddEdge(0, 0, rat.One, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCriticalCycleRatioConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		g := randomEventGraph(rng, 2+rng.Intn(6))
		res, err := g.MaximumCycleRatio()
		if errors.Is(err, ErrNoCycle) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		sumD, sumH := rat.Zero, 0
		for _, ei := range res.CriticalCycle {
			sumD = sumD.Add(g.edges[ei].Delay)
			sumH += g.edges[ei].Tokens
		}
		if sumH == 0 {
			t.Fatal("critical cycle without tokens")
		}
		if !sumD.Div(rat.I(int64(sumH))).Equal(res.Ratio) {
			t.Fatalf("critical cycle ratio mismatch: %s vs %s", sumD.Div(rat.I(int64(sumH))), res.Ratio)
		}
		// The cycle edges must chain head to tail.
		for i, ei := range res.CriticalCycle {
			next := res.CriticalCycle[(i+1)%len(res.CriticalCycle)]
			if g.edges[ei].To != g.edges[next].From {
				t.Fatal("critical cycle edges do not chain")
			}
		}
	}
}

// randomEventGraph builds a random event graph whose zero-token edges only
// go forward (index order), guaranteeing no zero-token cycle.
func randomEventGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	edges := 1 + rng.Intn(3*n)
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		delay := rat.New(rng.Int63n(20), 1+rng.Int63n(4))
		if u < v && rng.Intn(2) == 0 {
			g.AddEdge(u, v, delay, 0)
		} else {
			g.AddEdge(u, v, delay, 1+rng.Intn(2))
		}
	}
	return g
}

func TestQuickHowardMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(23))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomEventGraph(rng, 2+rng.Intn(6))
		howard, err1 := g.MaximumCycleRatio()
		brute, err2 := bruteForceMCR(g)
		if err1 != nil || err2 != nil {
			return errors.Is(err1, ErrNoCycle) && errors.Is(err2, ErrNoCycle)
		}
		return howard.Ratio.Equal(brute.Ratio)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickPotentialsSatisfyConstraints(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(29))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomEventGraph(rng, 2+rng.Intn(6))
		res, err := g.MaximumCycleRatio()
		lambda := rat.I(1 + rng.Int63n(5))
		if err == nil {
			lambda = res.Ratio.Add(rat.New(rng.Int63n(3), 1))
		}
		pi, err := g.Potentials(lambda)
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			lhs := pi[e.To]
			rhs := pi[e.From].Add(e.Delay).Sub(lambda.MulInt(int64(e.Tokens)))
			if lhs.Less(rhs) {
				return false
			}
		}
		for _, p := range pi {
			if p.Sign() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMCRIsExactFeasibilityThreshold(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(31))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomEventGraph(rng, 2+rng.Intn(5))
		res, err := g.MaximumCycleRatio()
		if errors.Is(err, ErrNoCycle) {
			return feasiblePeriod(g, rat.Zero)
		}
		if err != nil {
			return false
		}
		eps := rat.New(1, 1000)
		return feasiblePeriod(g, res.Ratio) && !feasiblePeriod(g, res.Ratio.Sub(eps))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkHowardMCR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomEventGraph(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MaximumCycleRatio(); err != nil && !errors.Is(err, ErrNoCycle) {
			b.Fatal(err)
		}
	}
}

func BenchmarkPotentials(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomEventGraph(rng, 200)
	res, err := g.MaximumCycleRatio()
	if err != nil {
		b.Skip("no cycle")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Potentials(res.Ratio); err != nil {
			b.Fatal(err)
		}
	}
}

// TestResetMatchesFreshGraph pins the scratch-reuse contract of the order
// search: a graph rebuilt through Reset must analyze exactly like a fresh
// one — same MCR (ratio and critical cycle), same potentials — whatever
// the graph it held before, including across size changes.
func TestResetMatchesFreshGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reused := New(0)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		seed := rng.Int63()
		fresh := randomEventGraph(rand.New(rand.NewSource(seed)), n)
		reused.Reset(n)
		for _, e := range randomEventGraph(rand.New(rand.NewSource(seed)), n).Edges() {
			reused.AddEdge(e.From, e.To, e.Delay, e.Tokens)
		}
		fr, ferr := fresh.MaximumCycleRatio()
		rr, rerr := reused.MaximumCycleRatio()
		if !errors.Is(rerr, ferr) {
			t.Fatalf("trial %d: MCR errors diverge: fresh %v, reused %v", trial, ferr, rerr)
		}
		if ferr != nil {
			continue
		}
		if !fr.Ratio.Equal(rr.Ratio) {
			t.Fatalf("trial %d: ratio %s != %s", trial, fr.Ratio, rr.Ratio)
		}
		if len(fr.CriticalCycle) != len(rr.CriticalCycle) {
			t.Fatalf("trial %d: critical cycles differ: %v vs %v", trial, fr.CriticalCycle, rr.CriticalCycle)
		}
		for i := range fr.CriticalCycle {
			if fr.CriticalCycle[i] != rr.CriticalCycle[i] {
				t.Fatalf("trial %d: critical cycles differ: %v vs %v", trial, fr.CriticalCycle, rr.CriticalCycle)
			}
		}
		fp, err1 := fresh.Potentials(fr.Ratio)
		rp, err2 := reused.Potentials(rr.Ratio)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: potentials failed: %v / %v", trial, err1, err2)
		}
		for v := range fp {
			if !fp[v].Equal(rp[v]) {
				t.Fatalf("trial %d: potential %d: %s != %s", trial, v, fp[v], rp[v])
			}
		}
	}
}

// TestPotentialsIntoReusesBuffer pins the buffer contract: the result
// matches Potentials, a big-enough buffer is reused in place, and error
// paths hand the (possibly grown) buffer back instead of dropping it.
func TestPotentialsIntoReusesBuffer(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, rat.I(2), 0)
	g.AddEdge(1, 2, rat.I(3), 0)
	g.AddEdge(2, 0, rat.I(1), 1)
	want, err := g.Potentials(rat.I(10))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]rat.Rat, 8)
	got, err := g.PotentialsInto(buf, rat.I(10))
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Fatal("big-enough buffer was not reused")
	}
	for v := range want {
		if !want[v].Equal(got[v]) {
			t.Fatalf("potential %d: %s != %s", v, want[v], got[v])
		}
	}
	// Infeasible period: the buffer must come back for reuse.
	back, err := g.PotentialsInto(buf, rat.I(1))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
	if back == nil {
		t.Fatal("error path dropped the buffer")
	}
}

// feasiblePeriod reports whether the given period admits a schedule.
func feasiblePeriod(g *Graph, lambda rat.Rat) bool {
	_, err := g.Potentials(lambda)
	return err == nil
}

// bruteForceMCR enumerates all simple cycles (Johnson-style DFS) and
// returns the maximum ratio: the exponential reference Howard's
// MaximumCycleRatio is cross-checked against. Self-loops count as simple
// cycles.
func bruteForceMCR(g *Graph) (MCRResult, error) {
	if err := g.checkZeroTokenAcyclic(); err != nil {
		return MCRResult{}, err
	}
	best := MCRResult{}
	found := false
	onPath := make([]bool, g.n)
	var path []int // edge indices
	var dfs func(start, v int, sumD rat.Rat, sumH int)
	dfs = func(start, v int, sumD rat.Rat, sumH int) {
		for _, ei := range g.out(v) {
			e := g.edges[ei]
			// Only consider cycles whose smallest node is start, to avoid
			// revisiting each cycle once per rotation.
			if e.To < start {
				continue
			}
			if e.To == start {
				d := sumD.Add(e.Delay)
				h := sumH + e.Tokens
				if h > 0 {
					ratio := d.Div(rat.I(int64(h)))
					if !found || ratio.Greater(best.Ratio) {
						cyc := append(append([]int(nil), path...), ei)
						best = MCRResult{Ratio: ratio, CriticalCycle: cyc}
						found = true
					}
				}
				continue
			}
			if onPath[e.To] {
				continue
			}
			onPath[e.To] = true
			path = append(path, ei)
			dfs(start, e.To, sumD.Add(e.Delay), sumH+e.Tokens)
			path = path[:len(path)-1]
			onPath[e.To] = false
		}
	}
	for v := 0; v < g.n; v++ {
		onPath[v] = true
		dfs(v, v, rat.Zero, 0)
		onPath[v] = false
	}
	if !found {
		return MCRResult{}, ErrNoCycle
	}
	return best, nil
}
