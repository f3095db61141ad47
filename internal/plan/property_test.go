package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rat"
	"repro/internal/workflow"
)

// randomApp builds a random application with rational selectivities.
func randomApp(rng *rand.Rand, n int) *workflow.App {
	services := make([]workflow.Service, n)
	for i := range services {
		services[i] = workflow.Service{
			Cost:        rat.New(1+rng.Int63n(12), 1+rng.Int63n(3)),
			Selectivity: rat.New(1+rng.Int63n(30), 10),
		}
	}
	return workflow.MustNew(services, nil)
}

// randomEG builds a random execution graph (forward edges under a random
// permutation).
func randomEG(rng *rand.Rand, app *workflow.App, density float64) *ExecGraph {
	n := app.N()
	perm := rng.Perm(n)
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				edges = append(edges, [2]int{perm[i], perm[j]})
			}
		}
	}
	return MustBuild(app, edges)
}

// TestQuickInProdMatchesBruteForceAncestors checks inProd(v) against a
// direct product over a recomputed ancestor set.
func TestQuickInProdMatchesBruteForceAncestors(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(21))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		app := randomApp(rng, 2+rng.Intn(8))
		eg := randomEG(rng, app, 0.4)
		for v := 0; v < eg.N(); v++ {
			// Brute-force ancestors by reverse DFS over predecessors.
			anc := map[int]bool{}
			var walk func(u int)
			walk = func(u int) {
				for _, p := range eg.Graph().Pred(u) {
					if !anc[p] {
						anc[p] = true
						walk(p)
					}
				}
			}
			walk(v)
			prod := rat.One
			for a := range anc {
				prod = prod.Mul(app.Selectivity(a))
			}
			if !prod.Equal(eg.inProd[v]) {
				return false
			}
			if !eg.outSize[v].Equal(prod.Mul(app.Selectivity(v))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickCexecDecomposition checks the Cin/Ccomp/Cout identities: the sum
// of Cin over all services equals the sum of Cout minus the boundary terms.
func TestQuickCexecDecomposition(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(22))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		app := randomApp(rng, 2+rng.Intn(8))
		eg := randomEG(rng, app, 0.4)
		// Σ_v Cin(v) counts every service edge once plus 1 per entry;
		// Σ_v Cout(v) counts every service edge once plus outSize per exit.
		w := eg.Weighted()
		sumIn, sumOut := rat.Zero, rat.Zero
		entries, exitVol := rat.Zero, rat.Zero
		for v := 0; v < eg.N(); v++ {
			sumIn = sumIn.Add(w.Cin(v))
			sumOut = sumOut.Add(w.Cout(v))
			if eg.Graph().InDegree(v) == 0 {
				entries = entries.Add(rat.One)
			}
			if eg.Graph().OutDegree(v) == 0 {
				exitVol = exitVol.Add(eg.outSize[v])
			}
		}
		return sumIn.Sub(entries).Equal(sumOut.Sub(exitVol))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickWeightedLoweringAgrees re-checks the ExecGraph→Weighted lowering
// on random graphs (the Fig-1 case is covered in plan_test.go). The costs
// and bounds computed from the lowering are cross-checked against the hill
// climbs' incremental evaluator in internal/solve.
func TestQuickWeightedLoweringAgrees(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(23))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		app := randomApp(rng, 2+rng.Intn(8))
		return loweringAgrees(randomEG(rng, app, 0.4))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
