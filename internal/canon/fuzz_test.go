package canon

import (
	"fmt"
	"testing"

	"repro/internal/rat"
	"repro/internal/workflow"
)

// fuzzInstance is an instance as the fuzzer draws it: n ≤ 6 services with
// small rational costs and selectivities and a precedence DAG over them.
type fuzzInstance struct {
	names      []string
	cost, sel  [][2]int64 // num/den in lowest terms or not; den > 0
	prec       [][2]int
	scale      []int64 // per service, the factor k of the unreduced disguise
	perm       []int   // perm[original] = position in the permuted listing
	redundant  [][2]int
	costTarget int // the service whose cost (or name) the mutations change
}

// next consumes one byte of data (0 once it runs out).
func next(data *[]byte) int {
	if len(*data) == 0 {
		return 0
	}
	b := (*data)[0]
	*data = (*data)[1:]
	return int(b)
}

func drawInstance(data []byte) fuzzInstance {
	in := fuzzInstance{}
	n := 1 + next(&data)%6
	for i := 0; i < n; i++ {
		in.names = append(in.names, fmt.Sprintf("S%d", i))
		in.cost = append(in.cost, [2]int64{int64(next(&data) % 17), int64(1 + next(&data)%4)})
		in.sel = append(in.sel, [2]int64{int64(1 + next(&data)%9), int64(1 + next(&data)%5)})
		in.scale = append(in.scale, int64(2+next(&data)%5))
	}
	// Edges only go from a lower to a higher index, so the graph is a DAG.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next(&data)%3 == 0 {
				in.prec = append(in.prec, [2]int{u, v})
			}
		}
	}
	// Fisher–Yates over the remaining bytes.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := next(&data) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	in.perm = make([]int, n)
	for pos, orig := range order {
		in.perm[orig] = pos
	}
	// Every edge the closure implies but the listing omits is redundant.
	app := in.app(0, nil)
	closure, err := app.Precedence().TransitiveClosure()
	if err != nil {
		panic(err)
	}
	for _, e := range closure.Edges() {
		if !app.Precedence().HasEdge(e[0], e[1]) {
			in.redundant = append(in.redundant, e)
		}
	}
	in.costTarget = next(&data) % n
	return in
}

// ratOf builds p/q through rat.Parse, k·p/k·q when scaled.
func ratOf(pq [2]int64, k int64) rat.Rat {
	r, err := rat.Parse(fmt.Sprintf("%d/%d", k*pq[0], k*pq[1]))
	if err != nil {
		panic(err)
	}
	return r
}

// The disguises, combinable as bits.
const (
	permuted = 1 << iota
	unreduced
	redundantEdges
	allDisguises = permuted | unreduced | redundantEdges
)

// app lists the instance under the disguises set in d: services permuted,
// every rational unreduced, the redundant edges added. mutate, when set,
// edits the services before they are listed.
func (in fuzzInstance) app(d int, mutate func([]workflow.Service)) *workflow.App {
	n := len(in.names)
	services := make([]workflow.Service, n)
	for i := range services {
		k := int64(1)
		if d&unreduced != 0 {
			k = in.scale[i]
		}
		services[i] = workflow.Service{Name: in.names[i], Cost: ratOf(in.cost[i], k), Selectivity: ratOf(in.sel[i], k)}
	}
	if mutate != nil {
		mutate(services)
	}
	edges := in.prec
	if d&redundantEdges != 0 {
		edges = append(append([][2]int(nil), edges...), in.redundant...)
	}
	if d&permuted == 0 {
		return workflow.MustNew(services, edges)
	}
	listed := make([]workflow.Service, n)
	for i, s := range services {
		listed[in.perm[i]] = s
	}
	relabeled := make([][2]int, len(edges))
	for i, e := range edges {
		relabeled[i] = [2]int{in.perm[e[0]], in.perm[e[1]]}
	}
	return workflow.MustNew(listed, relabeled)
}

// FuzzCanonicalHash holds the content hash to the model's three
// representation freedoms — a service permutation, unreduced rationals and
// transitively implied precedence edges leave it unchanged — and to names
// and costs being identity: changing one cost or one name changes it.
func FuzzCanonicalHash(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 4, 1, 3, 2, 1, 8, 2, 1, 0, 0, 1})
	f.Add([]byte{5, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 4, 3, 2, 1, 3})
	f.Add([]byte{3, 16, 4, 8, 5, 4, 255, 7, 1, 1, 1, 2, 3, 0, 3, 3, 0, 0, 1, 2, 0})
	// A chain 0→1→2 (0→2 implied) whose first two services tie on cost
	// and selectivity, so only their names order them, listed permuted.
	f.Add([]byte{2, 4, 0, 0, 1, 1, 4, 0, 0, 1, 2, 6, 1, 2, 0, 0, 0, 1, 0, 0, 0, 1})
	// Four tied services on a chain with three implied edges.
	f.Add([]byte{3, 4, 0, 0, 1, 1, 4, 0, 0, 1, 2, 4, 0, 0, 1, 3, 4, 0, 0, 1, 4, 0, 1, 1, 0, 1, 0, 1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := drawInstance(data)
		hash := func(app *workflow.App) string {
			c, err := Canonicalize(app)
			if err != nil {
				t.Fatal(err)
			}
			return c.Hash()
		}
		base := hash(in.app(0, nil))
		for d := 1; d <= allDisguises; d++ {
			if got := hash(in.app(d, nil)); got != base {
				t.Fatalf("disguise %03b: hash %s, plain %s", d, got, base)
			}
		}
		j := in.costTarget
		bumped := hash(in.app(allDisguises, func(s []workflow.Service) { s[j].Cost = s[j].Cost.Add(rat.One) }))
		if bumped == base {
			t.Fatalf("changing %s's cost left the hash unchanged", in.names[j])
		}
		renamed := hash(in.app(allDisguises, func(s []workflow.Service) { s[j].Name += "x" }))
		if renamed == base {
			t.Fatalf("renaming %s left the hash unchanged", in.names[j])
		}
	})
}
