package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// newSet returns one empty set over [0, n).
func newSet(n int) *Set { return NewSets(1, n)[0] }

// elements lists s's members in increasing order.
func elements(s *Set) []int {
	out := []int{}
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

func TestBasicOps(t *testing.T) {
	s := newSet(130) // spans three words
	if len(elements(s)) != 0 {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) after Add", i)
		}
	}
	s.Add(64) // adding a present element is a no-op
	want := []int{0, 63, 64, 127, 128, 129}
	if got := elements(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("elements = %v, want %v", got, want)
	}
	s.Clear()
	if len(elements(s)) != 0 || s.Has(64) {
		t.Fatal("Clear failed")
	}
}

// TestNewSetsIndependent: sets sharing one backing array behave as separate
// sets (a write must not spill into a neighbour's words).
func TestNewSetsIndependent(t *testing.T) {
	sets := NewSets(3, 70)
	for i := 0; i < 70; i++ {
		sets[1].Add(i)
	}
	sets[0].Add(69)
	if a, b, c := len(elements(sets[0])), len(elements(sets[1])), len(elements(sets[2])); a != 1 || b != 70 || c != 0 {
		t.Fatalf("counts %d, %d, %d; want 1, 70, 0", a, b, c)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := newSet(10)
	for _, f := range []func(){
		func() { s.Add(10) },
		func() { s.Add(-1) },
		func() { s.Has(10) },
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

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newSet(10).UnionWith(newSet(11))
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSets(1, -1)
}

func TestSetAlgebra(t *testing.T) {
	a := newSet(100)
	b := newSet(100)
	for _, i := range []int{1, 5, 50, 99} {
		a.Add(i)
	}
	for _, i := range []int{5, 50, 80} {
		b.Add(i)
	}

	u := newSet(100)
	u.CopyFrom(a)
	if changed := u.UnionWith(b); !changed {
		t.Fatal("union should report change")
	}
	if got := elements(u); !reflect.DeepEqual(got, []int{1, 5, 50, 80, 99}) {
		t.Fatalf("union = %v", got)
	}
	if changed := u.UnionWith(b); changed {
		t.Fatal("second union should be a no-op")
	}
	if got := elements(a); !reflect.DeepEqual(got, []int{1, 5, 50, 99}) {
		t.Fatalf("union changed its source: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := newSet(64)
	a.Add(3)
	b := newSet(64)
	b.CopyFrom(a)
	b.Add(5)
	if a.Has(5) || !b.Has(3) {
		t.Fatal("CopyFrom not independent")
	}
}

func TestString(t *testing.T) {
	s := newSet(10)
	if s.String() != "{}" {
		t.Fatalf("empty String = %q", s.String())
	}
	s.Add(1)
	s.Add(9)
	if s.String() != "{1, 9}" {
		t.Fatalf("String = %q", s.String())
	}
}

// reference implementation: map[int]bool
type refSet map[int]bool

func TestQuickAgainstMapReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	prop := func(ops []uint16) bool {
		const n = 97
		s, o := newSet(n), newSet(n)
		ref := refSet{}
		for _, op := range ops {
			i := int(op) % n
			switch (op / 97) % 4 {
			case 0:
				s.Add(i)
				ref[i] = true
			case 1:
				o.Add(i)
			case 2:
				if s.Has(i) != ref[i] {
					return false
				}
			case 3:
				s.UnionWith(o)
				o.ForEach(func(e int) { ref[e] = true })
			}
		}
		got := elements(s)
		if len(got) != len(ref) {
			return false
		}
		for _, e := range got {
			if !ref[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionWith(b *testing.B) {
	x, y := newSet(4096), newSet(4096)
	for i := 0; i < 4096; i += 3 {
		x.Add(i)
	}
	for i := 0; i < 4096; i += 5 {
		y.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.UnionWith(y)
	}
}

func BenchmarkForEach(b *testing.B) {
	x := newSet(4096)
	for i := 0; i < 4096; i += 2 {
		x.Add(i)
	}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		x.ForEach(func(e int) { sum += e })
	}
	_ = sum
}
