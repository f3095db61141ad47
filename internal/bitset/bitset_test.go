package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // spans three words
	if !s.IsEmpty() || s.Count() != 0 || s.Len() != 130 {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) after Add", i)
		}
	}
	if s.Count() != 6 {
		t.Fatalf("Count = %d", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 5 {
		t.Fatal("Remove failed")
	}
	s.Remove(64) // removing absent element is a no-op
	if s.Count() != 5 {
		t.Fatal("double Remove changed count")
	}
	want := []int{0, 63, 127, 128, 129}
	if got := s.Elements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Elements = %v, want %v", got, want)
	}
	s.Clear()
	if !s.IsEmpty() {
		t.Fatal("Clear failed")
	}
}

// TestNewSetsIndependent: sets sharing one backing array behave as separate
// sets, Fill included (it must not spill into a neighbour's words).
func TestNewSetsIndependent(t *testing.T) {
	sets := NewSets(3, 70)
	sets[1].Fill()
	sets[0].Add(69)
	if sets[0].Count() != 1 || sets[1].Count() != 70 || !sets[2].IsEmpty() {
		t.Fatalf("counts %d, %d, %d; want 1, 70, 0", sets[0].Count(), sets[1].Count(), sets[2].Count())
	}
}

func TestFillTrims(t *testing.T) {
	s := New(70)
	s.Fill()
	if s.Count() != 70 {
		t.Fatalf("Fill Count = %d, want 70", s.Count())
	}
	// A second set unioned in must not resurrect out-of-range bits.
	o := New(70)
	o.Fill()
	s.UnionWith(o)
	if s.Count() != 70 {
		t.Fatalf("after union Count = %d", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, f := range []func(){
		func() { s.Add(10) },
		func() { s.Add(-1) },
		func() { s.Has(10) },
		func() { s.Remove(10) },
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
	New(10).UnionWith(New(11))
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestSetAlgebra(t *testing.T) {
	a := New(100)
	b := New(100)
	for _, i := range []int{1, 5, 50, 99} {
		a.Add(i)
	}
	for _, i := range []int{5, 50, 80} {
		b.Add(i)
	}

	u := a.Clone()
	if changed := u.UnionWith(b); !changed {
		t.Fatal("union should report change")
	}
	if got := u.Elements(); !reflect.DeepEqual(got, []int{1, 5, 50, 80, 99}) {
		t.Fatalf("union = %v", got)
	}
	if changed := u.UnionWith(b); changed {
		t.Fatal("second union should be a no-op")
	}

	i := a.Clone()
	i.IntersectWith(b)
	if got := i.Elements(); !reflect.DeepEqual(got, []int{5, 50}) {
		t.Fatalf("intersection = %v", got)
	}

	d := a.Clone()
	d.SubtractWith(b)
	if got := d.Elements(); !reflect.DeepEqual(got, []int{1, 99}) {
		t.Fatalf("difference = %v", got)
	}

	if !u.ContainsAll(a) || !u.ContainsAll(b) {
		t.Fatal("union must contain both operands")
	}
	if a.ContainsAll(b) {
		t.Fatal("a does not contain 80")
	}
	if !a.Intersects(b) {
		t.Fatal("a and b share elements")
	}
	if i.Intersects(d) {
		t.Fatal("intersection and difference are disjoint")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Add(3)
	c := a.Clone()
	c.Add(4)
	if a.Has(4) {
		t.Fatal("clone not independent")
	}
	b := New(64)
	b.CopyFrom(a)
	b.Add(5)
	if a.Has(5) {
		t.Fatal("CopyFrom not independent")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(50), New(50)
	a.Add(7)
	b.Add(7)
	if !a.Equal(b) {
		t.Fatal("equal sets not Equal")
	}
	b.Add(8)
	if a.Equal(b) {
		t.Fatal("different sets Equal")
	}
	if a.Equal(New(51)) {
		t.Fatal("different universes must not be Equal")
	}
}

func TestString(t *testing.T) {
	s := New(10)
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
		s := New(n)
		ref := refSet{}
		for _, op := range ops {
			i := int(op) % n
			switch (op / 97) % 3 {
			case 0:
				s.Add(i)
				ref[i] = true
			case 1:
				s.Remove(i)
				delete(ref, i)
			case 2:
				if s.Has(i) != ref[i] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for _, e := range s.Elements() {
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

func TestQuickDeMorgan(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}
	build := func(elems []uint16, n int) *Set {
		s := New(n)
		for _, e := range elems {
			s.Add(int(e) % n)
		}
		return s
	}
	prop := func(ea, eb []uint16) bool {
		const n = 130
		a, b := build(ea, n), build(eb, n)
		// complement(a ∪ b) == complement(a) ∩ complement(b)
		u := a.Clone()
		u.UnionWith(b)
		cu := New(n)
		cu.Fill()
		cu.SubtractWith(u)

		ca := New(n)
		ca.Fill()
		ca.SubtractWith(a)
		cb := New(n)
		cb.Fill()
		cb.SubtractWith(b)
		ca.IntersectWith(cb)
		return cu.Equal(ca)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionWith(b *testing.B) {
	x, y := New(4096), New(4096)
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
	x := New(4096)
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
