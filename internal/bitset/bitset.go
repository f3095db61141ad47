// Package bitset provides a compact dense bitset used throughout the
// scheduler for ancestor sets, reachability matrices and execution-graph
// enumeration. Sets are fixed-capacity: every operation assumes both
// operands were created with the same length.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset over the universe [0, Len()).
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewSets returns k empty sets over the universe [0, n) in three
// allocations, however large k is: the sets' words share one backing array.
func NewSets(k, n int) []*Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	w := (n + wordBits - 1) / wordBits
	words, sets, out := make([]uint64, k*w), make([]Set, k), make([]*Set, k)
	for i := range sets {
		sets[i] = Set{n: n, words: words[i*w : (i+1)*w : (i+1)*w]}
		out[i] = &sets[i]
	}
	return out
}

// Len returns the universe size the set was created with.
func (s *Set) Len() int { return s.n }

// check panics if i is outside the universe. Out-of-range access is always a
// bug in the callers, never recoverable input error.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (i % wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (i % wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every element of the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits beyond the universe in the last word.
func (s *Set) trim() {
	if s.n%wordBits != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (s.n % wordBits)) - 1
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o (same universe required).
func (s *Set) CopyFrom(o *Set) {
	s.sameUniverse(o)
	copy(s.words, o.words)
}

func (s *Set) sameUniverse(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d != %d", s.n, o.n))
	}
}

// UnionWith adds every element of o to s and reports whether s changed.
func (s *Set) UnionWith(o *Set) bool {
	s.sameUniverse(o)
	changed := false
	for i, w := range o.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			changed = true
			s.words[i] = nw
		}
	}
	return changed
}

// IntersectWith removes from s every element not in o.
func (s *Set) IntersectWith(o *Set) {
	s.sameUniverse(o)
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// SubtractWith removes from s every element of o.
func (s *Set) SubtractWith(o *Set) {
	s.sameUniverse(o)
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// ContainsAll reports whether every element of o is in s.
func (s *Set) ContainsAll(o *Set) bool {
	s.sameUniverse(o)
	for i, w := range o.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	s.sameUniverse(o)
	for i, w := range o.words {
		if w&s.words[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every element in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Elements returns the members of the set in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
