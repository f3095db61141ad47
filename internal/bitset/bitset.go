// Package bitset provides a compact dense bitset for the ancestor and
// descendant sets of dag, plan and the hill climbs. Sets are fixed-capacity:
// every operation assumes both operands were created with the same length.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset over the universe [0, n).
type Set struct {
	n     int
	words []uint64
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

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
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
