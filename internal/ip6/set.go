package ip6

import (
	"slices"
	"sync"
)

// Set is an unordered set of IPv6 addresses.
type Set map[Addr]struct{}

// NewSet returns an empty Set with capacity hint n.
func NewSet(n int) Set { return make(Set, n) }

// SetOf builds a Set from addresses.
func SetOf(addrs ...Addr) Set {
	s := make(Set, len(addrs))
	for _, a := range addrs {
		s[a] = struct{}{}
	}
	return s
}

// Add inserts a; it reports whether a was newly added.
func (s Set) Add(a Addr) bool {
	if _, ok := s[a]; ok {
		return false
	}
	s[a] = struct{}{}
	return true
}

// AddAll inserts every address from other.
func (s Set) AddAll(other Set) {
	for a := range other {
		s[a] = struct{}{}
	}
}

// AddSlice inserts every address from addrs.
func (s Set) AddSlice(addrs []Addr) {
	for _, a := range addrs {
		s[a] = struct{}{}
	}
}

// Has reports membership.
func (s Set) Has(a Addr) bool { _, ok := s[a]; return ok }

// Delete removes a.
func (s Set) Delete(a Addr) { delete(s, a) }

// Equal reports whether s and other hold exactly the same members; a nil
// set equals an empty one.
func (s Set) Equal(other Set) bool {
	if len(s) != len(other) {
		return false
	}
	for a := range s {
		if _, ok := other[a]; !ok {
			return false
		}
	}
	return true
}

// Len returns the cardinality.
func (s Set) Len() int { return len(s) }

// Clone returns a copy.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for a := range s {
		c[a] = struct{}{}
	}
	return c
}

// Union returns a new set with all members of s and other.
func (s Set) Union(other Set) Set {
	u := make(Set, len(s)+len(other))
	for a := range s {
		u[a] = struct{}{}
	}
	for a := range other {
		u[a] = struct{}{}
	}
	return u
}

// Intersect returns the members present in both sets.
func (s Set) Intersect(other Set) Set {
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	out := make(Set)
	for a := range small {
		if _, ok := large[a]; ok {
			out[a] = struct{}{}
		}
	}
	return out
}

// IntersectCount returns |s ∩ other| without allocating the intersection.
// Overlap matrices (Figures 7 and 10) are built from this.
func (s Set) IntersectCount(other Set) int {
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	n := 0
	for a := range small {
		if _, ok := large[a]; ok {
			n++
		}
	}
	return n
}

// Diff returns the members of s not in other.
func (s Set) Diff(other Set) Set {
	out := make(Set)
	for a := range s {
		if _, ok := other[a]; !ok {
			out[a] = struct{}{}
		}
	}
	return out
}

// Sorted returns the members in ascending numeric order.
func (s Set) Sorted() []Addr {
	out := make([]Addr, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	SortAddrs(out)
	return out
}

// addrWords is an address as its two native-order words: the sort key
// SortAddrs compares without re-decoding big-endian bytes each time.
type addrWords struct{ hi, lo uint64 }

// compareWords orders word pairs as Compare orders the addresses.
func compareWords(x, y addrWords) int {
	if x.hi != y.hi {
		if x.hi < y.hi {
			return -1
		}
		return 1
	}
	if x.lo < y.lo {
		return -1
	}
	if x.lo > y.lo {
		return 1
	}
	return 0
}

// wordScratch recycles SortAddrs' key buffers, so steady-state sorts
// allocate nothing.
var wordScratch = sync.Pool{New: func() any { return new([]addrWords) }}

// SortAddrs sorts a slice of addresses in place, ascending. Each
// address's words are loaded once into pooled scratch, sorted as native
// uint64 pairs and written back: pdqsort compares each element many
// times, and Compare would byte-swap both words on every comparison.
// Per-shard scan-set sorting, frozen snapshots and checkpoints all sort
// through here.
func SortAddrs(addrs []Addr) {
	if len(addrs) < 2 {
		return
	}
	bp := wordScratch.Get().(*[]addrWords)
	words := slices.Grow((*bp)[:0], len(addrs))[:len(addrs)]
	for i, a := range addrs {
		words[i] = addrWords{a.Hi(), a.Lo()}
	}
	slices.SortFunc(words, compareWords)
	for i, w := range words {
		addrs[i] = AddrFromUint64s(w.hi, w.lo)
	}
	*bp = words
	wordScratch.Put(bp)
}
