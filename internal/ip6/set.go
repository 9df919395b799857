package ip6

import (
	"math/bits"
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
// uint64 pairs — an MSD radix sort over the address bytes, with
// insertion sort for short buckets (radixSortWords) — and written back,
// so a warm sort allocates nothing. Per-shard scan-set sorting, spill
// runs, frozen snapshots and checkpoints all sort through here.
func SortAddrs(addrs []Addr) {
	if len(addrs) < 2 {
		return
	}
	bp := wordScratch.Get().(*[]addrWords)
	words := slices.Grow((*bp)[:0], len(addrs))[:len(addrs)]
	for i, a := range addrs {
		words[i] = addrWords{a.Hi(), a.Lo()}
	}
	radixSortWords(words)
	for i, w := range words {
		addrs[i] = AddrFromUint64s(w.hi, w.lo)
	}
	*bp = words
	wordScratch.Put(bp)
}

// radixCutoff is the slice length below which radixSortWords hands a
// bucket to insertion sort: under it, clearing and scanning 256 bucket
// counters costs more than the comparisons they save.
const radixCutoff = 48

// byteAt returns byte k, 0 = most significant, of the address x holds.
func (x addrWords) byteAt(k int) uint8 {
	w := x.hi
	if k >= 8 {
		w = x.lo
	}
	return uint8(w >> (56 - 8*(k&7)))
}

// radixSortWords sorts words ascending with an in-place MSD radix sort
// (American flag sort) over the sixteen address bytes. One pass first
// finds the bytes every element shares, which no level then visits; a
// level whose count finds one bucket is skipped without permuting.
// Buckets under radixCutoff fall back to insertion sort. The recursion
// is at most sixteen levels deep, its counters live on the stack, and
// nothing is allocated.
func radixSortWords(words []addrWords) {
	if len(words) < radixCutoff {
		insertionSortWords(words)
		return
	}
	var dhi, dlo uint64
	for _, x := range words[1:] {
		dhi |= x.hi ^ words[0].hi
		dlo |= x.lo ^ words[0].lo
	}
	k := bits.LeadingZeros64(dhi) / 8
	if dhi == 0 {
		if dlo == 0 {
			return // all equal
		}
		k = 8 + bits.LeadingZeros64(dlo)/8
	}
	radixSortFrom(words, k)
}

// radixSortFrom sorts words, which agree on every byte before k.
func radixSortFrom(words []addrWords, k int) {
	var count [256]int
	for ; k < 16; k++ {
		count = [256]int{}
		for _, x := range words {
			count[x.byteAt(k)]++
		}
		if count[words[0].byteAt(k)] < len(words) {
			break
		}
	}
	if k == 16 {
		return // all equal
	}
	// next[b] is where bucket b's next element goes; end[b] its end.
	var next, end [256]int
	off := 0
	for b, c := range count {
		next[b] = off
		off += c
		end[b] = off
	}
	for b := range next {
		for next[b] < end[b] {
			x := words[next[b]]
			// Cycle x through the buckets it displaces until one that
			// belongs in bucket b comes back.
			for xb := x.byteAt(k); int(xb) != b; xb = x.byteAt(k) {
				x, words[next[xb]] = words[next[xb]], x
				next[xb]++
			}
			words[next[b]] = x
			next[b]++
		}
	}
	if k == 15 {
		return
	}
	start := 0
	for _, e := range end {
		if b := words[start:e]; len(b) >= radixCutoff {
			radixSortFrom(b, k+1)
		} else if len(b) > 1 {
			insertionSortWords(b)
		}
		start = e
	}
}

// insertionSortWords sorts a short slice of words ascending.
func insertionSortWords(words []addrWords) {
	for i := 1; i < len(words); i++ {
		x := words[i]
		j := i
		for ; j > 0 && (x.hi < words[j-1].hi || x.hi == words[j-1].hi && x.lo < words[j-1].lo); j-- {
			words[j] = words[j-1]
		}
		words[j] = x
	}
}
