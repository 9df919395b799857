package ip6

import "slices"

// SortedShardSet is a read-only address set stored as sorted per-shard
// slices: the one form in which the service hands an address set out —
// snapshots, a scan's responders, views of the cumulative sets and the
// analyses over them. Set algebra runs as linear merge walks over packed
// arrays with no hashing, which is what the overlap matrices (Figures 7
// and 10) want.
type SortedShardSet struct {
	shards [AddrShards][]Addr
	total  int
}

// FreezeSorted builds the sorted form of a ShardedSet: each shard's
// members copied into one shared backing array and sorted. The result is
// independent of s, so s may keep growing afterwards. Only the benchmark
// (bench/) still builds sets this way; it goes when the benchmark reads
// views (ROADMAP item 2).
func FreezeSorted(s *ShardedSet) *SortedShardSet {
	buf := make([]Addr, 0, s.Len()) // one backing array for every shard
	var shards [AddrShards][]Addr
	for sh := range shards {
		start := len(buf)
		for a := range s.Shard(sh) {
			buf = append(buf, a)
		}
		shards[sh] = buf[start:len(buf):len(buf)]
		SortAddrs(shards[sh])
	}
	return SortedFromShards(shards)
}

// SortedFromShards wraps already-sorted per-shard slices — for example
// the mmap'd spans of a .hl6 file, whose on-disk layout is exactly this
// partition — as a SortedShardSet without copying. The slices must be
// sorted ascending, duplicate-free, and partitioned by ShardOf; callers
// own that invariant (hl6 files carry it by construction).
func SortedFromShards(shards [AddrShards][]Addr) *SortedShardSet {
	out := &SortedShardSet{shards: shards}
	for sh := 0; sh < AddrShards; sh++ {
		out.total += len(shards[sh])
	}
	return out
}

// SortShards sorts each shard of shards in place, drops repeated
// addresses, and wraps the result. Every address must be in its ShardOf
// shard; within a shard any order and any repeats are fine — the form a
// per-shard accumulator (a scan sink appending each success to its
// batch's shard) leaves.
func SortShards(shards [AddrShards][]Addr) *SortedShardSet {
	for sh := range shards {
		SortAddrs(shards[sh])
		shards[sh] = slices.Compact(shards[sh])
	}
	return SortedFromShards(shards)
}

// SortedOf returns the set of addrs, which may come in any order and
// repeat; addrs itself is not modified.
func SortedOf(addrs ...Addr) *SortedShardSet {
	var shards [AddrShards][]Addr
	for _, a := range addrs {
		sh := ShardOf(a)
		shards[sh] = append(shards[sh], a)
	}
	return SortShards(shards)
}

// Len returns the total cardinality; a nil receiver is an empty set.
func (s *SortedShardSet) Len() int {
	if s == nil {
		return 0
	}
	return s.total
}

// Has reports membership by binary search over the address's canonical
// shard — the point lookup the serving layer answers queries with. It
// allocates nothing; a nil receiver is an empty set.
func (s *SortedShardSet) Has(a Addr) bool {
	if s == nil {
		return false
	}
	return s.HasInShard(ShardOf(a), a)
}

// HasInShard is Has when the caller already knows the shard.
func (s *SortedShardSet) HasInShard(sh int, a Addr) bool {
	if s == nil {
		return false
	}
	return hasSorted(s.shards[sh], a)
}

// Shard returns shard i's sorted members; treat as read-only. A nil
// receiver is an empty set.
func (s *SortedShardSet) Shard(i int) []Addr {
	if s == nil {
		return nil
	}
	return s.shards[i]
}

// IntersectCount returns |s ∩ o| by per-shard sorted merge walks,
// allocating nothing. Shards partition the address space identically on
// both sides (ShardOf is canonical), so shards can be intersected
// pairwise.
func (s *SortedShardSet) IntersectCount(o *SortedShardSet) int {
	n := 0
	for sh := 0; sh < AddrShards; sh++ {
		a, b := s.Shard(sh), o.Shard(sh)
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch c := a[i].Compare(b[j]); {
			case c < 0:
				i++
			case c > 0:
				j++
			default:
				n++
				i++
				j++
			}
		}
	}
	return n
}

// Union returns s ∪ o, one per-shard merge each. A shard empty on one
// side is the other side's very slice.
func (s *SortedShardSet) Union(o *SortedShardSet) *SortedShardSet {
	var shards [AddrShards][]Addr
	for sh := range shards {
		a, b := s.Shard(sh), o.Shard(sh)
		switch {
		case len(a) == 0:
			shards[sh] = b
		case len(b) == 0:
			shards[sh] = a
		default:
			shards[sh] = merged(a, b)
		}
	}
	return SortedFromShards(shards)
}

// Walk visits every member in canonical order (shard by shard, sorted
// within each shard); fn returning false stops the walk.
func (s *SortedShardSet) Walk(fn func(Addr) bool) {
	for sh := 0; sh < AddrShards; sh++ {
		for _, a := range s.Shard(sh) {
			if !fn(a) {
				return
			}
		}
	}
}

// Sorted returns every member in ascending address order, as a fresh
// slice: the global order an address file (snapshots.json) and a caller
// that needs one list of targets read.
func (s *SortedShardSet) Sorted() []Addr {
	all := make([]Addr, 0, s.Len())
	for sh := 0; sh < AddrShards; sh++ {
		all = append(all, s.Shard(sh)...)
	}
	SortAddrs(all)
	return all
}
