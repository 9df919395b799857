package ip6

// SortedShardSet is a frozen address set stored as sorted per-shard
// slices — the read-only, cache-friendly form of a ShardedSet. Building
// it costs one sort per shard; after that, set algebra runs as linear
// merge walks over packed arrays with no hashing and no allocation,
// which is what the overlap matrices (Figures 7 and 10) want: the old
// path materialized flat map copies of every set just to count
// intersections.
type SortedShardSet struct {
	shards [AddrShards][]Addr
	total  int
}

// FreezeSorted builds the sorted form of a ShardedSet: each shard's
// members copied into one shared backing array and sorted. The result is
// independent of s, so s may keep growing afterwards. (A SpillSet's
// sorted form is its View.)
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

// Shard returns shard i's sorted members; treat as read-only.
func (s *SortedShardSet) Shard(i int) []Addr { return s.shards[i] }

// IntersectCount returns |s ∩ o| by per-shard sorted merge walks,
// allocating nothing. Shards partition the address space identically on
// both sides (ShardOf is canonical), so shards can be intersected
// pairwise.
func (s *SortedShardSet) IntersectCount(o *SortedShardSet) int {
	n := 0
	for sh := 0; sh < AddrShards; sh++ {
		a, b := s.shards[sh], o.shards[sh]
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

// Walk visits every member in canonical order (shard by shard, sorted
// within each shard); fn returning false stops the walk.
func (s *SortedShardSet) Walk(fn func(Addr) bool) {
	for sh := 0; sh < AddrShards; sh++ {
		for _, a := range s.shards[sh] {
			if !fn(a) {
				return
			}
		}
	}
}
