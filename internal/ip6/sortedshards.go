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

	// src and epochs record which set object each freeze was built from
	// and the per-shard mutation epochs at freeze time, so the delta
	// freezes can prove a shard unchanged and share its frozen slice with
	// the next generation. src is identity only — never dereferenced for
	// content — and is nil for wrapped sets (SortedFromShards).
	src    any
	epochs [AddrShards]uint64
}

// FreezeSorted builds the sorted form of s — the resident ShardedSet or
// the disk-backed SpillSet. The result is independent of s (the
// addresses are copied), so s may keep growing afterwards.
func FreezeSorted(s SpillableSet) *SortedShardSet {
	out, _, _ := FreezeSortedDelta(s, nil)
	return out
}

// FreezeSortedDelta builds the sorted form of s, sharing the frozen
// slices of unchanged shards with prev — a SortedShardSet previously
// frozen from the same set object — instead of re-copying and
// re-sorting them. A shard is provably unchanged when prev was frozen
// from s (pointer identity) and its mutation epoch has not advanced
// since; changed shards stream through WalkShard and are sorted once
// into one fresh backing array. Sharing is safe because frozen slices
// are immutable by contract. With prev nil, or frozen from a different
// set object, every shard is re-frozen. Returns the new set plus the
// number of shards re-frozen and shared.
func FreezeSortedDelta(s SpillableSet, prev *SortedShardSet) (out *SortedShardSet, refrozen, shared int) {
	if prev != nil && prev.src != s {
		prev = nil
	}
	out = &SortedShardSet{src: s}
	need := 0
	var dirty [AddrShards]bool
	for sh := 0; sh < AddrShards; sh++ {
		if prev == nil || s.ShardEpoch(sh) != prev.epochs[sh] {
			dirty[sh] = true
			need += s.ShardLen(sh)
		}
	}
	buf := make([]Addr, 0, need) // one backing array for all dirty shards
	for sh := 0; sh < AddrShards; sh++ {
		if !dirty[sh] {
			out.shards[sh] = prev.shards[sh]
			out.epochs[sh] = prev.epochs[sh]
			out.total += len(prev.shards[sh])
			shared++
			continue
		}
		start := len(buf)
		s.WalkShard(sh, func(a Addr) bool {
			buf = append(buf, a)
			return true
		})
		shard := buf[start:len(buf):len(buf)]
		SortAddrs(shard)
		out.shards[sh] = shard
		out.epochs[sh] = s.ShardEpoch(sh)
		out.total += len(shard)
		refrozen++
	}
	return out, refrozen, shared
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
	shard := s.shards[sh]
	hi, lo := a.Hi(), a.Lo()
	i, j := 0, len(shard)
	for i < j {
		m := int(uint(i+j) >> 1)
		mhi, mlo := shard[m].Hi(), shard[m].Lo()
		if mhi < hi || (mhi == hi && mlo < lo) {
			i = m + 1
		} else {
			j = m
		}
	}
	return i < len(shard) && shard[i].Hi() == hi && shard[i].Lo() == lo
}

// Shard returns shard i's sorted members; treat as read-only.
func (s *SortedShardSet) Shard(i int) []Addr { return s.shards[i] }

// ShardEpoch returns the mutation epoch shard i was frozen at — the
// source set's ShardEpoch at freeze time, or 0 for wrapped sets. Epochs
// are comparable only between freezes of the same source object.
func (s *SortedShardSet) ShardEpoch(i int) uint64 { return s.epochs[i] }

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
