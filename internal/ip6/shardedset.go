package ip6

import "hitlist6/internal/rng"

// AddrShards is the canonical shard count used by every hash-sharded
// address structure in the repository. It is a constant — not a knob — so
// that shard-indexed data from independent components (the scan engine's
// batches, the service's digest accumulators, the GFW tracker) always
// agrees on which shard an address belongs to, and so that merged outputs
// are bit-identical regardless of worker count or batch size.
const AddrShards = 64

// shardSalt namespaces the shard hash away from the simulation's other
// Mix draws.
const shardSalt = 0x5aa4d_06d1

// shardMix0 is Mix's initial state, absorbed once so ShardOf's chain
// starts from it directly.
var shardMix0 = rng.MixPrefix()

// ShardOf returns the canonical shard index of an address, in
// [0, AddrShards): rng.Mix(a.Hi(), a.Lo(), shardSalt) % AddrShards,
// unrolled as a MixState chain so the hot path (one call per address
// routed anywhere) skips Mix's variadic loop.
func ShardOf(a Addr) int {
	return int(shardMix0.Add(a.Hi()).Add(a.Lo()).Add(shardSalt).Sum() % AddrShards)
}

// ShardedSet is an address set partitioned into AddrShards disjoint Sets
// by ShardOf: a scan-local accumulator. It exists for parallel
// accumulation: each shard may be written by at most one goroutine at a
// time (the scan engine guarantees this by processing each shard
// sequentially), so no locking is needed, and merging in canonical shard
// order is deterministic by construction. The cumulative sets that
// outlive a scan are SpillSets.
//
// The zero value is not ready for use; call NewShardedSet.
type ShardedSet struct {
	shards [AddrShards]Set
}

// NewShardedSet returns an empty ShardedSet. Shard maps are allocated
// lazily on first insert.
func NewShardedSet() *ShardedSet { return &ShardedSet{} }

// Add inserts a into its canonical shard; it reports whether a was newly
// added. Not safe for concurrent use — use AddToShard from per-shard
// workers instead.
func (s *ShardedSet) Add(a Addr) bool { return s.AddToShard(ShardOf(a), a) }

// AddToShard inserts a into shard i. The caller must ensure
// ShardOf(a) == i (the scan engine's batches satisfy this) and that no
// other goroutine touches shard i concurrently.
func (s *ShardedSet) AddToShard(i int, a Addr) bool {
	if s.shards[i] == nil {
		s.shards[i] = NewSet(0)
	}
	return s.shards[i].Add(a)
}

// Shard returns shard i's Set; it may be nil when empty. Treat as
// read-only unless the per-shard writing contract is honored.
func (s *ShardedSet) Shard(i int) Set { return s.shards[i] }

// Has reports membership.
func (s *ShardedSet) Has(a Addr) bool {
	sh := s.shards[ShardOf(a)]
	return sh != nil && sh.Has(a)
}

// HasInShard reports membership of a in shard i, skipping the shard hash
// when the caller already knows it.
func (s *ShardedSet) HasInShard(i int, a Addr) bool {
	sh := s.shards[i]
	return sh != nil && sh.Has(a)
}

// ShardLen returns the cardinality of shard i.
func (s *ShardedSet) ShardLen(i int) int { return len(s.shards[i]) }

// Len returns the total cardinality across shards.
func (s *ShardedSet) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh)
	}
	return n
}

// Merge returns a new flat Set holding every member, built in canonical
// shard order. Shards are disjoint, so this is a plain disjoint union.
func (s *ShardedSet) Merge() Set {
	out := NewSet(s.Len())
	for _, sh := range s.shards {
		out.AddAll(sh)
	}
	return out
}

// Clone returns a deep copy.
func (s *ShardedSet) Clone() *ShardedSet {
	c := &ShardedSet{}
	for i, sh := range s.shards {
		if sh != nil {
			c.shards[i] = sh.Clone()
		}
	}
	return c
}

// Walk visits every member, shard by shard in canonical order; fn
// returning false stops the walk. Within a shard the order is map order
// (unspecified).
func (s *ShardedSet) Walk(fn func(Addr) bool) {
	for _, sh := range s.shards {
		for a := range sh {
			if !fn(a) {
				return
			}
		}
	}
}
