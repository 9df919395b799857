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
// by ShardOf: a map accumulator that FreezeSorted turns into a
// SortedShardSet. Each shard may be written by at most one goroutine at a
// time, so no locking is needed. Only the benchmark (bench/) still
// builds sets this way; the service's per-shard accumulators are sorted
// columns (SortShards), and this type goes when the benchmark reads
// views (ROADMAP item 2).
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
// ShardOf(a) == i and that no other goroutine touches shard i
// concurrently.
func (s *ShardedSet) AddToShard(i int, a Addr) bool {
	if s.shards[i] == nil {
		s.shards[i] = NewSet(0)
	}
	return s.shards[i].Add(a)
}

// Shard returns shard i's Set; it may be nil when empty. Treat as
// read-only unless the per-shard writing contract is honored.
func (s *ShardedSet) Shard(i int) Set { return s.shards[i] }

// Len returns the total cardinality across shards.
func (s *ShardedSet) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh)
	}
	return n
}
