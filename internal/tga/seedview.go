package tga

// SeedView is the sharded seed contract between the pipeline and the
// generators: per-shard sorted spans plus a total length and per-shard
// epochs, wrapping an ip6.SortedShardSet frozen from the cumulative
// responsive set. Views are cheap to hand out every round because the
// freeze is an epoch delta — shards whose membership did not change
// pointer-share their frozen span with the previous round's view, which
// is also what lets a generator's incremental model prove a shard's
// cached statistics current by slice identity alone (KeptSpans).
//
// Spans are immutable by contract; generators read them but never write.

import (
	"runtime"

	"hitlist6/internal/ip6"
)

// SeedView wraps a frozen sorted shard set as the generators' seed
// contract. The zero/nil view is empty.
type SeedView struct {
	set *ip6.SortedShardSet
}

// NewSeedView wraps an already-frozen sorted shard set.
func NewSeedView(set *ip6.SortedShardSet) *SeedView { return &SeedView{set: set} }

// SeedViewOf materializes a view from a flat seed slice — how a caller
// holding a plain seed list (the CLI, the experiments, tests) hands it to
// EmitView. Seeds are partitioned by canonical shard, sorted, and
// deduplicated; the caller's slice is not modified.
func SeedViewOf(seeds []ip6.Addr) *SeedView {
	var shards [ip6.AddrShards][]ip6.Addr
	for _, a := range seeds {
		sh := ip6.ShardOf(a)
		shards[sh] = append(shards[sh], a)
	}
	for sh := range shards {
		span := shards[sh]
		ip6.SortAddrs(span)
		out := span[:0]
		for i, a := range span {
			if i > 0 && a == span[i-1] {
				continue
			}
			out = append(out, a)
		}
		shards[sh] = out
	}
	return &SeedView{set: ip6.SortedFromShards(shards)}
}

// Len returns the total seed count; a nil view is empty.
func (v *SeedView) Len() int {
	if v == nil {
		return 0
	}
	return v.set.Len()
}

// Shard returns shard i's sorted span; treat as read-only.
func (v *SeedView) Shard(i int) []ip6.Addr {
	if v == nil || v.set == nil {
		return nil
	}
	return v.set.Shard(i)
}

// Has reports seed membership by binary search over the address's
// canonical shard — the emission-phase "is this a seed" test, replacing
// the per-round resident copy of the whole seed set.
func (v *SeedView) Has(a ip6.Addr) bool {
	if v == nil {
		return false
	}
	return v.set.Has(a)
}

// Walk visits every seed in canonical order (shard by shard, sorted
// within each shard); fn returning false stops the walk.
func (v *SeedView) Walk(fn func(ip6.Addr) bool) {
	if v == nil || v.set == nil {
		return
	}
	v.set.Walk(fn)
}

// SameSpan reports whether two frozen shard spans are the same immutable
// slice. The delta freeze pointer-shares unchanged shards and allocates
// fresh arrays for re-frozen ones, so slice identity is a sound and
// complete currency test for a model's per-shard statistics; two empty
// spans are trivially the same.
func SameSpan(a, b []ip6.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// KeptSpans is a generator's record of the seed-view spans its
// per-shard statistics were last built from: it answers "which shards
// changed since I last kept a view" by span identity and records the
// spans kept. The zero value has kept nothing, so every shard of the
// first view is dirty.
type KeptSpans struct {
	kept  bool
	spans [ip6.AddrShards][]ip6.Addr
}

// Dirty returns the mask of shards whose span in v is not the kept one,
// and how many there are.
func (k *KeptSpans) Dirty(v *SeedView) (dirty [ip6.AddrShards]bool, n int) {
	for sh := range dirty {
		if k.kept && SameSpan(k.spans[sh], v.Shard(sh)) {
			continue
		}
		dirty[sh] = true
		n++
	}
	return dirty, n
}

// Kept returns the span last kept for shard sh (nil before any Keep).
func (k *KeptSpans) Kept(sh int) []ip6.Addr { return k.spans[sh] }

// Keep records every span of v as current.
func (k *KeptSpans) Keep(v *SeedView) {
	for sh := range k.spans {
		k.spans[sh] = v.Shard(sh)
	}
	k.kept = true
}

// Refresh calls rebuild for every dirty shard of v, in parallel over
// GOMAXPROCS workers, then keeps v. It returns the number of shards
// rebuilt — 0 means statistics derived from the kept spans are provably
// current. rebuild must write only its own shard's slots, which keeps
// the parallel rebuild deterministic.
func (k *KeptSpans) Refresh(v *SeedView, rebuild func(sh int, span []ip6.Addr)) int {
	dirty, n := k.Dirty(v)
	if n == 0 {
		return 0
	}
	ip6.ParallelShards(runtime.GOMAXPROCS(0), func(sh int) {
		if dirty[sh] {
			rebuild(sh, v.Shard(sh))
		}
	})
	k.Keep(v)
	return n
}
