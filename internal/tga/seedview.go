package tga

// SeedView is the sharded seed contract between the pipeline and the
// generators: per-shard sorted spans plus a total length, wrapping an
// ip6.SortedShardSet — the view of the cumulative responsive set. Views
// are cheap to hand out every round because the set's view wraps its
// folded columns — shards whose membership did not change share their
// span with the previous round's view, which is also what lets a
// generator's incremental model skip an unchanged shard by slice
// identity alone and diff only the changed ones (KeptSpans).
//
// Spans are immutable by contract; generators read them but never write.

import "hitlist6/internal/ip6"

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
// slice. A cumulative set's view wraps the very column of a shard that
// did not change and a fresh array for one that did, so slice identity
// proves a shard unchanged without reading it; two empty spans are
// trivially the same.
func SameSpan(a, b []ip6.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// KeptSpans is a generator's record of the seed-view spans its
// statistics were last built from. The service's seed set only grows, so
// a generator updates its statistics from the seeds each new view adds
// (Added) and starts over only when a view is not a grow-only extension
// of the kept one. The zero value has kept nothing.
type KeptSpans struct {
	kept  bool
	spans [ip6.AddrShards][]ip6.Addr
}

// Added returns the seeds v adds to the kept view and then keeps v. For
// every shard whose span changed (span identity, SameSpan, skips the
// rest) it lists the seeds missing from the kept span — in shard order,
// ascending within a shard. reset reports that the kept statistics are
// void: nothing was kept yet, or some kept span is not a sorted subset
// of v's (a shard shrank, or v is a view of another seed set); added is
// then every seed of v, in canonical order. The caller owns added.
func (k *KeptSpans) Added(v *SeedView) (added []ip6.Addr, reset bool) {
	reset = !k.kept
	for sh := 0; sh < ip6.AddrShards && !reset; sh++ {
		old, i := k.spans[sh], 0
		if SameSpan(old, v.Shard(sh)) {
			continue
		}
		for _, a := range v.Shard(sh) {
			if i < len(old) && old[i] == a {
				i++
				continue
			}
			added = append(added, a)
		}
		reset = i != len(old)
	}
	if reset {
		added = make([]ip6.Addr, 0, v.Len())
		v.Walk(func(a ip6.Addr) bool {
			added = append(added, a)
			return true
		})
	}
	for sh := range k.spans {
		k.spans[sh] = v.Shard(sh)
	}
	k.kept = true
	return added, reset
}
