package tga

// SeedView is the sharded seed contract between the pipeline and the
// generators: per-shard sorted spans plus a total length, the
// ip6.SortedShardSet view of the cumulative responsive set. Views are
// cheap to hand out every round because the set's view wraps its
// folded columns — shards whose membership did not change share their
// span with the previous round's view, which is also what lets a
// generator's incremental model skip an unchanged shard by slice
// identity alone and diff only the changed ones (KeptSpans).
//
// Spans are immutable by contract; generators read them but never write.

import "hitlist6/internal/ip6"

// SeedView is the generators' seed contract: a frozen sorted shard set,
// whose Len, Shard, Has and Walk treat a nil set as empty.
type SeedView = ip6.SortedShardSet

// NewSeedView returns set unchanged. It exists only because the
// repository benchmark calls it; everything else passes the set.
func NewSeedView(set *ip6.SortedShardSet) *SeedView { return set }

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
