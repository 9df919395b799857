package ip6

import (
	"testing"

	"hitlist6/internal/rng"
)

// sameBacking reports whether two non-empty shard slices share a backing
// array (the copy-on-publish sharing FreezeSortedDelta promises).
func sameBacking(a, b []Addr) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// requireEqualFrozen pins got against an independently built full freeze
// of the same ShardedSet: identical per-shard contents in order.
func requireEqualFrozen(t *testing.T, got, want *SortedShardSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	for sh := 0; sh < AddrShards; sh++ {
		a, b := got.Shard(sh), want.Shard(sh)
		if len(a) != len(b) {
			t.Fatalf("shard %d: len %d, want %d", sh, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("shard %d[%d]: %v, want %v", sh, i, a[i], b[i])
			}
		}
	}
}

// TestFreezeSortedDelta covers the sharing contract: unchanged shards are
// pointer-shared with the previous generation, mutated shards are
// re-frozen, and the result is always content-identical to a full
// FreezeSorted.
func TestFreezeSortedDelta(t *testing.T) {
	r := rng.NewStream(9, "freeze-delta")
	s := NewShardedSet()
	for i := 0; i < 4000; i++ {
		s.Add(AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>32, r.Uint64()))
	}
	for sh := 0; sh < AddrShards; sh++ {
		if s.ShardLen(sh) == 0 {
			t.Fatalf("setup: shard %d empty, sharing check needs non-empty shards", sh)
		}
	}
	gen0 := FreezeSorted(s)

	// No mutation: every shard shared, none re-frozen, slices literally
	// the same arrays.
	gen1, refrozen, shared := FreezeSortedDelta(s, gen0)
	if refrozen != 0 || shared != AddrShards {
		t.Fatalf("clean delta: refrozen=%d shared=%d, want 0/%d", refrozen, shared, AddrShards)
	}
	requireEqualFrozen(t, gen1, FreezeSorted(s))
	for sh := 0; sh < AddrShards; sh++ {
		if !sameBacking(gen1.Shard(sh), gen0.Shard(sh)) {
			t.Fatalf("clean delta: shard %d not pointer-shared", sh)
		}
	}

	// Re-adding an existing member is membership-invariant and must not
	// dirty its shard.
	var member Addr
	s.Walk(func(a Addr) bool { member = a; return false })
	s.Add(member)
	gen2, refrozen, shared := FreezeSortedDelta(s, gen1)
	if refrozen != 0 || shared != AddrShards {
		t.Fatalf("re-add delta: refrozen=%d shared=%d, want 0/%d", refrozen, shared, AddrShards)
	}
	_ = gen2

	// Mutate exactly 3 shards; only those re-freeze.
	dirty := map[int]bool{}
	for i := uint64(0); len(dirty) < 3; i++ {
		a := AddrFromUint64s(0x2001_0db8_ffff_0000, i)
		sh := ShardOf(a)
		if sh > 2 { // constrain churn to shards 0..2
			continue
		}
		if s.Add(a) {
			dirty[sh] = true
		}
	}
	gen3, refrozen, shared := FreezeSortedDelta(s, gen1)
	if refrozen != 3 || shared != AddrShards-3 {
		t.Fatalf("dirty delta: refrozen=%d shared=%d, want 3/%d", refrozen, shared, AddrShards-3)
	}
	requireEqualFrozen(t, gen3, FreezeSorted(s))
	for sh := 0; sh < AddrShards; sh++ {
		if dirty[sh] == sameBacking(gen3.Shard(sh), gen1.Shard(sh)) {
			t.Fatalf("shard %d: dirty=%v but sharing=%v", sh, dirty[sh], !dirty[sh])
		}
	}

	// nil prev and a prev frozen from a different set object both degrade
	// to a full freeze.
	for name, prev := range map[string]*SortedShardSet{
		"nil":     nil,
		"foreign": FreezeSorted(NewShardedSet()),
	} {
		got, refrozen, shared := FreezeSortedDelta(s, prev)
		if refrozen != AddrShards || shared != 0 {
			t.Fatalf("%s prev: refrozen=%d shared=%d, want %d/0", name, refrozen, shared, AddrShards)
		}
		requireEqualFrozen(t, got, FreezeSorted(s))
	}
}
