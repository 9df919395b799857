package ip6

import (
	"fmt"
	"testing"

	"hitlist6/internal/rng"
)

// sameBacking reports whether two non-empty shard slices share a backing
// array.
func sameBacking(a, b []Addr) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// requireEqualFrozen pins got against want: identical per-shard contents
// in order.
func requireEqualFrozen(t *testing.T, got, want *SortedShardSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	for sh := 0; sh < AddrShards; sh++ {
		requireAddrs(t, fmt.Sprintf("shard %d", sh), got.Shard(sh), want.Shard(sh))
	}
}

// fillBoth inserts n random addresses into set and model alike and
// checks that every shard ended up non-empty.
func fillBoth(t *testing.T, set *SpillSet, model *ShardedSet, seed uint64, n int) {
	t.Helper()
	r := rng.NewStream(seed, "freeze-delta")
	for i := 0; i < n; i++ {
		a := AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>32, r.Uint64())
		if got, want := set.Add(a), model.Add(a); got != want {
			t.Fatalf("Add(%v) new=%v, want %v", a, got, want)
		}
	}
	for sh := 0; sh < AddrShards; sh++ {
		if set.ShardLen(sh) == 0 {
			t.Fatalf("setup: shard %d empty, sharing check needs non-empty shards", sh)
		}
	}
}

// TestFreezeSortedDelta covers the sharing contract of successive views
// of a resident set: a shard that gained nothing is pointer-shared with
// the previous view, a shard that gained is a fresh array, an earlier
// view never changes, and every view is content-identical to a full
// FreezeSorted of a model set.
func TestFreezeSortedDelta(t *testing.T) {
	set, model := NewResidentSet(), NewShardedSet()
	fillBoth(t, set, model, 9, 4000)
	gen0, err := set.View()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualFrozen(t, gen0, FreezeSorted(model))

	// No mutation: every shard shared, the slices literally the same
	// arrays.
	gen1, err := set.View()
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < AddrShards; sh++ {
		if !sameBacking(gen1.Shard(sh), gen0.Shard(sh)) {
			t.Fatalf("clean view: shard %d not pointer-shared", sh)
		}
	}

	// Re-adding an existing member is membership-invariant and must not
	// dirty its shard.
	member := gen1.Shard(0)[0]
	if set.Add(member) {
		t.Fatalf("re-add of %v reported new", member)
	}
	gen2, err := set.View()
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < AddrShards; sh++ {
		if !sameBacking(gen2.Shard(sh), gen1.Shard(sh)) {
			t.Fatalf("re-add view: shard %d not pointer-shared", sh)
		}
	}

	// Mutate exactly 3 shards; only those get fresh arrays.
	before := FreezeSorted(model)
	dirty := map[int]bool{}
	for i := uint64(0); len(dirty) < 3; i++ {
		a := AddrFromUint64s(0x2001_0db8_ffff_0000, i)
		sh := ShardOf(a)
		if sh > 2 { // constrain churn to shards 0..2
			continue
		}
		model.Add(a)
		if set.Add(a) {
			dirty[sh] = true
		}
	}
	gen3, err := set.View()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualFrozen(t, gen3, FreezeSorted(model))
	for sh := 0; sh < AddrShards; sh++ {
		if dirty[sh] == sameBacking(gen3.Shard(sh), gen2.Shard(sh)) {
			t.Fatalf("shard %d: dirty=%v but sharing=%v", sh, dirty[sh], !dirty[sh])
		}
	}
	// The earlier view did not move with the set.
	requireEqualFrozen(t, gen2, before)

	// An independently built set with the same members views to the same
	// contents and shares no array with this one.
	other := NewResidentSet()
	for sh := 0; sh < AddrShards; sh++ {
		for a := range model.Shard(sh) {
			other.Add(a)
		}
	}
	got, err := other.View()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualFrozen(t, got, gen3)
	for sh := 0; sh < AddrShards; sh++ {
		if sameBacking(got.Shard(sh), gen3.Shard(sh)) {
			t.Fatalf("foreign set: shard %d shares an array", sh)
		}
	}
}

// TestFreezeSortedSetDeltaSpill covers successive views of the
// disk-backed set: each is read back from the runs into fresh slices,
// content-identical to a full FreezeSorted of a model set, before and
// after more inserts and a Compact, and an earlier view never changes
// when the set grows.
func TestFreezeSortedSetDeltaSpill(t *testing.T) {
	spill, err := NewSpillSet(t.TempDir(), 8) // tiny budget: everything spills
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	model := NewShardedSet()
	fillBoth(t, spill, model, 11, 4000)
	if spill.FrozenRuns() == 0 {
		t.Fatal("budget 8 froze no runs — spilling never happened")
	}
	gen0, err := spill.View()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualFrozen(t, gen0, FreezeSorted(model))

	// No mutation: the same contents, in fresh arrays.
	gen1, err := spill.View()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualFrozen(t, gen1, gen0)
	for sh := 0; sh < AddrShards; sh++ {
		if sameBacking(gen1.Shard(sh), gen0.Shard(sh)) {
			t.Fatalf("spilled view: shard %d shares an array with the previous view", sh)
		}
	}

	// Dirty a few shards, then compact: the new view tracks the model,
	// the earlier one stays as it was.
	before := FreezeSorted(model)
	r := rng.NewStream(11, "freeze-spill")
	dirtied := map[int]bool{}
	for len(dirtied) < 3 {
		a := AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>32, r.Uint64())
		model.Add(a)
		if spill.Add(a) {
			dirtied[ShardOf(a)] = true
		}
	}
	gen2, err := spill.View()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualFrozen(t, gen2, FreezeSorted(model))
	requireEqualFrozen(t, gen1, before)
	if err := spill.Compact(); err != nil {
		t.Fatal(err)
	}
	gen3, err := spill.View()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualFrozen(t, gen3, gen2)
	if err := spill.Err(); err != nil {
		t.Fatal(err)
	}
}
