package ip6

import (
	"testing"

	"hitlist6/internal/rng"
)

// TestFreezeSortedSetDeltaSpill covers the generalized epoch-delta freeze
// over the disk-backed SpillSet: unchanged shards pointer-share their
// frozen span across generations, dirtied shards re-freeze, and every
// generation is content-identical to a full freeze — the same contract
// TestFreezeSortedDelta pins for the resident ShardedSet.
func TestFreezeSortedSetDeltaSpill(t *testing.T) {
	spill, err := NewSpillSet(t.TempDir(), 8) // tiny budget: everything spills
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()

	r := rng.NewStream(11, "freeze-spill")
	for i := 0; i < 4000; i++ {
		spill.Add(AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>32, r.Uint64()))
	}
	for sh := 0; sh < AddrShards; sh++ {
		if spill.ShardLen(sh) == 0 {
			t.Fatalf("setup: shard %d empty, sharing check needs non-empty shards", sh)
		}
	}
	gen0 := FreezeSorted(spill)
	requireEqualFrozen(t, gen0, FreezeSorted(spill))

	// No mutation: every shard shared.
	gen1, refrozen, shared := FreezeSortedDelta(spill, gen0)
	if refrozen != 0 || shared != AddrShards {
		t.Fatalf("clean delta: refrozen=%d shared=%d, want 0/%d", refrozen, shared, AddrShards)
	}
	for sh := 0; sh < AddrShards; sh++ {
		if !sameBacking(gen1.Shard(sh), gen0.Shard(sh)) {
			t.Fatalf("clean delta: shard %d not shared", sh)
		}
	}

	// Dirty a few shards; only they re-freeze.
	dirtied := map[int]bool{}
	n := 0
	for !dirtied[0] || len(dirtied) < 3 {
		a := AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>32, r.Uint64())
		if spill.Add(a) {
			dirtied[ShardOf(a)] = true
			n++
		}
		if n > 100 {
			break
		}
	}
	gen2, refrozen, shared := FreezeSortedDelta(spill, gen1)
	if refrozen != len(dirtied) || shared != AddrShards-len(dirtied) {
		t.Fatalf("dirty delta: refrozen=%d shared=%d, want %d/%d",
			refrozen, shared, len(dirtied), AddrShards-len(dirtied))
	}
	requireEqualFrozen(t, gen2, FreezeSorted(spill))
	for sh := 0; sh < AddrShards; sh++ {
		if dirtied[sh] == sameBacking(gen2.Shard(sh), gen1.Shard(sh)) {
			t.Fatalf("shard %d: dirty=%v but shared=%v", sh, dirtied[sh], !dirtied[sh])
		}
	}

	// A different previous source degrades to a full freeze.
	other := NewShardedSet()
	other.Add(MustParseAddr("2001:db8::1"))
	gen3, refrozen, _ := FreezeSortedDelta(spill, FreezeSorted(other))
	if refrozen != AddrShards {
		t.Fatalf("cross-source delta: refrozen=%d, want full %d", refrozen, AddrShards)
	}
	requireEqualFrozen(t, gen3, gen2)
}

// TestShardSortedCursor pins the cursor against a sorted Merge() of the
// set: each shard's members in ascending order, duplicate-free across
// runs, clean end-of-stream.
func TestShardSortedCursor(t *testing.T) {
	spill, err := NewSpillSet(t.TempDir(), 4) // several runs per shard
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()

	r := rng.NewStream(13, "cursor")
	for i := 0; i < 2000; i++ {
		spill.Add(AddrFromUint64s(0x2001_0db8_0000_0000|r.Uint64()>>32, r.Uint64()))
	}
	want := make([][]Addr, AddrShards)
	for _, a := range spill.Merge().Sorted() {
		want[ShardOf(a)] = append(want[ShardOf(a)], a)
	}
	for sh := 0; sh < AddrShards; sh++ {
		cur, err := spill.ShardSortedCursor(sh)
		if err != nil {
			t.Fatalf("shard %d: %v", sh, err)
		}
		var got []Addr
		for {
			a, ok, err := cur()
			if err != nil {
				t.Fatalf("shard %d: cursor error: %v", sh, err)
			}
			if !ok {
				break
			}
			got = append(got, a)
		}
		if len(got) != len(want[sh]) {
			t.Fatalf("shard %d: %d addrs, want %d", sh, len(got), len(want[sh]))
		}
		for i := range got {
			if got[i] != want[sh][i] {
				t.Fatalf("shard %d[%d]: %v, want %v", sh, i, got[i], want[sh][i])
			}
		}
		// Exhausted cursors stay exhausted.
		if _, ok, _ := cur(); ok {
			t.Fatalf("shard %d: cursor yielded past end", sh)
		}
	}
}
